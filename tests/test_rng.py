import numpy as np
import pytest

from mechtest.errors import StructuralError
from mechtest.rng import check_seed, substream

# one to six 32-bit words; five and six words run SeedSequence's tail loop
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**63 + 11, 2**64, 2**128 + 7, 2**160 + 3]


def numpy_generator(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed,
                                                                      spawn_key=key)))


def some_draws(rng):
    # the int32 draw leaves half of a uint64 buffered in the bit generator
    return (rng.integers(0, 7, size=3, dtype=np.int32).tolist(),
            rng.multinomial(50, [0.2, 0.3, 0.5]).tolist(),
            rng.integers(0, 2**40, size=2, dtype=np.int64).tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_match_numpy_seedsequence(seed):
    # substream (seed, key) is numpy's SeedSequence child with that spawn key,
    # so saved seeds keep reproducing their draws
    for key in ((), (0,), (1,), (2,), (999,), (4, 1), (2**32 + 3,)):
        rng, ref = substream(seed, *key), numpy_generator(seed, *key)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert some_draws(rng) == some_draws(ref)
        assert rng.bit_generator.state == ref.bit_generator.state
    # distinct keys give distinct streams
    assert len({substream(seed, b).bit_generator.state["state"]["state"] for b in range(50)}) == 50


def test_substreams_cross_a_chunk_boundary():
    # keys past 4096, as a long simulation's replicates reach, stay numpy's
    # children and stay distinct
    for b in (0, 4095, 4096, 4099):
        assert substream(3, b).bit_generator.state == numpy_generator(3, b).bit_generator.state
    keys = range(4090, 4110)
    assert len({substream(3, b).bit_generator.state["state"]["state"] for b in keys}) == len(keys)


def test_substreams_checks_its_inputs_before_drawing():
    with pytest.raises(StructuralError, match="seed must be a non-negative integer, got -1"):
        substream(-1, 5)
    with pytest.raises(StructuralError, match="got -3"):
        check_seed(-3)
    assert check_seed(np.int64(12)) == 12 and type(check_seed(np.int64(12))) is int
    assert check_seed("7") == 7 and check_seed(2**70) == 2**70
