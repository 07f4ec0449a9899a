import numpy as np
import pytest

from mechtest.errors import StructuralError
from mechtest.rng import integers_from_raw, substream, substreams

# one to six 32-bit words; five and six words run SeedSequence's tail loop
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**32 + 5, 2**63 + 11, 2**64, 2**128 + 7, 2**160 + 3]


def numpy_state(seed, b):
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(b,))).state


def some_draws(rng):
    # the int32 draw leaves half of a uint64 buffered in the bit generator
    return (rng.integers(0, 7, size=3, dtype=np.int32).tolist(),
            rng.multinomial(50, [0.2, 0.3, 0.5]).tolist(),
            rng.integers(0, 2**40, size=2, dtype=np.int64).tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_match_numpy_seedsequence(seed):
    for n in (0, 1, 999):
        assert [rng.bit_generator.state for rng in substreams(seed, n)] == [
            numpy_state(seed, b) for b in range(n)]
    # each yielded generator draws as a fresh substream(seed, b) does, also
    # after the previous one was left with a buffered uint32
    buffered = 0
    for b, rng in enumerate(substreams(seed, 8)):
        ref = substream(seed, b)
        assert some_draws(rng) == some_draws(ref)
        assert rng.bit_generator.state == ref.bit_generator.state
        buffered += rng.bit_generator.state["has_uint32"]
    assert buffered > 0


def test_substreams_cross_a_chunk_boundary():
    seen = {b: rng.bit_generator.state for b, rng in enumerate(substreams(3, 4100))
            if b in (0, 4095, 4096, 4099)}
    assert seen == {b: numpy_state(3, b) for b in seen}


def test_substreams_checks_its_inputs_before_drawing():
    with pytest.raises(StructuralError, match="seed must be a non-negative integer, got -1"):
        substreams(-1, 5)
    for n in (-1, 2**32 + 1):
        with pytest.raises(StructuralError, match="number of substreams"):
            substreams(0, n)
    # the largest count is accepted and seeds lazily
    first = next(substreams(0, 2**32))
    assert first.bit_generator.state == numpy_state(0, 0)


def numpy_pools(seed, b, sizes):
    rng = substream(seed, b)
    return np.concatenate([rng.integers(0, n, n) for n in sizes])


@pytest.mark.parametrize("seed, sizes", [
    (0, [1, 5, 1, 8]),            # pools of one before, between and after others
    (1, [7, 1]),
    (2, [1]),
    (3, [1, 1]),
    (4, [3, 4]),                  # odd then even: the high half of a word opens the next pool
    (5, [5, 7, 2, 9]),
    (2**64 + 7, [99, 101]),       # a multi-word seed
    (2**160 + 3, [1, 13, 6, 1]),
])
def test_integers_from_raw_match_generator_integers(seed, sizes):
    picks, exact = integers_from_raw(substreams(seed, 300), sizes)
    assert picks.dtype == np.int64 and picks.shape == (300, sum(sizes))
    assert exact.all()
    for b in range(300):
        assert picks[b].tolist() == numpy_pools(seed, b, sizes).tolist()


def test_integers_from_raw_cross_a_chunk_boundary():
    picks, exact = integers_from_raw(substreams(11, 4100), [3, 1, 6])
    assert exact.all()
    for b in (0, 4095, 4096, 4099):
        assert picks[b].tolist() == numpy_pools(11, b, [3, 1, 6]).tolist()


def test_integers_from_raw_flag_the_rows_numpy_draws_again():
    # 2**32 mod 70001 = 55941: about one pick in 77 000 falls in numpy's rejection zone
    sizes = [4, 70_001]
    picks, exact = integers_from_raw(substreams(9, 12), sizes)
    assert 0 < (~exact).sum() < 12
    for b in range(12):
        assert np.array_equal(picks[b], numpy_pools(9, b, sizes)) == exact[b]
    assert ((picks >= 0) & (picks < np.repeat(sizes, sizes))).all()


def test_integers_from_raw_take_no_streams_or_no_pools():
    picks, exact = integers_from_raw(substreams(0, 0), [3, 4])
    assert picks.shape == (0, 7) and exact.shape == (0,)
    picks, exact = integers_from_raw(substreams(0, 2), [])
    assert picks.shape == (2, 0) and exact.tolist() == [True, True]
