"""Deterministic RNG substreams.

Every stochastic routine takes a master seed and derives its generators as
substreams ``SeedSequence(entropy=master_seed, spawn_key=(stream,...))``:
one per simulation replicate, and one per arm or cluster pool for the B
draws of a least-favorable bootstrap.  Results are therefore reproducible
from ``(seed, config)`` alone.
"""

import numpy as np

from .errors import StructuralError


def check_seed(seed) -> int:
    """``seed`` as an int; a negative seed is an input error."""
    seed = int(seed)
    if seed < 0:
        raise StructuralError(f"seed must be a non-negative integer, got {seed}")
    return seed


def substream(master_seed: int, *stream: int) -> np.random.Generator:
    """Generator for substream ``stream`` of ``master_seed`` (PCG64)."""
    seq = np.random.SeedSequence(entropy=check_seed(master_seed),
                                 spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.PCG64(seq))
