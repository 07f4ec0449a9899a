"""Deterministic RNG substreams.

Every stochastic routine takes a master seed and derives one independent
substream per unit of work (bootstrap draw, simulation replicate) as
``SeedSequence(entropy=master_seed, spawn_key=(stream,...))``.  Results are
therefore reproducible from ``(seed, config)`` alone and independent of
execution order, so parallel evaluation cannot change them.

The B draws of the least-favorable bootstrap take their generators from
:func:`substreams`, which seeds all of them in one array pass.  It
starts from the pool of ``SeedSequence(seed)``, which has mixed in the seed,
and reproduces the rest of numpy's ``SeedSequence`` -> ``PCG64`` seeding
(NEP 19; O'Neill 2015) exactly, so draw b sees the same stream as
``substream(seed, b)``;
``tests/test_rng.py`` pins the two against each other.

Cluster draws need only bounded integers, so they skip the ``Generator``:
:func:`integers_from_raw` reads each substream's raw PCG64 words and maps
them as ``Generator.integers`` does (Lemire 2019: 32-bit halves, low half
first, ``(u n) >> 32``).  A row where numpy may have rejected a half and
drawn again is flagged, so the caller redraws it with the generator
itself; ``tests/test_rng.py`` pins the mapping against numpy.
"""

import numpy as np

from .errors import StructuralError

# numpy's SeedSequence: pool size in 32-bit words and the hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_CHUNK = 4096  # streams seeded per array pass
_WORD = 1 << 32


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


def _hashmix(value, h, mult):
    """SeedSequence's ``hashmix`` of ``value`` (an int or a uint32 array)
    under hash constant ``h``; returns the result and the next constant."""
    nxt = h * mult & _MASK32
    value = (value ^ h) * nxt & _MASK32
    return value ^ value >> 16, nxt


def _mix(x, y):
    """SeedSequence's ``mix`` of pool word ``x`` with ``y``."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ value >> 16


def substreams(master_seed: int, n: int):
    """Generators of substreams ``(master_seed, b)`` for b = 0 .. n-1, in order.

    Each yields exactly the stream of ``substream(master_seed, b)``.  One
    ``Generator`` is reused: a yielded generator is valid only until the
    next one is drawn.  The seed and ``n`` are checked before anything is
    drawn.
    """
    master_seed, n = check_seed(master_seed), int(n)
    if not 0 <= n <= 1 << 32:  # a spawn key of one 32-bit word
        raise StructuralError(f"number of substreams must lie in [0, 2**32], got {n}")
    # every stream shares SeedSequence's pool with the seed words mixed in, and the
    # hash constant after the 16 + 4 max(0, words - 4) hashmix calls of that mixing
    words = -(-master_seed.bit_length() // 32)
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    h = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - _POOL), 1 << 32) & _MASK32
    return _seeded(pool, h, n)


def _seeded(pool, h, n):
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for start in range(0, n, _CHUNK):
        # mix in the spawn key b, then generate_state(4, uint64), as uint32 arrays
        key = np.arange(start, min(start + _CHUNK, n)).astype(np.uint32)
        mixed, hk = [], h
        for word in pool:
            value, hk = _hashmix(key, hk, _MULT_A)
            mixed.append(_mix(word, value))
        state, hb = [], _INIT_B
        for i in range(2 * _POOL):
            value, hb = _hashmix(mixed[i % _POOL], hb, _MULT_B)
            state.append(value.astype(np.uint64))
        # little-endian uint64 words: (initstate high, low, initseq high, low)
        halves = [(state[2 * i] | state[2 * i + 1] << 32).tolist() for i in range(_POOL)]
        for s_hi, s_lo, q_hi, q_lo in zip(*halves):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128,
                          "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield generator


def integers_from_raw(generators, sizes):
    """``generator.integers(0, n, n)`` for each n of ``sizes`` in turn, for
    every generator of ``generators``, from its raw 64-bit words.

    Each generator must hold no buffered half-word, as :func:`substreams`
    yields them; its stream is advanced.  Every n lies in [1, 2**32].
    Returns ``(picks, exact)``: row r of the int64 array ``picks`` holds the
    pools' picks side by side, and ``exact[r]`` is False when some half u
    of row r has ``u n mod 2**32`` below numpy's threshold ``2**32 mod n``,
    where numpy rejects u and draws again, so that row differs from numpy's.

    numpy maps each 32-bit half u, low half of a word first, to
    ``(u n) >> 32``; the half left over by one pool opens the next, and a
    pool of one reads no half.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ones = (sizes == 1).astype(np.int64)
    halves = int(sizes.sum() - ones.sum())
    raw = [g.bit_generator.random_raw(halves // 2 + 1) for g in generators]
    u = np.array(raw, dtype="<u8").reshape(len(raw), halves // 2 + 1).view("<u4")
    # a pick reads the half at its column less the pools of one before it; a pool of
    # one reads the next half unused, since (u * 1) >> 32 = 0 and 2**32 mod 1 = 0
    col = np.arange(sizes.sum()) - np.repeat(np.cumsum(ones) - ones, sizes)
    scaled = u[:, col] * np.repeat(sizes.astype(np.uint64), sizes)
    exact = ~((scaled & _MASK32) < np.repeat(_WORD % sizes, sizes).astype(np.uint64)).any(axis=1)
    return (scaled >> 32).view(np.int64), exact
