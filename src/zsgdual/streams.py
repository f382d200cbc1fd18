"""Scenario streams: one counter-based random stream per Monte Carlo scenario.

Scenario ``i`` of an estimate under ``seed`` reads the stream
``scenario_rng(seed, i)``: numpy's Philox4x64-10 generator keyed by
``SeedSequence(entropy=(seed, i))``. That function is the specification.
The estimators draw a whole block of streams at once instead: ``stream_keys``
runs SeedSequence's hash mixing as uint32 array arithmetic over the block's
indices, and ``uniforms`` runs the Philox rounds as uint64 array arithmetic
over every (stream, counter) pair, each round's two multiplies as one stacked
array. Their doubles are byte-equal to ``scenario_rng(seed, i).random(k)``;
a row that the vectorized mixing does not cover (an index of 2**32 or more,
a seed that is not an integer) takes its key from SeedSequence itself.

Philox is counter-based (Salmon, Moraes, Dror & Shaw 2011, *Parallel random
numbers: as easy as 1, 2, 3*): each block of four outputs is a fixed
function of the key and a counter, so any block of any stream can be
computed directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for scenario ``index`` under ``seed``:
    the specification that ``stream_keys`` and ``uniforms`` reproduce."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, index)))
    )


# NumPy's SeedSequence hash constants (pool size 4) and the Philox4x64-10
# multipliers and key increments, as Python ints: NumPy scalar arithmetic
# would warn on the wraparound that array arithmetic does silently.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Multipliers, their 32-bit halves and key increments, stacked per product.
_ROUND_CONSTANTS = np.array(
    [_PHILOX_M, [m & _MASK32 for m in _PHILOX_M], [m >> 32 for m in _PHILOX_M], _PHILOX_W],
    dtype=np.uint64,
)[:, :, None, None]
_PHILOX_CHUNK = 8192


def stream_keys(seed: int, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys ``(k0, k1)`` of ``scenario_rng(seed, i)`` for each ``i``.

    The entropy of a row is the seed's 32-bit words, least significant
    first, then the index word. A row whose index needs a second word, and
    every row of a seed that is not an integer, takes its key from
    SeedSequence itself.
    """
    # Raises what scenario_rng raises on a negative or non-integer seed.
    np.random.SeedSequence(entropy=(seed, 0))
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if isinstance(seed, (int, np.integer)):
        s = int(seed)
        n_words = max(1, -(-s.bit_length() // 32))
        entropy = [np.full(len(idx), (s >> 32 * i) & _MASK32, dtype=np.uint32)
                   for i in range(n_words)]
        k0, k1 = _seed_sequence_keys(entropy + [idx.astype(np.uint32)])
        wide = np.flatnonzero(idx > _MASK32)
    else:
        k0, k1 = np.empty((2, len(idx)), dtype=np.uint64)
        wide = np.arange(len(idx))
    for r in wide:
        seq = np.random.SeedSequence(entropy=(seed, int(idx[r])))
        k0[r], k1[r] = seq.generate_state(2, np.uint64)
    return k0, k1


def _seed_sequence_keys(entropy: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``SeedSequence(entropy).generate_state(2, np.uint64)`` for every row
    of the uint32 word arrays ``entropy``: the hash mixing into a pool of 4
    words (a second loop folds in words past the fourth), then 4 hashed
    pool words, paired little-endian."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * _MIX_L - y * _MIX_R
        return r ^ (r >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _INIT_B
    words = []
    for value in pool:
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * hash_const
        words.append((value ^ (value >> 16)).astype(np.uint64))
    return words[0] | (words[1] << 32), words[2] | (words[3] << 32)


def uniforms(k0: np.ndarray, k1: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms ``start`` to ``start + count - 1`` of the Philox4x64-10
    streams keyed ``(k0, k1)``, one row per stream.

    As NumPy's Philox draws them: uniform ``j`` is word ``j % 4`` of the
    block at counter ``(j // 4 + 1, 0, 0, 0)`` (the counter is bumped before
    the first block), and the double is ``(word >> 11) * 2**-53``. Round 1
    sees only the counters, the same in every row, and takes Python's exact
    products. Each later round multiplies ``(c0, c2)`` by ``(M0, M1)`` as one
    stacked array, in buffers reused from round to round: ``(c0, c2)``
    becomes ``(hi ^ (c3, c1))[::-1] ^ key`` and ``(c3, c1)`` becomes ``lo``.
    Rows are computed ``_PHILOX_CHUNK`` counters at a time, which keeps the
    buffers in cache.
    """
    out = np.empty((len(k0), count))
    if not out.size:
        return out
    first = start // 4
    blocks = -(-(start + count) // 4) - first
    skip = start % 4
    products = [divmod(_PHILOX_M[0] * i, 2**64) for i in range(first + 1, first + blocks + 1)]
    hi0, lo0 = np.array(products, dtype=np.uint64).T
    step = max(1, _PHILOX_CHUNK // blocks)
    # Full-size constants: a broadcast operand takes numpy's slower loops.
    buffers = np.empty((12, 2, min(step, len(k0)), blocks), dtype=np.uint64)
    buffers[8:] = _ROUND_CONSTANTS
    for row in range(0, len(k0), step):
        m = min(step, len(k0) - row)
        c, d, hi, b_lo, b_hi, t, u, key, M, M_lo, M_hi, W = buffers[:, :, :m]
        key[0], key[1] = k0[row : row + m, None], k1[row : row + m, None]
        # After round 1, (c0, c2) = (key0, hi0 ^ key1) and (c3, c1) = (lo0, 0).
        c[0] = key[0]
        np.bitwise_xor(hi0, key[1], out=c[1])
        d[0], d[1] = lo0, 0
        for _ in range(_PHILOX_ROUNDS - 1):
            key += W
            # hi = the high words of M * c, from 32-bit halves; then d = lo.
            np.bitwise_and(c, _MASK32, out=b_lo)
            np.right_shift(c, 32, out=b_hi)
            np.multiply(b_lo, M_lo, out=t)
            t >>= 32
            np.multiply(b_hi, M_lo, out=u)
            u += t
            np.bitwise_and(u, _MASK32, out=t)
            np.multiply(b_lo, M_hi, out=b_lo)
            b_lo += t
            np.multiply(b_hi, M_hi, out=hi)
            u >>= 32
            hi += u
            b_lo >>= 32
            hi += b_lo
            hi ^= d
            np.multiply(c, M, out=d)
            np.bitwise_xor(hi[::-1], key, out=c)
        words = np.stack([c[0], d[1], c[1], d[0]], axis=-1).reshape(m, 4 * blocks)
        words >>= 11
        np.multiply(words[:, skip : skip + count], 2.0**-53, out=out[row : row + m])
    return out
