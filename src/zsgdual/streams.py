"""Scenario streams: one counter-based random stream per Monte Carlo scenario.

Scenario ``i`` of an estimate under ``seed`` reads the stream
``scenario_rng(seed, i)``: numpy's Philox4x64-10 generator keyed by the two
64-bit words ``(seed, i)``. That function is the specification. Philox is
counter-based (Salmon, Moraes, Dror & Shaw 2011, *Parallel random numbers:
as easy as 1, 2, 3*): each block of four outputs is a fixed function of the
key and a counter, distinct keys give independent streams, and any block of
any stream can be computed directly. The estimators draw a whole block of
streams at once: ``uniforms`` runs the Philox rounds as uint64 array
arithmetic over every (stream, counter) pair, each round's two multiplies as
one stacked array, and its doubles are byte-equal to
``scenario_rng(seed, i).random(k)``.
"""

from __future__ import annotations

import numpy as np

from .games import _integer


def check_seed(seed: int) -> int:
    """``seed`` as an int: a key word, an integer in ``[0, 2**64)``; else
    ValueError."""
    return _integer(seed, "seed", 0, 2**64)


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for scenario ``index`` under ``seed``:
    the specification that ``uniforms`` reproduces."""
    # A list key would pass through float64 at 2**63 and up and lose bits.
    key = np.array([check_seed(seed), _integer(index, "scenario index", 0, 2**64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# The Philox4x64-10 multipliers and key increments, as Python ints: NumPy
# scalar arithmetic would warn on the wraparound that array arithmetic does
# silently.
_MASK32 = 0xFFFFFFFF
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
# Multipliers, their 32-bit halves and key increments, stacked per product.
_ROUND_CONSTANTS = np.array(
    [_PHILOX_M, [m & _MASK32 for m in _PHILOX_M], [m >> 32 for m in _PHILOX_M], _PHILOX_W],
    dtype=np.uint64,
)[:, :, None, None]
_PHILOX_CHUNK = 8192


def uniforms(seed: int, index: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms ``start`` to ``start + count - 1`` of the streams
    ``scenario_rng(seed, i)``, one row per scenario ``i`` of ``index``.

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
    out = np.empty((len(index), count))
    if not out.size:
        return out
    first = start // 4
    blocks = -(-(start + count) // 4) - first
    skip = start % 4
    products = [divmod(_PHILOX_M[0] * i, 2**64) for i in range(first + 1, first + blocks + 1)]
    hi0, lo0 = np.array(products, dtype=np.uint64).T
    step = max(1, _PHILOX_CHUNK // blocks)
    # Full-size constants: a broadcast operand takes numpy's slower loops.
    buffers = np.empty((12, 2, min(step, len(index)), blocks), dtype=np.uint64)
    buffers[8:] = _ROUND_CONSTANTS
    for row in range(0, len(index), step):
        m = min(step, len(index) - row)
        c, d, hi, b_lo, b_hi, t, u, key, M, M_lo, M_hi, W = buffers[:, :, :m]
        key[0], key[1] = seed, index[row : row + m, None]
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
