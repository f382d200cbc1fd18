"""Exact mixed-equilibrium solver for one-shot zero-sum matrix games.

The row player picks row ``u`` and maximizes, the column player picks ``v``
and minimizes; the row player receives ``R[u, v]``. The minimax value and a
pair of optimal mixed strategies are computed by a small dense simplex on
the classic reciprocal-value linear program: after mapping ``R`` affinely
onto entries in [1, 2), ``A = (R - min R) / 2**e + 1`` with ``2**e`` the
least power of two above the payoff range, maximize ``sum(q)`` subject to
``A q <= 1``; the optimal objective is ``1/value`` and the two strategies
fall out of the primal and dual solutions of the same tableau. The map
makes the absolute pivot tolerance mean the same at every payoff scale,
and its power-of-two factor scales without rounding; the value maps back
by ``(v - 1) * 2**e + min R``.

``solve_many`` runs one simplex over a stack of equally shaped games: each
pivot step is a handful of array operations over every game still pivoting,
and a game drops out once it is optimal. ``solve`` is its one-game wrapper.
Bland's rule keeps the pivot sequence deterministic and cycle-free, so
degenerate games terminate and repeated calls return the identical vertex;
a game's pivots, and so its result, do not depend on the rest of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10


class UnboundedProgram(RuntimeError):
    """The simplex found no leaving row: the tableau lost its positivity."""


@dataclass(frozen=True)
class MatrixGameSolution:
    value: float
    row_strategy: np.ndarray
    col_strategy: np.ndarray


def solve(R: np.ndarray) -> MatrixGameSolution:
    """Minimax value and optimal mixed strategies of the matrix game R."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2:
        raise ValueError(f"payoff matrix must be 2-D and nonempty, got shape {R.shape}")
    values, rows, cols = solve_many(R[None])
    return MatrixGameSolution(
        value=float(values[0]), row_strategy=rows[0], col_strategy=cols[0]
    )


def solve_many(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimax values and optimal mixed strategies of a stack of matrix games.

    ``R`` has shape ``(k, m, n)``; game ``g`` is ``R[g]``. Returns the
    values ``(k,)``, the row strategies ``(k, m)`` and the column strategies
    ``(k, n)``, all read-only. A game's result, bit for bit, does not
    depend on the other games in the stack.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 3 or R.shape[1] == 0 or R.shape[2] == 0:
        raise ValueError(
            f"payoff stack must be 3-D with nonempty games, got shape {R.shape}"
        )
    if not np.isfinite(R).all():
        raise ValueError("payoff matrix has non-finite entries")
    lo = R.min(axis=(1, 2))
    with np.errstate(over="ignore"):
        span = R.max(axis=(1, 2)) - lo
    if not np.isfinite(span).all():
        bad = int(np.argmin(np.isfinite(span)))
        raise ValueError(f"game {bad}: payoff range overflows a float")

    _, e = np.frexp(span)  # span < 2**e; a constant game has e == 0
    A = np.ldexp(R - lo[:, None, None], -e[:, None, None]) + 1.0
    obj, q, p = _simplex_max_ones(A)
    v_scaled = 1.0 / obj
    col = np.maximum(q, 0.0) * v_scaled[:, None]
    row = np.maximum(p, 0.0) * v_scaled[:, None]
    col /= col.sum(axis=1, keepdims=True)
    row /= row.sum(axis=1, keepdims=True)
    values = np.ldexp(v_scaled - 1.0, e) + lo
    for a in (values, row, col):
        a.setflags(write=False)
    return values, row, col


def _simplex_max_ones(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize sum(q) s.t. A[g] q <= 1, q >= 0 for every game g of the stack.

    Every entry of ``A`` (shape ``(k, m, n)``) is positive. Returns the
    objectives ``(k,)``, primal ``q`` ``(k, n)`` and dual ``p`` ``(k, m)``.
    The origin is feasible and the positive matrix makes each program
    bounded, so a single simplex phase suffices. Variables 0..n-1 are q,
    n..n+m-1 the slacks; the dual vector is read off the reduced costs of
    the slack columns at optimality.
    """
    k, m, n = A.shape
    w = n + m
    T = np.zeros((k, m + 1, w + 1))
    T[:, :m, :n] = A
    T[:, :m, n:w] = np.eye(m)
    T[:, :m, -1] = 1.0
    T[:, m, :n] = 1.0  # reduced costs of the maximization objective
    basis = np.tile(np.arange(n, w), (k, 1))
    obj = np.empty(k)
    q = np.zeros((k, n))
    p = np.empty((k, m))
    live = np.arange(k)  # original index of each game still in T
    g = np.arange(k)

    while True:
        eligible = T[:, m, :w] > PIVOT_TOL
        done = ~eligible.any(axis=1)
        if done.any():
            Td, bd, gd = T[done], basis[done], live[done]
            obj[gd] = -Td[:, m, -1]
            p[gd] = -Td[:, m, n:w]
            gi, ri = np.nonzero(bd < n)
            q[gd[gi], bd[gi, ri]] = Td[gi, ri, -1]
            keep = ~done
            T, basis, live, eligible = T[keep], basis[keep], live[keep], eligible[keep]
            g = np.arange(live.size)
        if not live.size:
            return obj, q, p
        enter = eligible.argmax(axis=1)  # Bland: lowest eligible index enters
        fac = T[g, :, enter]  # entering column, objective row included
        col = fac[:, :m]
        ok = col > PIVOT_TOL
        ratio = np.divide(T[:, :m, -1], col, out=np.full(col.shape, np.inf), where=ok)
        # Bland: among rows with the minimum ratio the smallest basic index leaves.
        tied = ratio == ratio.min(axis=1, keepdims=True)
        leave = np.where(tied, basis, w).argmin(axis=1)
        if not ok[g, leave].all():
            raise UnboundedProgram("simplex detected an unbounded program")
        prow = T[g, leave] / col[g, leave][:, None]
        # The tableau never holds a -0.0, so a row whose entering entry is 0
        # comes out of this update bit for bit unchanged; the pivot row's
        # result is overwritten.
        T -= fac[:, :, None] * prow[:, None, :]
        T[g, leave] = prow
        basis[g, leave] = enter
