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

A completely mixed game has one equilibrium, which equalizes the
opponent's payoffs (Kaplansky 1945; Shapley and Snow 1950). ``solve_mixed``
finds it for a whole stack in one linear solve, and sends ``solve_many`` only
the games whose answer fails its test, or the whole stack when the solve
fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-10
GAP_ULPS = 4  # per action, the stage gap ``solve_mixed`` accepts, in ulps of max |R|


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
    R, lo, e, S = _shifted(R)
    obj, q, p = _simplex_max_ones(S + 1.0)
    v_scaled = 1.0 / obj
    col = np.maximum(q, 0.0) * v_scaled[:, None]
    row = np.maximum(p, 0.0) * v_scaled[:, None]
    col /= col.sum(axis=1, keepdims=True)
    row /= row.sum(axis=1, keepdims=True)
    values = np.ldexp(v_scaled - 1.0, e) + lo
    for a in (values, row, col):
        a.setflags(write=False)
    return values, row, col


def solve_mixed(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``solve_many``'s values and strategies, and each game's
    ``exploitability``, where an ``equalizable`` stack's completely mixed
    games take their equilibria from their equalizing systems.

    With ``S = (R - min R) / 2**e`` as the simplex scales it, the column
    strategy ``z`` and value ``w`` solve ``[S, -1; 1^T, 0] (z, w) = (0, 1)``
    and the row strategy the transposed system: one batched solve of shape
    ``(k, 2, A+1, A+1)``. A game takes this answer when both strategies are
    non-negative and its gap is at most ``GAP_ULPS * A`` ulps of ``max |R|``,
    the rounding of its length-``A`` sums; the other games share one
    ``solve_many`` call. A stack whose batched solve fails, as one singular
    system makes it, goes to ``solve_many`` whole.
    """
    R = np.asarray(R, dtype=float)
    solved = _equalizing(R) if equalizable(R.shape) else None
    if solved is not None:
        x, lo, e = solved
        n = R.shape[2]
        with np.errstate(all="ignore"):  # a near-singular system may overflow
            p = x[:, :, :n] / x[:, :, :n].sum(axis=2, keepdims=True)
            values, rows, cols = np.ldexp(x[:, 0, n], e) + lo, p[:, 1], p[:, 0]
            gaps = exploitability(R, rows, cols)
            bound = GAP_ULPS * n * np.finfo(float).eps * np.abs(R).max(axis=(1, 2))
            refused = ~((p >= 0.0).all(axis=(1, 2)) & (gaps <= bound)
                        & (bound >= np.finfo(float).tiny))
    if solved is None or refused.all():
        values, rows, cols = solve_many(R)
        return values, rows, cols, exploitability(R, rows, cols)
    if refused.any():
        values[refused], rows[refused], cols[refused] = solve_many(R[refused])
        gaps[refused] = exploitability(R[refused], rows[refused], cols[refused])
    for a in (values, rows, cols):
        a.setflags(write=False)
    return values, rows, cols, gaps


def _equalizing(R: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The solutions ``(k, 2, A+1)`` of ``solve_mixed``'s equalizing systems
    and ``_shifted``'s ``lo`` and ``e``; None when the batched solve fails,
    which one singular system makes it do."""
    R, lo, e, S = _shifted(R)
    k, n = S.shape[:2]
    M = np.zeros((k, 2, n + 1, n + 1))
    M[:, 0, :n, :n], M[:, 1, :n, :n] = S, S.transpose(0, 2, 1)
    M[:, :, :n, n], M[:, :, n, :n] = -1.0, 1.0
    rhs = np.eye(n + 1)[:, n:]
    try:
        return np.linalg.solve(M, rhs)[..., 0], lo, e
    except np.linalg.LinAlgError:
        return None


def equalizable(shape: tuple[int, ...]) -> bool:
    """Whether ``solve_mixed`` tries a stack of this shape: square, 2x2 or more."""
    return len(shape) == 3 and shape[1] == shape[2] >= 2


def exploitability(R: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stage gap ``max(R z) - min(y R)`` of each game's pair: 0 at an equilibrium."""
    return (np.einsum("iuv,iv->iu", R, cols).max(axis=1)
            - np.einsum("iu,iuv->iv", rows, R).min(axis=1))


def _shifted(R) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The checked stack ``R``, each game's least entry ``lo`` and exponent
    ``e``, and ``S = (R - lo) / 2**e`` in [0, 1): the simplex's entries less 1."""
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
    return R, lo, e, np.ldexp(R - lo[:, None, None], -e[:, None, None])


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
