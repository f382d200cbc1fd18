"""Information-relaxation dual bounds for one-player views of a game.

Fixing one player turns the other player's best-response problem into an
MDP whose optimal value can be bounded from the optimistic side by letting
the decision maker see the whole random scenario up front and charging a
penalty for using that knowledge. Penalties are built from a generating
value-function guess ``h``: each period contributes the expected minus the
realized value of ``h`` at the next state, which has zero mean under any
non-clairvoyant policy, so the relaxed optimum still bounds the true one.
With ``h`` equal to the view's exact value function the bound is tight
scenario by scenario (zero variance).

Two regimes are supported. Time-embedded finite-horizon views consume one
uniform per period; the per-scenario inner problem is a deterministic
backward induction under the canonical coupling (one shared uniform drives
the inverse-CDF transition of every action). So every next state of a
period is a step function of its uniform, and a block of scenarios takes
them all from one merge of the period's CDF values into its sorted
uniforms (``_FiniteInner``). The CDF values come from the view's period
layout (``MdpView.periods``), which is built once per view and shared by
every generator ``h``, the enumeration oracle and ``solvers.solve_view``;
only the action values ``lookahead(view, h)`` are per ``h``.
Absorbing-state views sample
scenario paths from an action-independent reference kernel ``q`` instead,
and per-step likelihood ratios p/q re-weight the inner recursion. A ratio
depends only on the step's transition ``x -> y`` and the action, and most
are 0, so one table per draw holds, for every pair and transition, the
nonzero ratios with their action values and one entry for all the rest;
one backward walk over the draw's windows of steps serves every pair and
multiplies no zero ratio, so an overflowed continuation never meets 0 * inf
(``_Walk``).
Both inner problems read their action values from ``games.lookahead``, the
expression whose fixed point ``solvers.solve_view`` returns, and optimize
them by the view's ``MdpView.optimizer``, as ``solve_view`` does, so an
exact-value generator cancels the continuation scenario by scenario and the
estimate has zero variance.

Estimates are bitwise reproducible: scenario ``i`` draws from the Philox
stream keyed by the two words ``(seed, i)``, ``scenario_rng(seed, i)``, and
a seed is an integer in ``[0, 2**64)``, checked before any draw. A block of
streams is drawn at once, with the Philox4x64-10 rounds run as array
arithmetic over the block's rows (``streams.uniforms``); the doubles are
byte-equal to ``scenario_rng``'s. Scenarios are evaluated in
fixed-size blocks of consecutive indices (``_BLOCK`` = 512 finite scenarios,
``_PATH_BLOCK`` = 8,192 reference paths), each scenario one row of the
block's arrays, and every row goes through the same elementwise operations
a one-scenario evaluation would; values are reduced in index order. So no
per-scenario value depends on the block size or on how many scenarios a run
draws: the first ``k`` values of a run equal those of a ``k``-scenario run.
``estimate_dual_bounds`` draws each block once for every ``(view, h)`` pair
that shares the seed (and, for reference paths, ``q`` and the start), and
each of its estimates is bit for bit the one a separate call returns.

A reference path is drawn only up to its first *stop*: a transition
``x -> y`` of ``q`` that no action of the view can make (``MdpView.moves``,
the one move predicate here). Every likelihood ratio of that step is 0, so
its value is ``opt(lookahead(view, h)[x] + 0.0)`` whatever path follows.
The inner recursion starts from a zero continuation after a path's last
drawn step, so a stopped path has, bit for bit, the value of the same path
drawn on to absorption. Pairs that share a draw stop only where every one
of them stops.

Each step of a path is an inverse-CDF draw from its row of ``q``, found by
a guide table built once per ``ReferenceMeasure`` (``_GuideTable``): the
uniform, scaled exactly by a power of two B >= the number of states, picks
a bucket, a table holds how many of the row's CDF values lie at or below
the bucket's lower edge, and only the K or fewer values inside the bucket
are compared. A CDF never decreases, so the index is bit for bit the one a
scan of the row returns. Paths are drawn a window of steps at a time
(``_draw_paths``); when every non-absorbing row of ``q`` is the same, as
under ``make_uniform_reference``, a next state does not depend on the state,
and one search draws the whole window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import inf, sqrt
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .games import (
    GameModel,
    MdpView,
    Ssp,
    _integer,
    absorbing_reachable,
    last_rise,
    lookahead,
)
# scenario_rng stays importable from here: it is public as duality.scenario_rng.
from .streams import check_seed, scenario_rng, uniforms

DEFAULT_PATH_CAP = 10**6
DEFAULT_CELL_BUDGET = 10**6

# Scenarios evaluated together, as the rows of one block of arrays; no result
# depends on either size. A finite block holds a (block, states) value array
# per inner problem. A path block stores every step of its paths, about 2 B
# per path-step on waste N=10, and steps until its longest path absorbs: one
# block per estimate walks the long tail of path lengths once.
_BLOCK = 512
_PATH_BLOCK = 8192
# Uniforms drawn from the streams of all live paths at a time (``_refill``).
_CELLS = 16384


class AbsContinuityViolation(RuntimeError):
    """A true transition is possible where the reference kernel puts no mass."""


class PathCapExceeded(RuntimeError):
    """A reference-measure path was neither absorbed nor stopped within the
    step cap."""


class CellBudgetExceeded(RuntimeError):
    """Exact enumeration would need more scenario cells than allowed."""


@dataclass(frozen=True)
class DualEstimate:
    """Monte Carlo estimate of a dual bound."""

    mean: float
    standard_error: float
    n_scenarios: int
    seed: int
    per_scenario_values: np.ndarray | None = None


# ---------------------------------------------------------------------------
# The canonical coupling


# Nothing in the package calls inverse_cdf_transition or simulate_q_path; they
# stay for the path recount in perfbench/tracing.py.
def inverse_cdf_transition(row: np.ndarray, w: float) -> int:
    """Smallest destination whose cumulative probability strictly exceeds w.

    Sharing one uniform across the rows of every action implements common
    random numbers: the coupling that makes per-scenario inner problems
    well defined. ``row`` must be a distribution: finite, non-negative and
    summing to 1 within 1e-12, as the rows of a ``ReferenceMeasure``.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError(f"uniform draw {w} outside [0, 1)")
    row = np.asarray(row, dtype=float)
    if row.ndim != 1 or not np.isfinite(row).all() or not _are_distributions(row):
        raise ValueError(f"transition row {row} is not a distribution")
    cum = np.cumsum(row)
    return int(_icdf(cum, np.array([w]), last_rise(cum))[0])


def _are_distributions(rows: np.ndarray) -> bool:
    """Every row (last axis) of finite ``rows`` is non-negative and sums to
    1 within 1e-12."""
    return not ((rows < 0.0).any() or (np.abs(rows.sum(axis=-1) - 1.0) > 1e-12).any())


def _icdf(cum: np.ndarray, w: np.ndarray, last: int) -> np.ndarray:
    """Smallest index whose CDF value strictly exceeds each draw in ``w``.

    ``cum`` is one CDF shared by every draw and ``last`` its ``last_rise``;
    the right-sided search counts the entries at or below a draw, since a
    CDF never decreases. A draw at or above a final cumulative sum that fell
    short of 1 by rounding takes ``last``; every other index is at most
    ``last`` already.
    """
    return np.minimum(np.searchsorted(cum, w, side="right"), last)


class _GuideTable(NamedTuple):
    """Exact inverse-CDF search over CDF rows in O(1) expected work per
    draw: a guide table (Chen & Asau 1974; Devroye 1986, section III.2.4).

    A draw's index is a *rise* of its row (a column whose CDF value exceeds
    the one before it, or 0) or the row's ``games.last_rise``, so only the
    rise values are searched. ``scale`` B is the least power of two >= n,
    the row length. Row x's rise values times B, then +inf, fill ``cdf[x *
    W : (x + 1) * W]``; ``dest`` there holds each rise's column, then the
    ``last_rise``. ``start[x, b]`` is ``x * W`` plus the count of row x's
    rise values at or below ``b / B``, and ``cols`` is ``arange(K)`` for K
    the most rise values of a row in one bucket ``(b / B, (b + 1) / B]``.
    W is the most rises of a row plus ``max(K, 1)``.

    Exact: scaling by a power of two is exact, so draws and values compare
    scaled. For a scaled draw w in bucket ``b = floor(w)``, the values
    ``start`` counts are at or below b <= w; the values increase, and those
    above b + 1 exceed w, so at most the K values after them can be at or
    below w, and counting those completes the count a scan of the row
    makes. With every rise in one bucket, K = n: the scan itself.
    """

    scale: int
    cdf: np.ndarray
    start: np.ndarray
    cols: np.ndarray
    dest: np.ndarray

    @classmethod
    def of(cls, cum: np.ndarray) -> _GuideTable:
        m, n = cum.shape
        B = 1 << (n - 1).bit_length()
        scaled = cum * B
        rise = np.diff(scaled, axis=1, prepend=0.0) != 0.0
        # A value is at or below the integer b exactly when its ceiling is;
        # count each row's rise values by that first bucket edge, then
        # cumulate. The arithmetic is in place: these are n-by-n arrays.
        edge = np.ceil(scaled)
        np.clip(edge, 0, B + 1, out=edge)
        edge[~rise] = B + 1
        edge += (B + 2) * np.arange(m)[:, None]
        hist = np.bincount(edge.astype(np.intp).ravel(), minlength=m * (B + 2))
        at_most = np.cumsum(hist.reshape(m, B + 2)[:, : B + 1], axis=1)
        del edge, hist
        K = int(np.diff(at_most, axis=1).max(initial=0))
        at = np.cumsum(rise, axis=1)
        W = int(at[:, -1].max()) + max(K, 1)
        at += W * np.arange(m)[:, None] - 1
        at = at[rise]
        cdf = np.full(m * W, inf)
        cdf[at] = scaled[rise]
        dest = np.repeat(last_rise(cum).astype(np.min_scalar_type(n - 1)), W)
        dest[at] = np.broadcast_to(np.arange(n), (m, n))[rise]
        at_most += W * np.arange(m)[:, None]
        return cls(
            scale=B,
            cdf=cdf,
            start=at_most[:, :B].astype(np.min_scalar_type(m * W)),
            cols=np.arange(K),
            dest=dest,
        )

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """``_icdf`` of row ``x`` at ``w / B``, for draws ``w`` scaled by B,
        with ``x * B + floor(w)`` in ``intp``: a narrow state dtype wraps.
        ``x`` broadcasts against ``w``, which may have any shape."""
        f = self.start.take(x.astype(np.intp) * self.scale + w.astype(np.intp))
        f += (self.cdf.take(f[..., None] + self.cols) <= w[..., None]).sum(axis=-1, dtype=f.dtype)
        return self.dest.take(f)


def _check_generator(view: MdpView, h: np.ndarray) -> np.ndarray:
    """``h`` as a float array, checked to hold one finite value per state."""
    h = np.asarray(h, dtype=float)
    if h.shape != (view.n_states,):
        raise ValueError("generator must assign one value per state")
    if not np.isfinite(h).all():
        raise ValueError("generator values must be finite")
    return h


# ---------------------------------------------------------------------------
# Finite-horizon (time-embedded) inner problems


class _FiniteInner:
    """Per-scenario deterministic inner problems on an embedded view.

    Reads the view's period layout (``MdpView.periods``, built once per
    view, whatever ``h``) as its ``plan``, and precomputes the
    penalty-adjusted action values ``lookahead(view, h)``, sliced per
    period as ``base[t]``, shaped (slots, states, 1). A padded slot's cap
    reads a column of exact zeros in ``evaluate``, so it keeps its +-inf
    base, which opt never picks.
    """

    def __init__(self, view: MdpView, h: np.ndarray):
        if view.horizon is None or view.period is None:
            raise ValueError("finite inner problems need a time-embedded view")
        if view.root is None:
            raise ValueError("view does not designate an initial state")
        self.view = view
        self.h = _check_generator(view, h)
        self.horizon = view.horizon
        self.plan = view.periods
        base = lookahead(view, self.h)
        self.base = [base[p.states].T[:, :, None] for p in self.plan]
        self.opt = view.optimizer.opt

    def evaluate(self, scenarios: np.ndarray) -> np.ndarray:
        """Inner values of a block of scenarios, one row of uniforms each.

        Backward induction runs one period at a time over all rows, with
        ``V`` shaped (scenarios, states). A period's next states come from
        one merge of its CDF values into its sorted uniforms: ``below``
        counts the scenarios whose uniform lies strictly below each value,
        so between two of a row's values the sorted scenarios see a run of
        equal counts ``count_nonzero(cum <= w)``, and one ``repeat`` writes
        every row's ``dest`` over its runs. The action values are reduced
        in sorted order and stored back through it.
        """
        N = scenarios.shape[0]
        V = np.zeros((N, self.view.n_states))
        for t in range(self.horizon - 1, -1, -1):
            p, base = self.plan[t], self.base[t]
            order = np.argsort(scenarios[:, t], kind="stable")
            below = np.searchsorted(scenarios[order, t], p.cum, side="left")
            # Run lengths between a row's counts, with 0 before and N after:
            # the counts, then N, each less the one before it.
            R = below.shape[1]
            runs = np.empty((len(below), R + 1), dtype=np.intp)
            runs[:, :R] = below
            runs[:, R] = N
            np.subtract(runs[:, 1:], below, out=runs[:, 1:])
            # Row r of ``at`` indexes ``diff`` flat, by sorted scenario.
            at = np.repeat(p.dest, runs.ravel())
            at = at.reshape(len(below), N) + (R + 1) * np.arange(N)
            diff = np.zeros((N, R + 1))
            np.subtract(V[order[:, None], p.cols], self.h[p.cols], out=diff[:, :-1])
            values = base + diff.take(at).reshape(*base.shape[:2], N)
            V[order, p.states[:, None]] = self.opt.reduce(values, axis=0)
        return V[:, self.view.root]


def exact_dual_bound_enumeration(
    view: MdpView, h: np.ndarray, cell_budget: int = DEFAULT_CELL_BUDGET
) -> float:
    """Exact expectation of the finite inner value over all scenarios.

    The inner value is piecewise constant in each period's uniform, with
    breakpoints at the union of transition CDF values of that period's
    states and actions; integrating cell by cell over the product partition
    gives the expectation exactly. This is the sampling-free oracle the
    Monte Carlo estimator is tested against.
    """
    inner = _FiniteInner(view, h)
    edges_per_period: list[np.ndarray] = []
    n_cells = 1
    for p in inner.plan:
        # The CDFs at their rise columns take every positive value they take.
        edges = np.unique(np.concatenate([np.clip(p.cum.ravel(), 0.0, 1.0), [1.0]]))
        edges = edges[edges > 0.0]
        edges_per_period.append(np.concatenate([[0.0], edges]))
        n_cells *= len(edges)
        if n_cells > cell_budget:
            raise CellBudgetExceeded(
                f"{n_cells}+ scenario cells exceed budget {cell_budget}"
            )

    # Cells in lexicographic order (last period fastest), a block at a time.
    shape = tuple(len(e) - 1 for e in edges_per_period)
    total = 0.0
    for start in range(0, n_cells, _BLOCK):
        cells = np.unravel_index(
            np.arange(start, min(start + _BLOCK, n_cells)), shape
        )
        weight = np.ones(len(cells[0]))
        w = np.empty((len(weight), inner.horizon))
        for t, (e, k) in enumerate(zip(edges_per_period, cells)):
            lo, hi = e[k], e[k + 1]
            weight *= hi - lo
            w[:, t] = 0.5 * (lo + hi)
        # A running sum in cell order: np.sum adds pairwise, other bits.
        for term in (weight * inner.evaluate(w)).tolist():
            total += term
    return total


def estimate_dual_bound_finite(
    view: MdpView,
    h: np.ndarray,
    n_scenarios: int,
    seed: int,
    keep_values: bool = False,
) -> DualEstimate:
    """Monte Carlo dual bound on an embedded view: mean inner value over
    independently seeded scenarios. Upper bound in expectation for max
    orientation, lower bound for min.
    """
    [est] = estimate_dual_bounds([(view, h)], n_scenarios, seed, keep_values=keep_values)
    return est


# ---------------------------------------------------------------------------
# Reference measures and absorbing-state (weak form) inner problems


@dataclass(frozen=True)
class ReferenceMeasure:
    """Action-independent transition kernel used to simulate dual paths.

    ``search`` and ``iid`` are derived from the kernel once: the guide table
    of its row CDFs, which finds each step of a path in O(1) expected work
    and returns the index a scan of the whole row would (``_GuideTable``),
    and whether every non-absorbing row is bitwise the same, so that one
    search draws a whole window of i.i.d. steps (``_draw_paths``).
    """

    kernel: np.ndarray
    absorbing: int
    search: _GuideTable = field(init=False, repr=False, compare=False)
    iid: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        k = np.ascontiguousarray(self.kernel, dtype=float)
        n = k.shape[0]
        if k.shape != (n, n):
            raise ValueError("reference kernel must be square")
        a = _integer(self.absorbing, "absorbing state", 0, n)
        if not np.isfinite(k).all():
            raise ValueError("reference kernel entries must be finite")
        if not _are_distributions(k):
            raise ValueError("reference kernel rows must be distributions")
        if abs(k[a, a] - 1.0) > 1e-12:
            raise ValueError("absorbing state must self-map under q")
        if not absorbing_reachable(k, a):
            raise ValueError(
                "absorbing state unreachable under q from some state; "
                "paths would never terminate"
            )
        k.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "search", _GuideTable.of(np.cumsum(k, axis=1)))
        rows = np.delete(k, a, axis=0).view(np.uint64)
        object.__setattr__(self, "iid", bool((rows == rows[:1]).all()))


def make_uniform_reference(model: GameModel) -> ReferenceMeasure:
    """Uniform reference kernel over every state of an absorbing-state game.

    Each non-absorbing state moves to any state, itself and the absorbing
    state included, with equal probability; keeping the full support
    guarantees absolute continuity against any true kernel.
    """
    if not isinstance(model.regime, Ssp):
        raise ValueError("uniform reference measures need an absorbing-state game")
    n = model.n_states
    a = model.regime.absorbing
    k = np.full((n, n), 1.0 / n)
    k[a] = 0.0
    k[a, a] = 1.0
    return ReferenceMeasure(kernel=k, absorbing=a)


def validate_abs_continuity(
    view: MdpView, q: ReferenceMeasure
) -> list[tuple[int, int, int]]:
    """All (state, action, next) where the view moves (``MdpView.moves``)
    but q puts no mass, in index order; a q without such zeros needs no
    pass."""
    zero = q.kernel == 0.0
    if view.absorbing is not None:
        zero[view.absorbing] = False
    if not zero.any():
        return []
    x, a, y, _ = view.entries()
    bad = zero[x, y]
    x, a, y = x[bad], a[bad], y[bad]
    order = np.lexsort((y, a, x))
    return list(zip(x[order].tolist(), a[order].tolist(), y[order].tolist()))


def simulate_q_path(
    q: ReferenceMeasure, x0: int, seed: int, cap: int = DEFAULT_PATH_CAP
) -> np.ndarray:
    """One reference-measure path from x0 to absorption (inclusive)."""
    _check_start(x0, q.kernel.shape[0], q.absorbing)
    _integer(cap, "path step cap", 1)
    never = np.zeros(q.kernel.shape, dtype=bool)
    windows = _draw_paths(q, x0, check_seed(seed), np.arange(1), cap, never)
    return np.concatenate([[x0], *(path[1:, 0] for _, path, _ in windows)]).astype(int)


def _check_start(x0: int, n_states: int, absorbing: int) -> None:
    what = "path start (a non-absorbing state index)"
    if _integer(x0, what, 0, n_states) == absorbing:
        raise ValueError(f"{what} must not be the absorbing state {absorbing}")


_Windows = list[tuple[np.ndarray, np.ndarray, list[int]]]


def _refill(live: int, left: int) -> int:
    """Doubles to draw from each of ``live`` paths' streams at a time: about
    ``_CELLS`` in all, 8 to 256 per path and a multiple of 4 (Philox makes
    four doubles per counter), and none past the step cap."""
    return min(256, max(8, _CELLS // live // 4 * 4), left)


def _draw_paths(
    q: ReferenceMeasure,
    x0: int,
    seed: int,
    index: np.ndarray,
    cap: int,
    stop: np.ndarray,
) -> _Windows:
    """Reference-measure paths from x0, one per scenario ``i`` of ``index``
    under ``seed``, each ending at its first step that absorbs or whose
    transition ``(x, next)`` is a stop: a transition that no action of any
    view evaluated on the draw can make (``_SspInner.stop``), so the rest of
    the path is never drawn. Path ``i`` takes its ``t``-th uniform from its
    stream, the ``t``-th double of ``scenario_rng(seed, i)``, and its next state
    is ``q.search``'s: the index a scan of the row of ``q``'s CDF returns.
    ``cap`` bounds the steps of every path until it ends.

    Each refill is a window: one vectorized Philox call (``uniforms``)
    computes the next ``_refill`` doubles of every live path's stream,
    scaled by ``q.search``'s B, and the paths' states for them fill one
    ``(count + 1, paths)`` array. When ``q.iid``, one search over x0's row
    draws them all; otherwise each double takes one search from the states
    before it, and the fill stops after 1, 2, 4, ... doubles once no path
    goes on. A path ends at the window's first transition that does not go
    on (``goes``). The window's paths are ordered longest first, and it is
    recorded as their int32 ids, the rows of its state array (in
    ``q.search.dest``'s dtype) that some path steps from or to, and
    ``takes``: ``takes[j]`` paths, a prefix of the ids, take step ``j``
    from ``path[j]`` to ``path[j + 1]``.
    """
    search, n = q.search, q.kernel.shape[0]
    go_on = ~stop
    go_on[:, q.absorbing] = False
    go_on = go_on.ravel()

    def goes(path: np.ndarray) -> np.ndarray:
        return go_on.take(path[:-1].astype(np.intp) * n + path[1:])

    ids = np.arange(len(index), dtype=np.int32)
    x = np.full(len(index), x0, dtype=search.dest.dtype)
    windows: _Windows = []
    t = 0
    while t < cap:
        count = _refill(len(ids), cap - t)
        u = uniforms(seed, index.take(ids), t, count)
        u *= search.scale
        path = np.empty((count + 1, len(ids)), dtype=x.dtype)
        path[0] = x
        if q.iid:
            path[1:] = search(np.intp(x0), u).T
        else:
            for j in range(count):
                path[j + 1] = search(path[j], u[:, j])
                if not j & (j + 1) and j + 1 < count and not goes(path[: j + 2]).all(axis=0).any():
                    path = path[: j + 2]
                    break
        del u  # before the go table: it lowers the window's peak memory
        go = goes(path)
        # Steps a path takes in the window; count + 1 if it goes on after it.
        length = np.where(go.all(axis=0), count + 1, go.argmin(axis=0) + 1)
        order = np.argsort(-length, kind="stable")
        path, ids = path.take(order, axis=1), ids.take(order)
        # Paths that take step j, for j up to count (those that go on).
        takes = len(ids) - np.cumsum(np.bincount(length, minlength=count + 2))
        *takes, m = takes[: count + 1].tolist()
        takes = [k for k in takes if k]
        windows.append((ids, path[: len(takes) + 1], takes))
        if not m:
            return windows
        ids, x, t = ids[:m], path[count, :m], t + count
    raise PathCapExceeded(
        f"a path was neither absorbed nor stopped within {cap} steps under q"
    )


class _SspInner:
    """One ``(view, h)`` pair's weak-form inner problem, checked against
    ``q``: the action values ``lookahead(view, h) + 0.0``, which reads a
    -0.0 as +0.0 and leaves every other value as it is, the view, whose
    moving entries (``MdpView.entries``) the ratios are taken from, and the
    stop table: ``stop[x, y]`` holds when a path's step ``x -> y`` has the
    same value whatever follows it. ``_Walk`` builds one ratio table for all
    pairs on a draw.
    """

    def __init__(self, view: MdpView, h: np.ndarray, q: ReferenceMeasure):
        if not isinstance(view.regime, Ssp):
            raise ValueError("weak-form inner problems need an absorbing-state view")
        h = _check_generator(view, h)
        if q.kernel.shape[0] != view.n_states or q.absorbing != view.absorbing:
            raise ValueError(
                f"reference measure on {q.kernel.shape[0]} states absorbing at "
                f"{q.absorbing} does not match the view's {view.n_states} states "
                f"absorbing at {view.absorbing}"
            )
        bad = validate_abs_continuity(view, q)
        if bad:
            raise AbsContinuityViolation(
                f"reference measure fails absolute continuity at {len(bad)} "
                f"transitions, first (state, action, next) = {bad[0]}"
            )
        self.h, self.view = h, view
        self.base = lookahead(view, h) + 0.0
        self.opt, self.first, self.worst = view.optimizer
        # When no action slot of x, padded ones included, moves to y, every
        # rho of a step x -> y is 0, and the carry is +0.0 or -0.0. Adding
        # either to base[x], which holds no -0.0, gives base[x].
        n = view.n_states
        stop = np.ones((n, n + 1), dtype=bool)  # column n takes the entries that cannot move
        stop[np.arange(n)[:, None], np.where(view.moves, view.succ, n)] = False
        self.stop = stop[:, :n]


class _Walk:
    """Inner values of drawn paths, one array per pair, from one backward
    walk over a table built once per estimate: for pair ``p`` of ``P`` and
    step ``x -> y``, column ``x * n + y`` of ``rho`` and ``value`` holds
    ``C`` entries at rows ``c * P + p``, and the step's value is the optimum
    of ``value + rho * (continuation - h[y])`` over them.

    Entry 0 has ratio 0 and the optimum action value of the slots, padded
    ones included, that cannot move to y: what each of them adds. Entries
    ``1..K`` hold ``p(y|x,a) / q(y|x)`` and the action value of each slot
    that can, K >= 1 the most of a row, then pads of ratio 0 and value -inf
    (max) or +inf (min). A step into absorption is a path's last, so its
    entry 0 is the walk's expression at continuation 0. No entry is -0.0,
    so the optimum does not depend on their order, and it is bit for bit
    the optimum over all slots.

    A window's columns are gathered once, one ``take`` per table, and each
    serves one step. Entry 0 is never multiplied, and entries ``1..K`` only
    where their ratio is not 0, in place: a zero ratio adds exactly +0.0
    where ``0 * diff`` is NaN after an overflow. Every other NaN is the
    oracle's and is kept, as where a ratio over a subnormal ``q(y|x)`` is
    inf and meets a ``diff`` of exactly 0. Such a mass is a rise of its row
    only as the row's first mass, so a uniform of exactly 0 draws that step.
    """

    def __init__(self, inners: Sequence[_SspInner], q: ReferenceMeasure):
        n = q.kernel.shape[0]
        entries = [self._entries(inner, q) for inner in inners]
        C = 1 + max(1, *(K for *_, K in entries))
        rho = np.zeros((C, len(inners), n * n))
        value = np.zeros(rho.shape)
        for j, (inner, (const, x, a, xy, p, col, _)) in enumerate(zip(inners, entries)):
            value[0, j] = const
            value[1:, j] = inner.worst
            with np.errstate(over="ignore"):  # p / q is inf where q is subnormal
                rho[col, j, xy] = p / q.kernel.take(xy)
            value[col, j, xy] = inner.base[x, a]
        self.n, self.h = n, np.array([inner.h for inner in inners])
        self.rho, self.value = rho.reshape(-1, n * n), value.reshape(-1, n * n)
        self.opt = [inner.opt for inner in inners]

    @staticmethod
    def _entries(inner: _SspInner, q: ReferenceMeasure):
        """A pair's entry 0 of every row ``x * n + y``; the state, slot,
        row, probability and entry (1, 2, ... in slot order) of every moving
        list entry in the rows neither into nor out of absorption; the most
        entries of a row."""
        base, worst, end = inner.base, inner.worst, q.absorbing
        n, S = base.shape
        x, a, y, p = inner.view.entries()
        # A step into absorption is a path's last: its carry is rho * (0 - h).
        into = y == end
        rho = np.zeros(base.shape)
        rho[x[into], a[into]] = p[into] / q.kernel[x[into], end]
        diff = 0.0 - inner.h[end]
        carry = np.where((rho == 0.0) & (diff != 0.0), 0.0, rho * diff)
        live = ~into & (x != end)
        x, a, p = x[live], a[live], p[live]
        xy = x * n + y[live]
        # Entry c of a row is its c-th slot that can move: count each row's
        # entries slot by slot (a row lists a destination once per slot).
        col, count = np.empty(len(xy), dtype=np.intp), np.zeros(n * n, dtype=np.intp)
        for s in range(S):
            (e,) = np.nonzero(a == s)
            count[xy[e]] += 1
            col[e] = count.take(xy[e])
        # A row takes its state's optimum unless the state's first optimal
        # slot can move; those rows are reduced here.
        const = np.repeat(inner.opt.reduce(base, axis=1), n)
        hit = xy[a == inner.first(base, axis=1)[x]]
        row = np.full(n * n, -1)
        row[hit] = np.arange(len(hit))
        row = row.take(xy)
        (at,) = np.nonzero(row >= 0)
        blocked = np.zeros((len(hit), S), dtype=bool)
        blocked[row[at], a[at]] = True
        const[hit] = inner.opt.reduce(np.where(blocked, worst, base[hit // n]), axis=1)
        const[end::n] = inner.opt.reduce(carry + base, axis=1)
        return const, x, a, xy, p, col, int(col.max(initial=0))

    def __call__(self, windows: _Windows, n_paths: int) -> list[np.ndarray]:
        h, n, P = self.h, self.n, len(self.h)
        W = np.zeros((P, n_paths))
        # Weak generators can let the recursion overflow legitimately (the
        # bound stays valid, just useless).
        with np.errstate(over="ignore", invalid="ignore"):
            for ids, path, takes in reversed(windows):
                V = W.take(ids, axis=1)
                # The window's steps, flat: step j's takes[j] paths end at cumsum(takes)[j].
                steps = np.arange(len(ids)) < np.array(takes)[:, None]
                y = path[1:][steps]
                at = path[:-1][steps].astype(np.intp) * n + y
                ratios = self.rho[P:].take(at, axis=1).reshape(-1, P, len(at))
                values = self.value[P:].take(at, axis=1).reshape(ratios.shape)
                entry0, hy = self.value[:P].take(at, axis=1), h.take(y, axis=1)
                moves = ratios != 0.0
                for k, end in zip(reversed(takes), reversed(np.cumsum(takes).tolist())):
                    s = slice(end - k, end)
                    Vk, c, e0 = V[:, :k], ratios[..., s], entry0[:, s]
                    np.multiply(c, Vk - hy[:, s], out=c, where=moves[..., s])
                    c += values[..., s]
                    for p, opt in enumerate(self.opt):
                        opt(e0[p], c[0, p], out=Vk[p])
                        for i in range(1, len(c)):
                            opt(Vk[p], c[i, p], out=Vk[p])
                W[:, ids] = V
        return list(W)


def estimate_dual_bound_ssp(
    view: MdpView,
    h: np.ndarray,
    q: ReferenceMeasure,
    n_paths: int,
    seed: int,
    x0: int | None = None,
    cap: int = DEFAULT_PATH_CAP,
    keep_values: bool = False,
) -> DualEstimate:
    """Monte Carlo weak-form dual bound at ``x0`` (default: the view's root)."""
    [est] = estimate_dual_bounds(
        [(view, h)], n_paths, seed, q=q, x0=x0, cap=cap, keep_values=keep_values
    )
    return est


# ---------------------------------------------------------------------------
# Estimates that share a draw


def estimate_dual_bounds(
    pairs: Sequence[tuple[MdpView, np.ndarray]],
    n: int,
    seed: int,
    q: ReferenceMeasure | None = None,
    x0: int | None = None,
    cap: int = DEFAULT_PATH_CAP,
    keep_values: bool = False,
) -> list[DualEstimate]:
    """Monte Carlo dual bounds of several ``(view, h)`` pairs on one draw.

    Without ``q`` the views must be time-embedded: scenario ``i`` is one
    uniform per period from ``scenario_rng(seed, i)``, drawn once for the
    longest horizon (a stream's first draws do not depend on how many
    follow). Each block of scenarios is one ``uniforms`` call, byte-equal
    to drawing every stream on its own.
    With ``q`` the views must be absorbing-state views matching it:
    scenario ``i`` is the reference path from ``x0`` (default: the views'
    common root) drawn from the same stream, up to absorption or to its
    first transition that no action of any of the views can make; ``cap``
    bounds its steps until then; without ``q``, passing either raises
    ``ValueError``. ``seed`` must be an integer in ``[0, 2**64)``. The
    arguments and every pair are checked before any scenario is drawn,
    and estimate ``k`` equals, bit for bit, what
    ``estimate_dual_bound_finite`` or ``estimate_dual_bound_ssp`` returns
    for pair ``k`` alone.
    """
    if not pairs:
        raise ValueError("no (view, generator) pairs to estimate")
    _integer(n, "scenario count", 2)  # two scenarios for a standard error
    seed = check_seed(seed)
    if q is None:
        if x0 is not None or cap != DEFAULT_PATH_CAP:
            raise ValueError("x0 and cap apply to reference paths only; pass q")
        finite = [_FiniteInner(view, h) for view, h in pairs]
        T = max(inner.horizon for inner in finite)

        def block(indices: np.ndarray) -> list[np.ndarray]:
            scenarios = uniforms(seed, indices, 0, T)
            return [inner.evaluate(scenarios[:, : inner.horizon]) for inner in finite]

        size = _BLOCK
    else:
        ssp = [_SspInner(view, h, q) for view, h in pairs]
        if x0 is None:
            roots = {view.root for view, _ in pairs}
            if len(roots) > 1:
                raise ValueError(f"views start at different roots {sorted(roots)}; pass x0")
            x0 = roots.pop()
        if x0 is None:
            raise ValueError("view does not designate an initial state")
        _check_start(x0, q.kernel.shape[0], q.absorbing)
        _integer(cap, "path step cap", 1)
        stop = np.logical_and.reduce([inner.stop for inner in ssp])
        # The table is built after the first draw: the draw's peak never holds it.
        walk = cache(lambda: _Walk(ssp, q))

        def block(indices: np.ndarray) -> list[np.ndarray]:
            windows = _draw_paths(q, x0, seed, indices, cap, stop)
            return walk()(windows, len(indices))

        size = _PATH_BLOCK
    values = _block_values(block, len(pairs), n, size)
    return [_summarize(v, seed, keep_values) for v in values]


# ---------------------------------------------------------------------------
# Shared estimator plumbing


def _block_values(
    block: Callable[[np.ndarray], list[np.ndarray]], n_inner: int, n: int, size: int
) -> list[np.ndarray]:
    """Values of scenarios ``0..n-1`` under each of ``n_inner`` inner
    problems, evaluated ``size`` indices at a time; ``block`` returns one
    array of values per inner problem."""
    out = [np.empty(n) for _ in range(n_inner)]
    for start in range(0, n, size):
        stop = min(start + size, n)
        for values, part in zip(out, block(np.arange(start, stop))):
            values[start:stop] = part
    return out


def _summarize(values: np.ndarray, seed: int, keep_values: bool) -> DualEstimate:
    values.setflags(write=False)
    # Weak generators can overflow scenarios to +-inf, or finite values to
    # inf in the sum of squares; neither is an error, and neither may leave
    # a nan where a standard error belongs.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        if not np.isfinite(values).all():
            se = inf
        elif values.min() == values.max():
            # A constant sample has zero standard deviation exactly; the float
            # mean of n identical values would report spurious 1e-17 noise.
            mean, se = float(values[0]), 0.0
        else:
            se = float(values.std(ddof=1)) / sqrt(len(values))
    return DualEstimate(
        mean=mean,
        standard_error=se,
        n_scenarios=len(values),
        seed=seed,
        per_scenario_values=values if keep_values else None,
    )
