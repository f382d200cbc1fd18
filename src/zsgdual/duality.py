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
the inverse-CDF transition of every action). Absorbing-state views sample
scenario paths from an action-independent reference kernel ``q`` instead,
and per-step likelihood ratios p/q re-weight the inner recursion.

Estimates are bitwise reproducible: scenario ``i`` draws from a
counter-based stream keyed by ``(seed, i)`` and scenarios are evaluated and
reduced in index order, so the first ``k`` per-scenario values of a run do
not depend on how many scenarios it draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import sqrt
from typing import Callable

import numpy as np

from .games import (
    PLAYER_A,
    PLAYER_B,
    Discounted,
    GameModel,
    MdpView,
    MixedPolicy,
    Ssp,
    absorbing_reachable,
    fix_player,
    stack_view,
)

DEFAULT_PATH_CAP = 10**6
DEFAULT_CELL_BUDGET = 10**6


class SupportViolation(ValueError):
    """Realized next state has zero probability under the queried action."""


class AbsContinuityViolation(RuntimeError):
    """A true transition is possible where the reference kernel puts no mass."""


class PathCapExceeded(RuntimeError):
    """Reference-measure simulation failed to absorb within the step cap."""


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


@dataclass(frozen=True)
class DualBounds:
    lower: DualEstimate
    upper: DualEstimate


# ---------------------------------------------------------------------------
# Scenario streams and the canonical coupling


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream for scenario ``index`` under ``seed``."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=(seed, index)))
    )


def inverse_cdf_transition(row: np.ndarray, w: float) -> int:
    """Smallest destination whose cumulative probability strictly exceeds w.

    Sharing one uniform across the rows of every action implements common
    random numbers: the coupling that makes per-scenario inner problems
    well defined.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError(f"uniform draw {w} outside [0, 1)")
    return _icdf(np.cumsum(np.asarray(row, dtype=float)), w)


def _icdf(cum: np.ndarray, w: float) -> int:
    j = int(np.searchsorted(cum, w, side="right"))
    if j >= len(cum):  # final cumsum fell short of 1 by rounding
        j = len(cum) - 1
        while j > 0 and cum[j] == cum[j - 1]:
            j -= 1
    return j


# ---------------------------------------------------------------------------
# Penalties


def make_penalty_term(
    view: MdpView, h: np.ndarray, x: int, a: int, realized_next: int
) -> float:
    """Expected-minus-realized value of ``h`` at the next state.

    Added to the stage cost inside a relaxed inner problem, this charges the
    clairvoyant decision maker for knowing which next state comes up; it has
    zero conditional mean under any non-anticipating policy.
    """
    row = view.kernel[x][a]
    if row[realized_next] <= 0.0:
        raise SupportViolation(
            f"state {realized_next} is not reachable from state {x} "
            f"under action {a}"
        )
    return float(row @ h) - float(h[realized_next])


# ---------------------------------------------------------------------------
# Finite-horizon (time-embedded) inner problems


class _FiniteInner:
    """Per-scenario deterministic inner problem on an embedded view.

    Precomputes, per state, the penalty-adjusted action values
    ``cost[x] + kernel[x] @ h`` and the per-action transition CDFs. The
    per-action expression must mirror the exact backward induction in
    ``solvers.solve_view`` bit for bit so that an exact-value generator
    cancels the continuation exactly, scenario by scenario.
    """

    def __init__(self, view: MdpView, h: np.ndarray):
        if view.horizon is None or view.period is None:
            raise ValueError("finite inner problems need a time-embedded view")
        if view.root is None:
            raise ValueError("view does not designate an initial state")
        h = np.asarray(h, dtype=float)
        if h.shape != (view.n_states,):
            raise ValueError("generator must assign one value per state")
        if not np.isfinite(h).all():
            raise ValueError("generator values must be finite")
        self.view = view
        self.h = h
        self.horizon = view.horizon
        self.by_period: list[list[int]] = [[] for _ in range(view.horizon)]
        for x in range(view.n_states):
            if x != view.absorbing:
                self.by_period[int(view.period[x])].append(x)
        self.base = {
            x: view.cost[x] + view.kernel[x] @ h
            for period in self.by_period
            for x in period
        }
        self.cum = {x: np.cumsum(view.kernel[x], axis=1) for x in self.base}
        self.opt = np.max if view.orientation == "max" else np.min

    def evaluate(self, scenario: np.ndarray) -> float:
        scenario = np.asarray(scenario, dtype=float)
        if scenario.shape != (self.horizon,):
            raise ValueError(
                f"scenario length {scenario.shape} does not match horizon "
                f"{self.horizon}"
            )
        V = np.zeros(self.view.n_states)
        h = self.h
        for t in range(self.horizon - 1, -1, -1):
            w = float(scenario[t])
            for x in self.by_period[t]:
                cum = self.cum[x]
                nxt = np.array([_icdf(cum[a], w) for a in range(cum.shape[0])])
                V[x] = self.opt(self.base[x] + (V[nxt] - h[nxt]))
        return float(V[self.view.root])


def pi_inner_finite(view: MdpView, scenario: np.ndarray, h: np.ndarray) -> float:
    """Perfect-information inner value of one scenario on an embedded view."""
    return _FiniteInner(view, h).evaluate(scenario)


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
    for t in range(inner.horizon):
        cuts = [np.array([1.0])]
        for x in inner.by_period[t]:
            cuts.append(np.clip(inner.cum[x].ravel(), 0.0, 1.0))
        edges = np.unique(np.concatenate(cuts))
        edges = edges[edges > 0.0]
        edges_per_period.append(np.concatenate([[0.0], edges]))
        n_cells *= len(edges)
        if n_cells > cell_budget:
            raise CellBudgetExceeded(
                f"{n_cells}+ scenario cells exceed budget {cell_budget}"
            )

    intervals = [
        [(float(e[k]), float(e[k + 1])) for k in range(len(e) - 1)]
        for e in edges_per_period
    ]
    total = 0.0
    for cell in product(*intervals):
        weight = 1.0
        w = np.empty(inner.horizon)
        for t, (lo, hi) in enumerate(cell):
            weight *= hi - lo
            w[t] = 0.5 * (lo + hi)
        total += weight * inner.evaluate(w)
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
    inner = _FiniteInner(view, h)
    T = inner.horizon

    def one(i: int) -> float:
        return inner.evaluate(scenario_rng(seed, i).random(T))

    values = _indexed_values(one, n_scenarios)
    return _summarize(values, seed, keep_values)


# ---------------------------------------------------------------------------
# Reference measures and absorbing-state (weak form) inner problems


@dataclass(frozen=True)
class ReferenceMeasure:
    """Action-independent transition kernel used to simulate dual paths."""

    kernel: np.ndarray
    absorbing: int

    def __post_init__(self) -> None:
        k = np.ascontiguousarray(self.kernel, dtype=float)
        n = k.shape[0]
        if k.shape != (n, n):
            raise ValueError("reference kernel must be square")
        if np.any(k < 0.0) or np.any(np.abs(k.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("reference kernel rows must be distributions")
        if abs(k[self.absorbing, self.absorbing] - 1.0) > 1e-12:
            raise ValueError("absorbing state must self-map under q")
        if not absorbing_reachable(k, self.absorbing):
            raise ValueError(
                "absorbing state unreachable under q from some state; "
                "paths would never terminate"
            )
        k.setflags(write=False)
        object.__setattr__(self, "kernel", k)


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
    """All (state, action, next) where the view moves but q puts no mass."""
    out = []
    for x in range(view.n_states):
        if x == view.absorbing:
            continue
        dead = q.kernel[x] == 0.0
        if not dead.any():
            continue
        for a in range(view.n_actions[x]):
            for j in np.flatnonzero((view.kernel[x][a] > 0.0) & dead):
                out.append((x, a, int(j)))
    return out


def simulate_q_path(
    q: ReferenceMeasure, x0: int, seed: int, cap: int = DEFAULT_PATH_CAP
) -> np.ndarray:
    """One reference-measure path from x0 to absorption (inclusive)."""
    _check_start(x0, q.kernel.shape[0], q.absorbing)
    cum = np.cumsum(q.kernel, axis=1)
    return _draw_path(cum, q.absorbing, x0, scenario_rng(seed, 0), cap)


def _check_start(x0: int, n_states: int, absorbing: int) -> None:
    if not 0 <= x0 < n_states or x0 == absorbing:
        raise ValueError(
            f"path must start at a non-absorbing state in [0, {n_states}), "
            f"got {x0}"
        )


def _draw_path(
    q_cum: np.ndarray,
    absorbing: int,
    x0: int,
    rng: np.random.Generator,
    cap: int,
) -> np.ndarray:
    path = [x0]
    x = x0
    for _ in range(cap):
        x = _icdf(q_cum[x], float(rng.random()))
        path.append(x)
        if x == absorbing:
            return np.array(path, dtype=int)
    raise PathCapExceeded(f"no absorption within {cap} steps under q")


class _SspInner:
    """Weak-form inner problem along reference-measure paths.

    Precomputes the penalty-adjusted action values ``cost + kernel @ h``
    on the stacked non-terminal block; the einsum must mirror the value
    iteration in ``solvers.solve_view`` bit for bit so that an exact-value
    generator collapses the recursion path by path.
    """

    def __init__(self, view: MdpView, h: np.ndarray, q: ReferenceMeasure):
        if not isinstance(view.regime, Ssp):
            raise ValueError("weak-form inner problems need an absorbing-state view")
        h = np.asarray(h, dtype=float)
        if h.shape != (view.n_states,):
            raise ValueError("generator must assign one value per state")
        if not np.isfinite(h).all():
            raise ValueError("generator values must be finite")
        bad = validate_abs_continuity(view, q)
        if bad:
            raise AbsContinuityViolation(
                f"{len(bad)} reachable transitions carry no q-mass, "
                f"first at (state, action, next) = {bad[0]}"
            )
        self.view = view
        self.h = h
        self.q = q
        self.stacked = stack_view(view)
        self.base = self.stacked.cost + np.einsum(
            "san,n->sa", self.stacked.kernel, h
        )
        self.opt = np.max if view.orientation == "max" else np.min

    def evaluate(self, path: np.ndarray) -> float:
        if path[-1] != self.view.absorbing:
            raise ValueError("path must end at the absorbing state")
        h = self.h
        row_of = self.stacked.row_of
        kernel = self.stacked.kernel
        q_kernel = self.q.kernel
        W = 0.0
        # Weak generators can let the recursion overflow legitimately (the
        # bound stays valid, just useless); keep 0 * inf at zero-rho actions
        # from poisoning the optimization with NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(len(path) - 2, -1, -1):
                x, xn = int(path[t]), int(path[t + 1])
                qv = q_kernel[x, xn]
                if qv <= 0.0:
                    raise AbsContinuityViolation(
                        f"step {t}: q({xn}|{x}) = 0 on a simulated path"
                    )
                r = row_of[x]
                rho = kernel[r, :, xn] / qv
                carry = rho * (W - h[xn])
                if W - h[xn] != 0.0:
                    carry = np.where(rho == 0.0, 0.0, carry)
                W = float(self.opt(self.base[r] + carry))
        return W


def weak_form_inner_ssp(
    view: MdpView, path: np.ndarray, q: ReferenceMeasure, h: np.ndarray
) -> float:
    """Inner value of one reference-measure path, likelihood-ratio weighted.

    Backward along the path, each step optimizes stage cost plus expected
    generator value plus rho * (continuation - realized generator value),
    where rho = p(next|x,a)/q(next|x) corrects the change of measure.
    """
    return _SspInner(view, h, q).evaluate(np.asarray(path, dtype=int))


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
    inner = _SspInner(view, h, q)
    if x0 is None:
        x0 = view.root
    if x0 is None:
        raise ValueError("view does not designate an initial state")
    _check_start(x0, view.n_states, q.absorbing)
    q_cum = np.cumsum(q.kernel, axis=1)

    def one(i: int) -> float:
        path = _draw_path(q_cum, q.absorbing, x0, scenario_rng(seed, i), cap)
        return inner.evaluate(path)

    values = _indexed_values(one, n_paths)
    return _summarize(values, seed, keep_values)


# ---------------------------------------------------------------------------
# Two-sided bounds


def dual_sandwich(
    model: GameModel,
    mu_hat: MixedPolicy,
    nu_hat: MixedPolicy,
    h_lower: np.ndarray,
    h_upper: np.ndarray,
    q: ReferenceMeasure | tuple[ReferenceMeasure, ReferenceMeasure] | None,
    n: int,
    seed: int,
    keep_values: bool = False,
) -> DualBounds:
    """Dual bounds bracketing the game value around a fixed policy pair.

    The lower side fixes A at mu_hat and bounds B's best response from
    below; the upper side fixes B at nu_hat and bounds A's best response
    from above. The two sides may use different generators and, for
    absorbing-state games, different reference measures (pass a tuple).
    """
    view_lower = fix_player(model, mu_hat, PLAYER_A)
    view_upper = fix_player(model, nu_hat, PLAYER_B)
    if model.horizon is not None:
        lower = estimate_dual_bound_finite(
            view_lower, h_lower, n, seed, keep_values=keep_values
        )
        upper = estimate_dual_bound_finite(
            view_upper, h_upper, n, seed, keep_values=keep_values
        )
    elif isinstance(model.regime, Ssp):
        if q is None:
            q = make_uniform_reference(model)
        q_lower, q_upper = q if isinstance(q, tuple) else (q, q)
        lower = estimate_dual_bound_ssp(
            view_lower, h_lower, q_lower, n, seed, keep_values=keep_values
        )
        upper = estimate_dual_bound_ssp(
            view_upper, h_upper, q_upper, n, seed, keep_values=keep_values
        )
    elif isinstance(model.regime, Discounted):
        raise ValueError(
            "dual bounds cover time-embedded and absorbing-state games only"
        )
    else:
        raise ValueError("embed a finite-horizon game before bounding")
    return DualBounds(lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# Shared estimator plumbing


def _indexed_values(one: Callable[[int], float], n: int) -> np.ndarray:
    if n < 2:
        raise ValueError("need at least two scenarios for a standard error")
    out = np.empty(n)
    for i in range(n):
        out[i] = one(i)
    return out


def _summarize(values: np.ndarray, seed: int, keep_values: bool) -> DualEstimate:
    values.setflags(write=False)
    if values.min() == values.max():
        # A constant sample has zero standard deviation exactly; the float
        # mean of n identical values would report spurious 1e-17 noise.
        mean, se = float(values[0]), 0.0
    else:
        mean = float(values.mean())
        se = float(values.std(ddof=1)) / sqrt(len(values))
    return DualEstimate(
        mean=mean,
        standard_error=se,
        n_scenarios=len(values),
        seed=seed,
        per_scenario_values=values if keep_values else None,
    )
