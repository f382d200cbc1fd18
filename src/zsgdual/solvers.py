"""Exact solving and policy analysis for dynamic zero-sum games.

Covers policy-pair evaluation by linear solve, equilibria by Hoffman–Karp
policy iteration stopped on a certified best-response interval (Shapley
sweeps solve the stage games on the one-step lookahead, those of all states
with equal action counts in one ``matrix_games.solve_many`` call; a
time-embedded game takes plain sweeps), best responses to a fixed opponent
(Howard policy iteration, Newton residual-correction steps, then
``games.lookahead`` sweeps to a float fixed point), the alternating "naive"
policy-iteration scheme, and the exact sandwich interval that best
responses put around the game value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_games
from .games import (
    PLAYER_A,
    PLAYER_B,
    FiniteHorizon,
    GameModel,
    MdpView,
    MixedPolicy,
    absorbing_reachable,
    check_policy,
    fix_player,
    lookahead,
    make_policy,
    pure_policy,
    regime_alpha,
)

# Each loop of an infinite-horizon solve (Howard iterations, polish sweeps)
# gives up after this many steps.
MAX_SWEEPS = 100_000


class ImproperPair(RuntimeError):
    """The induced chain of a policy pair does not reach the absorbing state."""


class NoConvergence(RuntimeError):
    def __init__(self, msg: str, last_delta: float):
        super().__init__(msg)
        self.last_delta = last_delta


class UnboundedValue(RuntimeError):
    """A best response is infinite: a state cannot absorb, or policy iteration
    closed a cycle whose average cost favours the responder."""


# ---------------------------------------------------------------------------
# Policy-pair evaluation


def induced_chain(
    model: GameModel, mu: MixedPolicy, nu: MixedPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Transition matrix and expected stage-cost vector of a policy pair."""
    n = model.n_states
    P = np.zeros((n, n))
    G = np.zeros(n)
    for i in range(n):
        y, z = mu[i], nu[i]
        P[i] = np.einsum("u,v,uvj->j", y, z, model.transition[i])
        G[i] = y @ model.expected_cost[i] @ z
    return P, G


def evaluate_policy_pair(
    model: GameModel, mu: MixedPolicy, nu: MixedPolicy
) -> np.ndarray:
    """Exact cost-to-go of the pair (mu, nu) at every state."""
    check_policy(model, mu, PLAYER_A)
    check_policy(model, nu, PLAYER_B)
    if isinstance(model.regime, FiniteHorizon):
        raise ValueError("embed a finite-horizon game before evaluating policies")
    P, G = induced_chain(model, mu, nu)
    a = model.absorbing
    if a is not None and not absorbing_reachable(P, a):
        raise ImproperPair(
            "induced chain does not reach the absorbing state from every state"
        )
    try:
        J = _solve_chain(P, G, regime_alpha(model.regime), a)
    except np.linalg.LinAlgError as exc:
        raise ImproperPair(f"singular evaluation system: {exc}") from exc
    J.setflags(write=False)
    return J


def _solve_chain(
    P: np.ndarray, cost: np.ndarray, alpha: float, absorbing: int | None
) -> np.ndarray:
    """Values ``V`` of a Markov chain with transition matrix ``P`` and stage
    costs ``cost``: ``(I - alpha P) V = cost`` on the states other than
    ``absorbing``, where ``V`` is 0."""
    keep = np.arange(len(cost)) != absorbing
    V = np.zeros(len(cost))
    A = np.eye(keep.sum()) - alpha * P[np.ix_(keep, keep)]
    V[keep] = np.linalg.solve(A, cost[keep])
    return V


# ---------------------------------------------------------------------------
# Shapley value iteration


def _stage_groups(model: GameModel) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The non-absorbing states grouped by their action counts, each group
    with its stacked transitions and expected costs, so that a sweep solves
    one group's stage games in one ``matrix_games.solve_many`` call."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i in range(model.n_states):
        if i != model.absorbing:
            by_shape.setdefault((model.actions_a[i], model.actions_b[i]), []).append(i)
    return [
        (
            np.array(states),
            np.stack([model.transition[i] for i in states]),
            np.stack([model.expected_cost[i] for i in states]),
        )
        for states in by_shape.values()
    ]


def _sweep(model: GameModel, groups, values: np.ndarray):
    """Shapley operator on ``values``: the new values, per group the states
    with their stage games' row and column strategies, and the largest
    exploitability gap ``max(R z) - min(y R)`` of a stage solution, which
    bounds the error of a new value."""
    alpha = regime_alpha(model.regime)
    new = np.zeros(model.n_states)
    strategies, gap = [], 0.0
    for states, transition, expected_cost in groups:
        stage = expected_cost + alpha * np.einsum("iuvj,j->iuv", transition, values)
        new[states], rows, cols = matrix_games.solve_many(stage)
        strategies.append((states, rows, cols))
        gaps = (np.einsum("iuv,iv->iu", stage, cols).max(axis=1)
                - np.einsum("iu,iuv->iv", rows, stage).min(axis=1))
        gap = max(gap, float(gaps.max()))
    return new, strategies, gap


def _stage_policies(model: GameModel, strategies) -> tuple[MixedPolicy, MixedPolicy]:
    """The policy pair of one sweep; the absorbing state plays uniformly."""
    mu_vecs = [np.ones(a) / a for a in model.actions_a]
    nu_vecs = [np.ones(b) / b for b in model.actions_b]
    for states, rows, cols in strategies:
        for i, y, z in zip(states, rows, cols):
            mu_vecs[i] = y
            nu_vecs[i] = z
    return make_policy(mu_vecs), make_policy(nu_vecs)


def shapley_backup(
    model: GameModel, values: np.ndarray
) -> tuple[np.ndarray, MixedPolicy, MixedPolicy]:
    """One sweep: solve the stage matrix game at every state.

    States with equal action counts are solved together in one batched
    simplex; the absorbing state keeps value 0 and uniform strategies.
    """
    new, strategies, _ = _sweep(model, _stage_groups(model), values)
    return (new, *_stage_policies(model, strategies))


def shapley_value_iteration(
    model: GameModel, tol: float = 1e-10, max_iter: int = 100_000
) -> tuple[np.ndarray, MixedPolicy, MixedPolicy]:
    """Equilibrium value function and per-state equilibrium strategies.

    Infinite horizon: Hoffman–Karp policy iteration. Each iteration solves
    the stage games at ``V`` (one Shapley sweep) and sets ``V`` to B's exact
    best response to A's stage strategies ``mu``. The solve returns B's
    response to ``mu`` once A's response to ``nu`` lies at most ``tol``
    (> 0) above it at every state; ``NoConvergence`` names the width reached
    if the sweep residual sinks to rounding noise first. ``max_iter`` caps
    the iterations. A time-embedded game runs plain Shapley sweeps until
    one changes no value, which takes at most ``horizon + 1`` sweeps;
    ``tol`` is then only range-checked.
    """
    if isinstance(model.regime, FiniteHorizon):
        raise ValueError("embed a finite-horizon game before solving")
    check_tol(tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    embedded = model.horizon is not None
    if tol == 0.0 and not embedded:
        raise ValueError("tol must be positive: it is the certified interval width")
    groups = _stage_groups(model)
    V = np.zeros(model.n_states)
    for _ in range(max_iter):
        TV, strategies, gap = _sweep(model, groups, V)
        mu, nu = _stage_policies(model, strategies)
        residual = float(np.abs(TV - V).max())
        if embedded:
            V = TV
            if residual == 0.0:
                V.setflags(write=False)
                return V, mu, nu
            continue
        # No iteration can push the residual below the stage solutions' own
        # error or a few ulps of the values.
        floor = max(gap, 4.0 * np.finfo(float).eps * float(np.abs(TV).max()))
        if residual <= max(tol, floor):
            lo, _ = solve_view(fix_player(model, mu, PLAYER_A), tol=0.0)
            try:
                up, _ = solve_view(fix_player(model, nu, PLAYER_B), tol=0.0)
                width = float((up - lo).max())
            except UnboundedValue:
                width = np.inf
            if width <= tol:
                return lo, mu, nu
            if residual <= floor:
                raise NoConvergence(
                    f"residual {residual:.3e} is rounding noise; "
                    f"certified width {width:.3e} > tol {tol:.3e}", width
                )
        V = _howard(fix_player(model, mu, PLAYER_A))
    raise NoConvergence(
        f"no convergence within {max_iter} iterations (last residual {residual:.3e})",
        residual,
    )


def check_tol(tol: float) -> None:
    """Raise ValueError unless the stopping tolerance is finite and >= 0."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


# ---------------------------------------------------------------------------
# Best responses


def solve_view(view: MdpView, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Optimal value and pure action per state of a one-player view.

    An infinite-horizon view is solved by Howard policy iteration (exact
    linear evaluation; an action switches only on a strict gain). Newton
    residual-correction steps then cut the residual of Howard's values to
    a few ulps, and sweeps ``opt(lookahead(view, V))`` polish them until a
    sweep moves no value by more than ``tol``. ``tol == 0`` demands an exact
    floating-point fixed point of ``lookahead``, as zero-variance duality
    checks need. A time-embedded view is acyclic: the same sweeps from zero
    reach its exact fixed point within ``horizon + 1`` sweeps, whatever
    ``tol``. Actions are the last sweep's, ties broken toward the lowest index.
    """
    if view.horizon is None and isinstance(view.regime, FiniteHorizon):
        raise ValueError("embed a finite-horizon view before solving")
    check_tol(tol)
    argopt = np.argmax if view.orientation == "max" else np.argmin
    if view.horizon is not None:
        V, qa = _polish(view, np.zeros(view.n_states), 0.0, view.horizon + 1)
    else:
        V, qa = _polish(view, _newton(view, _howard(view)), tol, MAX_SWEEPS)
    V.setflags(write=False)
    return V, argopt(qa, axis=1)


def _proper_start(view: MdpView) -> np.ndarray:
    """A proper policy of an SSP view, found backward from the absorbing
    state: each state takes its lowest action that enters the reached set."""
    reached = np.arange(view.n_states) == view.absorbing
    policy = np.zeros(view.n_states, dtype=int)
    while not reached.all():
        enters = (view.kernel @ reached) > 0.0
        new = enters.any(axis=1) & ~reached
        if not new.any():
            x = np.flatnonzero(~reached)[0]
            raise UnboundedValue(f"state {x} cannot reach the absorbing state; improper")
        policy[new] = enters[new].argmax(axis=1)
        reached |= new
    return policy


def _howard(view: MdpView) -> np.ndarray:
    """Values of the final policy of Howard policy iteration on a view."""
    sign = 1.0 if view.orientation == "max" else -1.0
    argopt = np.argmax if view.orientation == "max" else np.argmin
    rows = np.arange(view.n_states)
    alpha = regime_alpha(view.regime)
    ssp = view.absorbing is not None
    policy = _proper_start(view) if ssp else argopt(view.cost, axis=1)
    for _ in range(MAX_SWEEPS):
        P = view.kernel[rows, policy]
        if ssp and not absorbing_reachable(P, view.absorbing):
            # A strict gain closed a cycle whose average cost favours the
            # responder: the value is unbounded.
            inf = "+inf" if sign > 0 else "-inf"
            raise UnboundedValue(f"improving step made the policy improper; value {inf}")
        V = _solve_chain(P, view.cost[rows, policy], alpha, view.absorbing)
        qa = lookahead(view, V)
        best = argopt(qa, axis=1)
        current = qa[rows, policy]
        gain = sign * (qa[rows, best] - current)
        switch = gain > 1e-12 * np.maximum(1.0, np.abs(current))
        if not switch.any():
            return V
        policy = np.where(switch, best, policy)
    raise NoConvergence(f"policy iteration still switching after {MAX_SWEEPS} steps", 0.0)


def _newton(view: MdpView, V: np.ndarray) -> np.ndarray:
    """Residual-correction (Newton) steps from ``V``: add the solution ``d`` of
    ``(I - alpha P_pi) d = opt(qa) - V``, where ``qa = lookahead(view, V)``
    and ``pi`` is greedy on ``qa``, while the sup residual strictly falls.
    Returns the values of least residual. A greedy ``pi`` that cannot absorb
    (an exact tie with a zero-cost loop) ends the steps, as its system is
    singular."""
    opt = np.max if view.orientation == "max" else np.min
    argopt = np.argmax if view.orientation == "max" else np.argmin
    best, least = V, np.inf
    for _ in range(MAX_SWEEPS):
        qa = lookahead(view, V)
        r = opt(qa, axis=1) - V
        if not float(np.abs(r).max()) < least:  # NaN included
            break
        best, least = V, float(np.abs(r).max())
        P = view.kernel[np.arange(view.n_states), argopt(qa, axis=1)]
        if least == 0.0 or (
            view.absorbing is not None and not absorbing_reachable(P, view.absorbing)
        ):
            break
        V = V + _solve_chain(P, r, regime_alpha(view.regime), view.absorbing)
    return best


def _polish(view: MdpView, V: np.ndarray, tol: float, max_sweeps: int):
    """Sweep ``V = opt(lookahead(view, V))`` until no value moves by more
    than ``tol``; return the last values and action values. From Newton's
    values this takes a few sweeps; from values with a larger residual the
    sweeps crawl at the chain's contraction rate.

    Brent's method spots a float cycle. The sweep is monotone (nonnegative
    kernel, fixed summation order), so the elementwise minimum ``L`` of the
    cycle has ``T(L) <= L``, and sweeps restarted from it descend to a
    fixed point.
    """
    opt = np.max if view.orientation == "max" else np.min
    mark, lam, power = V, 0, 1
    for _ in range(max_sweeps):
        qa = lookahead(view, V)
        new = opt(qa, axis=1)
        delta = float(np.abs(new - V).max())
        V = new
        if delta <= tol:
            return V, qa
        lam += 1
        if np.array_equal(V, mark):
            low = V
            for _ in range(lam - 1):
                V = opt(lookahead(view, V), axis=1)
                low = np.minimum(low, V)
            V, mark, lam, power = low, low, 0, 1
        elif lam == power:
            mark, lam, power = V, 0, 2 * power
    raise NoConvergence(
        f"no convergence within {max_sweeps} sweeps (last delta {delta:.3e})", delta
    )


def best_response(
    model: GameModel,
    fixed: MixedPolicy,
    fixed_player: str,
    tol: float = 1e-10,
) -> tuple[np.ndarray, MixedPolicy]:
    """Optimal value and a pure responder policy against a fixed opponent.

    Fixing A leaves B minimizing (the result lower-bounds the game value);
    fixing B leaves A maximizing (an upper bound).
    """
    view = fix_player(model, fixed, fixed_player)
    values, actions = solve_view(view, tol=tol)
    responder = PLAYER_B if fixed_player == PLAYER_A else PLAYER_A
    return values, pure_policy(model, responder, actions)


# ---------------------------------------------------------------------------
# Naive policy iteration


@dataclass(frozen=True)
class PolicyIterationRound:
    mu: MixedPolicy
    nu: MixedPolicy
    values: np.ndarray


@dataclass(frozen=True)
class PolicyIterationTrace:
    """Rounds of alternating evaluate/update, with convergence diagnostics.

    The scheme has no general convergence guarantee, so the trace records
    the sup-norm steps between successive value functions and whether they
    shrank monotonically instead of asserting convergence.
    """

    rounds: tuple[PolicyIterationRound, ...]
    deltas: tuple[float, ...]
    converged: bool
    failure: str | None = None

    @property
    def monotone_deltas(self) -> bool:
        return all(b <= a + 1e-12 for a, b in zip(self.deltas, self.deltas[1:]))


def naive_policy_iteration(
    model: GameModel,
    mu0: MixedPolicy,
    nu0: MixedPolicy,
    rounds: int,
    tol: float = 1e-9,
) -> PolicyIterationTrace:
    """Alternate policy-pair evaluation with stagewise matrix-game updates.

    Round 0 records the initial pair and its exact value; each later round
    replaces the pair by the equilibrium strategies of the one-step
    lookahead games at the previous value function. A pair that turns
    improper mid-run truncates the trace and sets ``failure``.
    """
    mu, nu = mu0, nu0
    J = evaluate_policy_pair(model, mu, nu)
    recs = [PolicyIterationRound(mu=mu, nu=nu, values=J)]
    deltas: list[float] = []
    failure = None
    for k in range(rounds):
        _, mu_new, nu_new = shapley_backup(model, J)
        try:
            J_new = evaluate_policy_pair(model, mu_new, nu_new)
        except ImproperPair as exc:
            failure = f"round {k + 1}: {exc}"
            break
        deltas.append(float(np.abs(J_new - J).max()))
        mu, nu, J = mu_new, nu_new, J_new
        recs.append(PolicyIterationRound(mu=mu, nu=nu, values=J))
    converged = failure is None and bool(deltas) and deltas[-1] <= tol
    return PolicyIterationTrace(
        rounds=tuple(recs),
        deltas=tuple(deltas),
        converged=converged,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# Sandwich bounds


@dataclass(frozen=True)
class SandwichResult:
    """Exact best-response interval around the game value for a policy pair.

    ``lower`` is B's best response to mu_hat, ``upper`` is A's best response
    to nu_hat; the game value lies between them at every state, as does the
    pair's own value.
    """

    lower: np.ndarray
    upper: np.ndarray
    pair_value: np.ndarray
    responder_a: MixedPolicy
    responder_b: MixedPolicy


def sandwich(
    model: GameModel,
    mu_hat: MixedPolicy,
    nu_hat: MixedPolicy,
    tol: float = 1e-10,
) -> SandwichResult:
    lower, resp_b = best_response(model, mu_hat, PLAYER_A, tol=tol)
    upper, resp_a = best_response(model, nu_hat, PLAYER_B, tol=tol)
    pair = evaluate_policy_pair(model, mu_hat, nu_hat)
    if np.any(lower > pair + 1e-7) or np.any(pair > upper + 1e-7):
        raise RuntimeError(
            "best-response interval failed to bracket the pair value; "
            "responses did not converge"
        )
    return SandwichResult(
        lower=lower,
        upper=upper,
        pair_value=pair,
        responder_a=resp_a,
        responder_b=resp_b,
    )
