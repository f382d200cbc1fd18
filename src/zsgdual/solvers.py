"""Exact solving and policy analysis for dynamic zero-sum games.

Covers policy-pair evaluation (a linear solve, or one backward pass over
the periods of a time-embedded game), equilibria by Newton steps
safeguarded by Hoffman–Karp policy iteration, stopped on a certified
best-response interval (Shapley sweeps solve the stage games on the
one-step lookahead; a time-embedded game takes one backward pass over its
periods), best responses to a fixed opponent (Howard policy iteration,
Newton residual-correction steps, then ``games.lookahead`` sweeps to a
float fixed point; on a time-embedded view, backward induction by
``lookahead`` on one period's rows at a time and one confirming sweep;
every step optimizes as ``MdpView.optimizer`` says), the alternating
"naive" policy-iteration scheme, and the exact sandwich interval that best
responses put around the game value.

Everything here reads the model's block layout (``games.GameModel``): the
states of one action shape ``(A, B)``, stacked into ``(k, A, B, S)``
padded successor lists and ``(k, A, B)`` stage costs. A sweep solves one
block's stage games together, by ``matrix_games.solve_mixed`` in the
equilibrium loop and by one ``matrix_games.solve_many`` call elsewhere,
reading the block without a copy, and sums each row's onward value in list
order (``games.list_sum``). Every chain is ``(L, n)`` successor lists, one
slot of the ``MdpView`` layout: a policy pair's holds each state's block
entries (``_pair_lists``), a pure policy's on a view the slots it picks.
One function, ``_chain_values``, solves them all: ``I - alpha P`` from one
``np.bincount`` of the lists, then one linear solve; a time-embedded pair
takes one ``np.bincount`` per period over the same lists instead. A Newton
step evaluates, and a Hoffman–Karp step fixes, the sweep's stacked stage
strategies directly (``_pair_lists``, ``games.fix_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_games
from .games import (
    PLAYER_A,
    PLAYER_B,
    Block,
    FiniteHorizon,
    GameModel,
    MdpView,
    MixedPolicy,
    _integer,
    absorbing_attractor,
    block_rows,
    by_state,
    check_policy,
    fix_player,
    fix_rows,
    list_sum,
    lookahead,
    pure_policy,
    regime_alpha,
    take_rows,
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


def _pair_lists(model: GameModel, parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The induced chain of a policy pair given as stacked rows, unchecked:
    each triple ``(block, y, z)`` of ``parts`` holds the ``(k, A)`` and
    ``(k, B)`` vectors of the block's states. Returns ``(L, n)`` successor
    lists ``(succ, prob)``, one slot of the ``MdpView`` layout: a state's
    entries are its block's in ``(u, v, s)`` order, entry ``(u, v, s)``
    weighing ``y[u] z[v] p``, then pads of probability 0 to ``n``; and the
    expected stage costs, one ``matmul`` per block. States no block holds
    keep cost 0 and no entry."""
    n = model.n_states
    G = np.zeros(n)
    lists = []
    for b, y, z in parts:
        k = len(b.states)
        weight = y[:, :, None, None] * z[:, None, :, None] * b.transition
        lists.append((b.states, b.succ.reshape(k, -1), weight.reshape(k, -1)))
        G[b.states] = ((y[:, None] @ b.cost) @ z[:, :, None])[:, 0, 0]
    # Filled state by state, then transposed: a view, not a copy.
    L = max(s.shape[1] for _, s, _ in lists)
    succ, prob = np.full((n, L), n), np.zeros((n, L))
    for states, s, p in lists:
        succ[states, : s.shape[1]], prob[states, : p.shape[1]] = s, p
    return succ.T, prob.T, G


def _pair_rows(model: GameModel, mu: MixedPolicy, nu: MixedPolicy):
    """The blocks of ``model`` with the stacked rows of ``mu`` and ``nu``."""
    return zip(model.blocks, block_rows(model, mu, PLAYER_A), block_rows(model, nu, PLAYER_B))


def evaluate_policy_pair(
    model: GameModel, mu: MixedPolicy, nu: MixedPolicy
) -> np.ndarray:
    """Exact cost-to-go of the pair (mu, nu) at every state.

    A time-embedded model is evaluated backward, period by period: every
    move leads exactly one period ahead (``validate`` checks it), so a
    period's values are its expected costs plus one ``np.bincount`` of its
    entries' weighted values, read from the period after it; no
    ``(n, n)`` matrix is built. Other models solve the induced chain's
    linear system.
    """
    check_policy(model, mu, PLAYER_A)
    check_policy(model, nu, PLAYER_B)
    if isinstance(model.regime, FiniteHorizon):
        raise ValueError("embed a finite-horizon game before evaluating policies")
    return _pair_values(model, _pair_rows(model, mu, nu))


def _pair_values(model: GameModel, parts) -> np.ndarray:
    """``evaluate_policy_pair`` on a pair given as stacked rows, unchecked
    (``_pair_lists``); the absorbing state's rows may be left out."""
    succ, prob, G = _pair_lists(model, parts)
    if model.horizon is not None:
        J = _backward_pair(model, succ, prob, G)
    else:
        try:
            J = _chain_values(succ, prob, G, regime_alpha(model.regime), model.absorbing)
        except np.linalg.LinAlgError as exc:
            raise ImproperPair(f"singular evaluation system: {exc}") from exc
        if J is None:
            raise ImproperPair(
                "induced chain does not reach the absorbing state from every state"
            )
    J.setflags(write=False)
    return J


def _backward_pair(
    model: GameModel, succ: np.ndarray, prob: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Values of a time-embedded model's pair from its successor lists, from
    the last period to the first: each adds ``prob * J[succ]`` of its states'
    entries to their expected costs ``G``, one ``np.bincount`` in list order,
    reading only the next period's values, which are final by then. The
    absorbing state, and a pad's destination ``n``, keep 0."""
    n = model.n_states
    order = np.argsort(model.period, kind="stable")
    cut = np.searchsorted(model.period[order], np.arange(model.horizon + 1))
    J = np.append(G, 0.0)
    J[model.absorbing] = 0.0
    for t in range(model.horizon - 1, -1, -1):
        x = order[cut[t] : cut[t + 1]]
        J[:n] += np.bincount(np.repeat(x, len(succ)), (prob[:, x] * J[succ[:, x]]).ravel("F"),
                             minlength=n)
    return J[:n]


def _chain_values(
    succ: np.ndarray, prob: np.ndarray, cost: np.ndarray, alpha: float, absorbing: int | None
) -> np.ndarray | None:
    """Values ``V`` of the chain whose state ``x`` moves to ``succ[l, x]``
    with probability ``prob[l, x]`` (``(L, n)`` successor lists, a pad's
    destination ``n``) and pays ``cost[x]``: ``(I - alpha P) V = cost`` on
    the states other than ``absorbing``, where ``V`` is 0. None when the
    chain does not reach ``absorbing`` from every state. ``I - alpha P`` is
    one ``np.bincount`` of the entries, so a repeated destination sums in
    list order, then ``0 - alpha P`` and ``+1`` on the diagonal in place:
    the bits of the identity minus ``alpha * P``, with no second ``(k, k)``
    array and no ``(n, n)`` ``P``."""
    n = len(cost)
    if absorbing is not None and not absorbing_attractor(
        succ[..., None], prob[..., None], absorbing
    )[0].all():
        return None
    # Row and column of each state in A; the absorbing state and a pad's
    # destination n take row and column k, which are cut off.
    k = n - (absorbing is not None)
    index = np.arange(n + 1)
    if absorbing is not None:
        index[absorbing + 1 :] -= 1
        index[absorbing] = k
    A = np.bincount((index[:n] * (k + 1) + index[succ]).ravel("F"), prob.ravel("F"),
                    minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
    A *= alpha
    np.subtract(0.0, A, out=A)
    A.flat[:: k + 2] += 1.0
    keep = index[:n] < k
    V = np.zeros(n)
    V[keep] = np.linalg.solve(A[:k, :k], cost[keep])
    return V


# ---------------------------------------------------------------------------
# Shapley value iteration


def _stage_groups(model: GameModel) -> list[Block]:
    """The model's blocks without the absorbing state, so that a sweep
    solves one group's stage games together (``_sweep``). Only a block
    that holds the absorbing state next to other states is copied."""
    groups = []
    for b in model.blocks:
        keep = b.states != model.absorbing
        if keep.all():
            groups.append(b)
        elif keep.any():
            groups.append(take_rows(b, keep))
    return groups


def _stage(model: GameModel, b: Block, values: np.ndarray) -> np.ndarray:
    """Block ``b``'s ``(k, A, B)`` stage games on the lookahead at ``values``."""
    return b.cost + regime_alpha(model.regime) * list_sum(b.transition, values[b.succ])


def _sweep(model: GameModel, groups: list[Block], values: np.ndarray, new=None,
           mixed: bool = False):
    """Shapley operator on ``values``: the new values, written group by group
    into ``new`` (a fresh array by default), per group the block with its
    stage games' row and column strategies, and the largest exploitability
    gap ``max(R z) - min(y R)`` of a stage solution, which bounds the error
    of a new value. With ``new`` the array ``values`` itself, each group
    reads the values that the groups before it wrote. With ``mixed`` the
    stage games go through ``matrix_games.solve_mixed``, not ``solve_many``."""
    new = np.zeros(model.n_states) if new is None else new
    strategies, gap = [], 0.0
    for b in groups:
        stage = _stage(model, b, values)
        if mixed:
            new[b.states], rows, cols, gaps = matrix_games.solve_mixed(stage)
        else:
            new[b.states], rows, cols = matrix_games.solve_many(stage)
            gaps = matrix_games.exploitability(stage, rows, cols)
        strategies.append((b, rows, cols))
        gap = max(gap, float(gaps.max()))
    return new, strategies, gap


def _with_absorbing(model: GameModel, strategies) -> list:
    """One sweep's ``(block, rows, cols)`` stage strategies, with the
    absorbing state's own row block playing uniformly."""
    a = model.absorbing
    if a is None:
        return strategies
    b = next(b for b in model.blocks if a in b.states)
    uniform = [np.ones((1, c)) / c for c in b.succ.shape[1:3]]
    for u in uniform:
        u.setflags(write=False)
    return [*strategies, (take_rows(b, b.states == a), *uniform)]


def _stage_policies(model: GameModel, strategies) -> tuple[MixedPolicy, MixedPolicy]:
    """The policy pair of one sweep, as row views of the stage solutions;
    the absorbing state plays uniformly."""
    strategies = _with_absorbing(model, strategies)
    return tuple(
        MixedPolicy(by_state(model.n_states, [(s[0].states, s[k]) for s in strategies]))
        for k in (1, 2)
    )


def _stage_view(model: GameModel, strategies, fixed_player: str) -> MdpView:
    """``fix_player`` on one sweep's stage strategies of ``fixed_player``,
    built from their stacked rows without a check; the absorbing state plays
    uniformly."""
    k = 1 if fixed_player == PLAYER_A else 2
    return fix_rows(model, [(s[0], s[k]) for s in _with_absorbing(model, strategies)],
                    fixed_player)


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

    Infinite horizon: each iteration solves the stage games at ``V`` (one
    Shapley sweep), then tries a Newton step (Pollatschek and Avi-Itzhak
    1969): the exact value of the stage strategy pair becomes ``V`` if a
    sweep there halves the residual ``max |TV - V|``, which near the
    solution then falls quadratically. Newton steps alone may not converge,
    so otherwise, or if the pair's chain is improper, a Hoffman–Karp step
    sets ``V`` to B's exact best response to A's stage strategies ``mu``
    (reusing the Newton sweep if it lands on the Newton value bit for bit).
    The solve returns B's response to ``mu`` once A's response to ``nu``
    lies at most ``tol`` (> 0) above it at every state. This certificate
    runs once the residual is at most ``tol`` or at its floor (the stage
    gap or a few ulps of ``max |V|``), but waits for a kept Newton step
    that moves ``V`` by more than ``tol``: waste N=5 at ``tol=1e-8`` takes
    6 sweeps and one certificate. The loop's sweeps go through
    ``matrix_games.solve_mixed``; the certificate certifies, and returns,
    simplex vertices of the same stage games. At the floor,
    ``NoConvergence`` names the width reached, the stage gap and ``max |V|``.
    ``max_iter`` caps the iterations of either kind. A time-embedded game
    takes one backward pass, its stage games period by period, the last
    first, each reading the next period's final values; ``tol`` is only
    range-checked.
    """
    if isinstance(model.regime, FiniteHorizon):
        raise ValueError("embed a finite-horizon game before solving")
    check_tol(tol)
    _integer(max_iter, "max_iter", 1)
    groups = _stage_groups(model)
    V = np.zeros(model.n_states)
    if model.horizon is not None:
        late = [take_rows(b, at) for t in range(model.horizon - 1, -1, -1) for b in groups
                if (at := model.period[b.states] == t).any()]
        _, strategies, _ = _sweep(model, late, V, V)
        V.setflags(write=False)
        return (V, *_stage_policies(model, strategies))
    if tol == 0.0:
        raise ValueError("tol must be positive: it is the certified interval width")
    swept = _sweep(model, groups, V, mixed=True)
    for _ in range(max_iter):
        TV, strategies, gap = swept
        residual = float(np.abs(TV - V).max())
        # No iteration can push the residual below the stage solutions' own
        # error or a few ulps of the values.
        scale = float(np.abs(TV).max())
        floor = max(gap, 4.0 * np.finfo(float).eps * scale)
        ready = residual <= max(tol, floor)
        newton = None
        try:
            J = _pair_values(model, strategies)
        except ImproperPair:
            J = None
        # The certificate waits for a kept Newton step that moves V by more
        # than tol.
        if ready and J is not None and residual > floor and float(np.abs(J - V).max()) > tol:
            newton = _sweep(model, groups, J, mixed=True)
            ready = not float(np.abs(newton[0] - J).max()) < residual / 2
        if ready:
            # Certify simplex vertices: against an equalizing opponent every
            # response ties, and the tol=0 polish creeps an ulp at a time.
            vertices = [(b, *matrix_games.solve_many(_stage(model, b, V))[1:])
                        if matrix_games.equalizable(b.cost.shape) else (b, rows, cols)
                        for b, rows, cols in strategies]
            # If A's response is unbounded, so is the width: B's is not needed.
            try:
                up, _ = solve_view(_stage_view(model, vertices, PLAYER_B), tol=0.0)
            except UnboundedValue:
                width = np.inf
            else:
                lo, _ = solve_view(_stage_view(model, vertices, PLAYER_A), tol=0.0)
                width = float((up - lo).max())
            if width <= tol:
                return (lo, *_stage_policies(model, vertices))
            if residual <= floor:
                raise NoConvergence(
                    f"residual {residual:.3e} is within the stage gap {gap:.3e} or a few "
                    f"ulps of max |V| {scale:.3e}; certified width {width:.3e} > tol {tol:.3e}",
                    width,
                )
        # Newton step: the exact value of the stage pair, kept if its sweep
        # halves the residual.
        if J is not None:
            if newton is None:
                newton = _sweep(model, groups, J, mixed=True)
            if float(np.abs(newton[0] - J).max()) < residual / 2:
                V, swept = J, newton
                continue
        V, _ = _howard(_stage_view(model, strategies, PLAYER_A))
        swept = (newton if J is not None and np.array_equal(V, J)
                 else _sweep(model, groups, V, mixed=True))
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
    checks need. A time-embedded view is acyclic and solved by backward
    induction over its period layout (``MdpView.periods``): from the last
    period to the first, ``V[X] = opt(lookahead)`` on the rows ``X`` of the
    period alone. A full sweep then polishes those values to an exact
    fixed point of ``lookahead``, whatever ``tol``: it moves no bit unless
    the row slices rounded differently, and each further sweep (at most
    ``horizon + 1`` in all) fixes one more period. Actions are the last
    sweep's, ties broken toward the lowest index.
    """
    if view.horizon is None and isinstance(view.regime, FiniteHorizon):
        raise ValueError("embed a finite-horizon view before solving")
    check_tol(tol)
    if view.horizon is not None:
        V, qa = _polish(view, _backward(view), None, 0.0, view.horizon + 1)
    else:
        V, qa = _polish(view, *_newton(view, *_howard(view)), tol, MAX_SWEEPS)
    V.setflags(write=False)
    return V, view.optimizer.first(qa, axis=1)


def _backward(view: MdpView) -> np.ndarray:
    """Backward induction on a time-embedded view: ``lookahead`` on one
    period's rows at a time, the last period first; the absorbing state
    keeps 0."""
    opt = view.optimizer.opt
    V = np.zeros(view.n_states)
    for p in reversed(view.periods):
        V[p.states] = opt.reduce(lookahead(view, V, p.states), axis=1)
    return V


def _proper_start(view: MdpView) -> np.ndarray:
    """A proper policy of an SSP view: each state's lowest action that
    enters the set ``games.absorbing_attractor`` reached before it."""
    reached, policy = absorbing_attractor(view.succ, view.prob, view.absorbing)
    if not reached.all():
        x = np.flatnonzero(~reached)[0]
        raise UnboundedValue(f"state {x} cannot reach the absorbing state; improper")
    return policy


def _howard(view: MdpView) -> tuple[np.ndarray, np.ndarray]:
    """Values of the final policy of Howard policy iteration on a view, and
    their ``lookahead``."""
    first, alpha = view.optimizer.first, regime_alpha(view.regime)
    rows = np.arange(view.n_states)
    policy = _proper_start(view) if view.absorbing is not None else first(view.cost, axis=1)
    for _ in range(MAX_SWEEPS):
        V = _chain_values(view.succ[:, rows, policy], view.prob[:, rows, policy],
                          view.cost[rows, policy], alpha, view.absorbing)
        if V is None:
            # A strict gain closed a cycle whose average cost favours the
            # responder: the value is unbounded.
            raise UnboundedValue(
                f"improving step made the policy improper; value {-view.optimizer.pad:+}"
            )
        qa = lookahead(view, V)
        best = first(qa, axis=1)
        current = qa[rows, policy]
        gain = np.abs(qa[rows, best] - current)
        switch = gain > 1e-12 * np.maximum(1.0, np.abs(current))
        if not switch.any():
            return V, qa
        policy = np.where(switch, best, policy)
    raise NoConvergence(f"policy iteration still switching after {MAX_SWEEPS} steps", 0.0)


def _newton(view: MdpView, V: np.ndarray, qa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual-correction (Newton) steps from ``V``, whose lookahead is
    ``qa``: add the solution ``d`` of ``(I - alpha P_pi) d = opt(qa) - V``,
    where ``pi`` is greedy on ``qa``, while the sup residual strictly falls.
    Returns the values of least residual and their lookahead. A greedy
    ``pi`` that cannot absorb (an exact tie with a zero-cost loop) ends the
    steps, as its system is singular."""
    (opt, first, _), alpha = view.optimizer, regime_alpha(view.regime)
    rows, best, least = np.arange(view.n_states), (V, qa), np.inf
    for _ in range(MAX_SWEEPS):
        r = opt.reduce(qa, axis=1) - V
        if not float(np.abs(r).max()) < least:  # NaN included
            break
        best, least = (V, qa), float(np.abs(r).max())
        pi = first(qa, axis=1)
        d = None if least == 0.0 else _chain_values(
            view.succ[:, rows, pi], view.prob[:, rows, pi], r, alpha, view.absorbing)
        if d is None:
            break
        V = V + d
        qa = lookahead(view, V)
    return best


def _polish(view: MdpView, V: np.ndarray, qa: np.ndarray | None, tol: float, max_sweeps: int):
    """Sweep ``V = opt(lookahead(view, V))`` until no value moves by more
    than ``tol``; return the last values and action values. ``qa`` is the
    lookahead at ``V`` when the caller has it. From Newton's values this
    takes a few sweeps; from values with a larger residual the sweeps crawl
    at the chain's contraction rate.

    Brent's method spots a float cycle. The sweep is monotone (nonnegative
    probabilities, and each sum its terms' exact sum rounded once, unless
    its error terms round too), so the elementwise minimum ``L`` of the
    cycle has ``T(L) <= L``, and sweeps restarted from it descend to a
    fixed point.
    """
    opt = view.optimizer.opt
    mark, lam, power = V, 0, 1
    for _ in range(max_sweeps):
        qa = lookahead(view, V) if qa is None else qa
        new = opt.reduce(qa, axis=1)
        delta = float(np.abs(new - V).max())
        V = new
        if delta <= tol:
            return V, qa
        qa = None
        lam += 1
        if np.array_equal(V, mark):
            low = V
            for _ in range(lam - 1):
                V = opt.reduce(lookahead(view, V), axis=1)
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
    _integer(rounds, "rounds", 0)
    check_tol(tol)
    mu, nu = mu0, nu0
    J = evaluate_policy_pair(model, mu, nu)
    recs = [PolicyIterationRound(mu=mu, nu=nu, values=J)]
    deltas: list[float] = []
    failure = None
    groups = _stage_groups(model)
    for k in range(rounds):
        _, strategies, _ = _sweep(model, groups, J)
        try:
            J_new = _pair_values(model, strategies)
        except ImproperPair as exc:
            failure = f"round {k + 1}: {exc}"
            break
        deltas.append(float(np.abs(J_new - J).max()))
        (mu, nu), J = _stage_policies(model, strategies), J_new
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
