"""Independent oracles for the test suite.

Everything here recomputes expected values from first principles (episodic
simulation, forward distribution recursions, closed forms) without going
through the code paths under test.
"""

from __future__ import annotations

import numpy as np

from zsgdual.games import (
    Discounted,
    FiniteHorizon,
    GameModel,
    MdpView,
    MixedPolicy,
    Ssp,
    stack_view,
)


def _draw(cum: np.ndarray, r: float) -> int:
    return int(np.searchsorted(cum, r, side="right").clip(max=len(cum) - 1))


def rollout_pair(
    model: GameModel,
    mu: MixedPolicy,
    nu: MixedPolicy,
    x0: int,
    n_episodes: int,
    seed: int,
    step_cap: int = 100_000,
) -> tuple[float, float]:
    """Episodic Monte Carlo estimate of the pair's cost-to-go at x0.

    Discounting is handled by geometric killing (continue w.p. alpha), which
    keeps the estimator unbiased. Returns (mean, standard error).
    """
    rng = np.random.default_rng(seed)
    alpha = model.regime.alpha if isinstance(model.regime, Discounted) else 1.0
    absorbing = model.regime.absorbing if isinstance(model.regime, Ssp) else None
    cum_mu = [np.cumsum(v) for v in mu.probs]
    cum_nu = [np.cumsum(v) for v in nu.probs]
    cum_p = [np.cumsum(t, axis=2) for t in model.transition]

    totals = np.empty(n_episodes)
    for ep in range(n_episodes):
        x = x0
        total = 0.0
        for _ in range(step_cap):
            if x == absorbing:
                break
            u = _draw(cum_mu[x], rng.random())
            v = _draw(cum_nu[x], rng.random())
            j = _draw(cum_p[x][u, v], rng.random())
            total += model.cost[x][u, v, j]
            x = j
            # Kill after the stage: stage t then carries weight alpha^t.
            if alpha < 1.0 and rng.random() >= alpha:
                break
        else:
            raise RuntimeError("episode failed to terminate")
        totals[ep] = total
    return float(totals.mean()), float(totals.std(ddof=1) / np.sqrt(n_episodes))


def finite_forward_value(
    model: GameModel, mu: MixedPolicy, nu: MixedPolicy, x0: int, periods: int
) -> float:
    """Exact expected total cost over a fixed number of periods, by pushing
    the state distribution forward on the raw (unembedded) game."""
    n = model.n_states
    P = np.zeros((n, n))
    G = np.zeros(n)
    for i in range(n):
        P[i] = np.einsum("u,v,uvj->j", mu[i], nu[i], model.transition[i])
        G[i] = np.einsum(
            "u,v,uvj,uvj->", mu[i], nu[i], model.transition[i], model.cost[i]
        )
    dist = np.zeros(n)
    dist[x0] = 1.0
    total = 0.0
    for _ in range(periods):
        total += float(dist @ G)
        dist = dist @ P
    return total


def two_by_two_game_value(R: np.ndarray) -> float:
    """Closed-form value of a 2x2 matrix game via support enumeration."""
    R = np.asarray(R, dtype=float)
    for i in range(2):
        for j in range(2):
            if R[i, j] >= R[:, j].max() and R[i, j] <= R[i, :].min():
                return float(R[i, j])
    den = R[0, 0] + R[1, 1] - R[0, 1] - R[1, 0]
    return float((R[0, 0] * R[1, 1] - R[0, 1] * R[1, 0]) / den)


def random_discounted_game(
    rng: np.random.Generator,
    n_states: int = 4,
    max_actions: int = 3,
    alpha: float = 0.85,
) -> GameModel:
    from zsgdual.games import make_game

    transition, cost = [], []
    for _ in range(n_states):
        na = int(rng.integers(1, max_actions + 1))
        nb = int(rng.integers(1, max_actions + 1))
        p = rng.dirichlet(np.ones(n_states), size=(na, nb))
        g = rng.uniform(-5.0, 5.0, size=(na, nb, n_states))
        transition.append(p)
        cost.append(g)
    return make_game(Discounted(alpha=alpha), transition, cost, root=0)


def random_ssp_game(
    rng: np.random.Generator, n_states: int = 4, max_actions: int = 2
) -> GameModel:
    """Random absorbing-state game where every action can terminate."""
    from zsgdual.games import make_game

    absorbing = n_states - 1
    transition, cost = [], []
    for i in range(n_states - 1):
        na = int(rng.integers(1, max_actions + 1))
        nb = int(rng.integers(1, max_actions + 1))
        p = rng.dirichlet(np.ones(n_states), size=(na, nb))
        p[:, :, absorbing] += 0.2  # uniform absorption floor keeps pairs proper
        p /= p.sum(axis=2, keepdims=True)
        g = rng.uniform(0.0, 3.0, size=(na, nb, n_states))
        transition.append(p)
        cost.append(g)
    p_abs = np.zeros((1, 1, n_states))
    p_abs[0, 0, absorbing] = 1.0
    transition.append(p_abs)
    cost.append(np.zeros((1, 1, n_states)))
    return make_game(Ssp(absorbing=absorbing), transition, cost, root=0)


def random_policy(rng: np.random.Generator, model: GameModel, player: str):
    from zsgdual.games import PLAYER_A, make_policy

    counts = model.actions_a if player == PLAYER_A else model.actions_b
    return make_policy([rng.dirichlet(np.ones(c)) for c in counts])


def random_finite_game(
    rng: np.random.Generator,
    n_states: int = 5,
    max_actions: int = 3,
    periods: int = 3,
    successors: int = 3,
) -> GameModel:
    """Random finite-horizon game with sparse transitions (unembedded)."""
    from zsgdual.games import make_game

    transition, cost = [], []
    for _ in range(n_states):
        na = int(rng.integers(1, max_actions + 1))
        nb = int(rng.integers(1, max_actions + 1))
        p = np.zeros((na, nb, n_states))
        for a in range(na):
            for b in range(nb):
                support = rng.choice(n_states, size=successors, replace=False)
                p[a, b, support] = rng.dirichlet(np.ones(successors))
        transition.append(p)
        cost.append(rng.uniform(-3.0, 3.0, size=(na, nb, n_states)))
    return make_game(FiniteHorizon(periods=periods), transition, cost, root=0)


# ---------------------------------------------------------------------------
# Scalar dual-bound recursions: one scenario at a time, in plain loops. The
# library evaluates blocks of scenarios as array rows; these are the
# references its per-scenario values must equal bit for bit, so they repeat
# its arithmetic expression for expression.


def _icdf(cum: np.ndarray, w: float) -> int:
    j = int(np.searchsorted(cum, w, side="right"))
    if j >= len(cum):  # final cumsum fell short of 1 by rounding
        j = len(cum) - 1
        while j > 0 and cum[j] == cum[j - 1]:
            j -= 1
    return j


def finite_scenario_value(view: MdpView, scenario: np.ndarray, h: np.ndarray) -> float:
    """Inner value of one scenario on a time-embedded view: backward
    induction with every action's next state drawn from the shared uniform."""
    opt = np.max if view.orientation == "max" else np.min
    V = np.zeros(view.n_states)
    for t in range(view.horizon - 1, -1, -1):
        w = float(scenario[t])
        for x in range(view.n_states):
            if x == view.absorbing or view.period[x] != t:
                continue
            base = view.cost[x] + view.kernel[x] @ h
            cum = np.cumsum(view.kernel[x], axis=1)
            nxt = np.array([_icdf(cum[a], w) for a in range(cum.shape[0])])
            V[x] = opt(base + (V[nxt] - h[nxt]))
    return float(V[view.root])


def ssp_path_value(view: MdpView, path: np.ndarray, q_kernel: np.ndarray, h: np.ndarray) -> float:
    """Weak-form inner value of one reference path, walked backward with
    likelihood ratios rho = p(next|x,a) / q(next|x)."""
    stacked = stack_view(view)
    base = stacked.cost + np.einsum("san,n->sa", stacked.kernel, h)
    opt = np.max if view.orientation == "max" else np.min
    W = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(path) - 2, -1, -1):
            x, xn = int(path[t]), int(path[t + 1])
            r = stacked.row_of[x]
            rho = stacked.kernel[r, :, xn] / q_kernel[x, xn]
            carry = rho * (W - h[xn])
            if W - h[xn] != 0.0:
                carry = np.where(rho == 0.0, 0.0, carry)
            W = float(opt(base[r] + carry))
    return W


def reference_path(q_kernel: np.ndarray, absorbing: int, x0: int, seed: int, index: int) -> np.ndarray:
    """Path ``index`` of a dual estimate, redrawn one uniform at a time."""
    from zsgdual.duality import inverse_cdf_transition, scenario_rng

    rng = scenario_rng(seed, index)
    path = [x0]
    while path[-1] != absorbing:
        path.append(inverse_cdf_transition(q_kernel[path[-1]], float(rng.random())))
    return np.array(path)
