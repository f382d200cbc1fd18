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
    regime_alpha,
)
from zsgdual.matrix_games import PIVOT_TOL


_ROLLOUT_ROWS = 4096  # episodes stepped side by side
_ROLLOUT_STEPS = 32  # steps per block of uniforms drawn from an episode's stream


def _padded_cumsum(arrays, shape) -> np.ndarray:
    """Cumulative sums along the last axis, stacked into ``shape`` with +inf
    in the padding, so that counting entries <= w never counts a pad."""
    out = np.full(shape, np.inf)
    for i, a in enumerate(arrays):
        out[(i, *(slice(0, k) for k in a.shape))] = np.cumsum(a, axis=-1)
    return out


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
    keeps the estimator unbiased. Episodes step side by side, one per array
    row; episode ``e`` reads four uniforms per step (A's action, B's action,
    next state, kill) from its own stream ``default_rng([seed, e])``, so its
    total does not depend on the other episodes. Returns (mean, standard
    error).
    """
    alpha = model.regime.alpha if isinstance(model.regime, Discounted) else 1.0
    absorbing = model.regime.absorbing if isinstance(model.regime, Ssp) else -1
    n, amax, bmax = model.n_states, model.actions_a.max(), model.actions_b.max()
    cum_mu = _padded_cumsum(mu.probs, (n, amax))
    cum_nu = _padded_cumsum(nu.probs, (n, bmax))
    cum_p = _padded_cumsum(model.transition, (n, amax, bmax, n))
    cost = np.zeros((n, amax, bmax, n))
    for i, g in enumerate(model.cost):
        cost[i, : g.shape[0], : g.shape[1]] = g

    def draw(cum, w, count):
        # Smallest index whose cumulative probability exceeds w; the last
        # real index when rounding leaves the final cumsum short of w.
        return np.minimum((cum <= w[:, None]).sum(axis=1), count - 1)

    totals = np.zeros(n_episodes)
    block = 4 * _ROLLOUT_STEPS
    for lo in range(0, n_episodes, _ROLLOUT_ROWS):
        rows = np.arange(lo, min(lo + _ROLLOUT_ROWS, n_episodes))
        streams = [np.random.default_rng([seed, e]) for e in rows]
        x = np.full(len(rows), x0)
        for step in range(step_cap):
            alive = x != absorbing
            rows, x = rows[alive], x[alive]
            if not len(rows):
                break
            if step % _ROLLOUT_STEPS == 0:
                uniforms = np.stack([streams[e - lo].random(block) for e in rows])
            else:
                uniforms = uniforms[alive]
            w = uniforms[:, 4 * (step % _ROLLOUT_STEPS) :][:, :4]
            u = draw(cum_mu[x], w[:, 0], model.actions_a[x])
            v = draw(cum_nu[x], w[:, 1], model.actions_b[x])
            j = draw(cum_p[x, u, v], w[:, 2], n)
            totals[rows] += cost[x, u, v, j]
            # Kill after the stage: stage t then carries weight alpha^t.
            x = np.where(w[:, 3] >= alpha, absorbing, j)
        else:
            raise RuntimeError("episode failed to terminate")
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


def random_sparse_ssp_game(
    rng: np.random.Generator, n_states: int = 8, max_actions: int = 3
) -> GameModel:
    """Random absorbing-state game whose action pairs each move to one or
    two states, so a view with a pure fixed policy reaches few successors."""
    from zsgdual.games import make_game

    absorbing = n_states - 1
    transition, cost = [], []
    for i in range(n_states - 1):
        na = int(rng.integers(1, max_actions + 1))
        nb = int(rng.integers(1, max_actions + 1))
        p = np.zeros((na, nb, n_states))
        for u in range(na):
            for v in range(nb):
                succ = rng.choice(n_states, size=int(rng.integers(1, 3)), replace=False)
                p[u, v, succ] = rng.dirichlet(np.ones(len(succ)))
        transition.append(p)
        cost.append(rng.uniform(0.0, 3.0, size=(na, nb, n_states)))
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
# Scalar recursions: one state and one scenario at a time, in plain loops.
# The library sweeps all states and evaluates blocks of scenarios as array
# rows; these are the references its values must equal bit for bit, so they
# repeat its arithmetic expression for expression. A state's padded action
# row of a view is multiplied as a whole, as the library does: a dot product
# over a sliced row can round differently.


def icdf(cum: np.ndarray, w: float) -> int:
    """Smallest index whose CDF value strictly exceeds ``w``; a draw at or
    above a final cumulative sum that fell short of 1 walks back over the
    trailing entries that do not rise. The library takes that index from a
    per-CDF table (``duality._last_rise``) instead of this loop."""
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
            a = view.n_actions[x]
            base = view.cost[x] + view.kernel[x] @ h
            cum = np.cumsum(view.kernel[x, :a], axis=1)
            nxt = np.array([icdf(c, w) for c in cum])
            V[x] = opt(base[:a] + (V[nxt] - h[nxt]))
    return float(V[view.root])


def ssp_path_value(
    view: MdpView,
    path: np.ndarray,
    q_kernel: np.ndarray,
    h: np.ndarray,
    base: np.ndarray | None = None,
) -> float:
    """Weak-form inner value of one reference path, walked backward with
    likelihood ratios rho = p(next|x,a) / q(next|x). ``base`` replaces the
    action values ``cost + kernel @ h`` of every state when given."""
    opt = np.max if view.orientation == "max" else np.min
    W = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(len(path) - 2, -1, -1):
            x, xn = int(path[t]), int(path[t + 1])
            if base is None:
                values = view.cost[x] + view.kernel[x] @ h
            else:
                values = base[x]
            rho = view.kernel[x, :, xn] / q_kernel[x, xn]
            carry = rho * (W - h[xn])
            if W - h[xn] != 0.0:
                carry = np.where(rho == 0.0, 0.0, carry)
            W = float(opt(values + carry))
    return W


def finite_backward_induction(view: MdpView) -> tuple[np.ndarray, np.ndarray]:
    """Optimal value and lowest-index optimal action of a time-embedded view,
    one state at a time from the last period back to the first."""
    opt = np.max if view.orientation == "max" else np.min
    argopt = np.argmax if view.orientation == "max" else np.argmin
    V = np.zeros(view.n_states)
    act = np.zeros(view.n_states, dtype=int)
    order = sorted(
        (x for x in range(view.n_states) if x != view.absorbing),
        key=lambda x: -int(view.period[x]),
    )
    for x in order:
        vals = view.cost[x] + view.kernel[x] @ V
        V[x] = opt(vals)
        act[x] = argopt(vals)
    return V, act


def value_iteration(
    view: MdpView, tol: float, max_sweeps: int = 100_000
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal value and lowest-index optimal action of an infinite-horizon
    view by plain value-iteration sweeps from zero, stopped once a sweep
    moves no value by more than ``tol``."""
    opt = np.max if view.orientation == "max" else np.min
    argopt = np.argmax if view.orientation == "max" else np.argmin
    alpha = regime_alpha(view.regime)
    V = np.zeros(view.n_states)
    for _ in range(max_sweeps):
        qa = view.cost + alpha * (view.kernel @ V)
        new = opt(qa, axis=1)
        delta = float(np.abs(new - V).max())
        V = new
        if delta <= tol:
            return V, argopt(qa, axis=1)
    raise RuntimeError(f"value iteration: delta {delta:.3e} after {max_sweeps} sweeps")


def reference_path(q_kernel: np.ndarray, absorbing: int, x0: int, seed: int, index: int) -> np.ndarray:
    """Path ``index`` of a dual estimate, redrawn one uniform at a time."""
    from zsgdual.duality import inverse_cdf_transition, scenario_rng

    rng = scenario_rng(seed, index)
    path = [x0]
    while path[-1] != absorbing:
        path.append(inverse_cdf_transition(q_kernel[path[-1]], float(rng.random())))
    return np.array(path)


# ---------------------------------------------------------------------------
# Matrix games one at a time: the scalar Bland-rule simplex the batched
# ``matrix_games.solve_many`` must equal bit for bit, and a Shapley sweep
# that solves one state's stage game after another with it.

def simplex_max_ones(A: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Maximize sum(q) s.t. A q <= 1, q >= 0 with A > 0, one pivot and one
    row at a time. Returns (objective, primal q, dual p)."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = 1.0
    T[m, :n] = 1.0
    basis = list(range(n, n + m))

    while True:
        enter = -1
        for j in range(n + m):  # Bland: lowest eligible index enters
            if T[m, j] > PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            break
        ratio = np.inf
        leave = -1
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_TOL:
                r = T[i, -1] / a
                if r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave < 0:
            raise RuntimeError("simplex detected an unbounded program")
        piv = T[leave, enter]
        T[leave] /= piv
        for i in range(m + 1):
            if i != leave and T[i, enter] != 0.0:
                T[i] -= T[i, enter] * T[leave]
        basis[leave] = enter

    q = np.zeros(n)
    for i, b in enumerate(basis):
        if b < n:
            q[b] = T[i, -1]
    p = -T[m, n : n + m]
    return -T[m, -1], q, p


def matrix_game(R: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(value, row strategy, column strategy) of one matrix game."""
    R = np.asarray(R, dtype=float)
    lo = float(R.min())
    _, e = np.frexp(float(R.max()) - lo)
    obj, q, p = simplex_max_ones(np.ldexp(R - lo, -e) + 1.0)
    v_scaled = 1.0 / obj
    col = np.maximum(q, 0.0) * v_scaled
    row = np.maximum(p, 0.0) * v_scaled
    col /= col.sum()
    row /= row.sum()
    return float(np.ldexp(v_scaled - 1.0, e)) + lo, row, col


def shapley_sweep(
    model: GameModel, values: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """One Shapley sweep, state by state: the new values and each state's
    row and column strategies (uniform at the absorbing state)."""
    alpha = regime_alpha(model.regime)
    new = np.zeros(model.n_states)
    mu, nu = [], []
    for i in range(model.n_states):
        if i == model.absorbing:
            mu.append(np.ones(model.actions_a[i]) / model.actions_a[i])
            nu.append(np.ones(model.actions_b[i]) / model.actions_b[i])
            continue
        R = model.expected_cost[i] + alpha * np.einsum(
            "uvj,j->uv", model.transition[i], values
        )
        new[i], y, z = matrix_game(R)
        mu.append(y)
        nu.append(z)
    return new, mu, nu


def shapley_iteration(
    model: GameModel, tol: float
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Shapley sweeps from zero until no value moves by more than tol."""
    J = np.zeros(model.n_states)
    while True:
        J_new, mu, nu = shapley_sweep(model, J)
        delta = float(np.abs(J_new - J).max())
        J = J_new
        if delta <= tol:
            return J, mu, nu


# ---------------------------------------------------------------------------
# Games layer, one table entry at a time. The library builds, checks and
# embeds games with array expressions per state; these loops over action
# pairs, destinations and sites are the references its output must equal
# byte for byte.


def validate_by_entry(model: GameModel) -> list[tuple[str, str]]:
    """``games.validate`` with every per-state check run entry by entry."""
    from zsgdual.games import SIMPLEX_TOL

    out: list[tuple[str, str]] = []
    n = model.n_states
    if len(model.transition) != n or len(model.cost) != n:
        out.append(("model", "transition/cost length differs from n_states"))
        return out
    root = model.root
    if root is not None and not (
        isinstance(root, (int, np.integer)) and 0 <= root < n
    ):
        out.append(("model", f"root {root!r} is not a state index in [0, {n})"))
    if model.labels is not None and len(model.labels) != n:
        out.append(("model", f"{len(model.labels)} labels for {n} states"))
    for i in range(n):
        p, g = model.transition[i], model.cost[i]
        shape = (int(model.actions_a[i]), int(model.actions_b[i]), n)
        if p.shape != shape or g.shape != shape:
            out.append((f"state {i}", f"tensor shape {p.shape} != {shape}"))
            continue
        if model.actions_a[i] < 1 or model.actions_b[i] < 1:
            out.append((f"state {i}", "empty action set"))
        if not all(np.isfinite(x) for x in [*p.flat, *g.flat]):
            out.append((f"state {i}", "non-finite transition probability or cost"))
        for u in range(shape[0]):
            for v in range(shape[1]):
                row = p[u, v]
                if np.any(row < 0):
                    out.append(
                        (f"state {i}, u={u}, v={v}", "negative transition probability")
                    )
                s = float(row.sum())
                if abs(s - 1.0) > SIMPLEX_TOL:
                    out.append(
                        (f"state {i}, u={u}, v={v}", f"row sums to {s!r}, not 1")
                    )

    reg = model.regime
    if isinstance(reg, Discounted) and not (0.0 < reg.alpha < 1.0):
        out.append(("regime", f"alpha {reg.alpha} outside (0, 1)"))
    if isinstance(reg, FiniteHorizon) and reg.periods < 1:
        out.append(("regime", f"periods {reg.periods} < 1"))
    if isinstance(reg, Ssp):
        a = reg.absorbing
        if not 0 <= a < n:
            out.append(("regime", f"absorbing state {a} out of range"))
        elif model.transition[a].shape[2] == n:
            p, g = model.transition[a], model.cost[a]
            stays = [abs(x - 1.0) <= SIMPLEX_TOL for x in p[:, :, a].flat]
            if not all(stays):
                out.append(
                    (f"state {a}", "absorbing state does not self-transition w.p. 1")
                )
            if np.any(g != 0.0):
                out.append((f"state {a}", "absorbing state has nonzero cost"))
    if model.horizon is not None:
        if model.period is None:
            out.append(("model", "embedded model lacks period tags"))
        elif isinstance(reg, Ssp):
            if model.period[reg.absorbing] != model.horizon:
                out.append(("model", "terminal state not tagged with final period"))
            for i in range(n):
                if i == reg.absorbing:
                    continue
                t = model.period[i]
                succ = np.flatnonzero(model.transition[i].max(axis=(0, 1)) > 0)
                bad = [int(j) for j in succ if model.period[j] != t + 1]
                if bad:
                    out.append(
                        (f"state {i}", f"transitions skip a period (to {bad})")
                    )
    return out


def embed_by_entry(model: GameModel) -> GameModel:
    """``games.embed_finite_horizon`` copying one destination column at a time."""
    from zsgdual.games import make_game

    T = model.regime.periods
    root = model.root
    level = list(range(model.n_states)) if root is None else [root]
    pairs: list[tuple[int, int]] = []
    for t in range(T):
        pairs.extend((t, i) for i in level)
        if t == T - 1:
            break
        nxt: set[int] = set()
        for i in level:
            reach = model.transition[i].max(axis=(0, 1)) > 0.0
            nxt.update(int(j) for j in np.flatnonzero(reach))
        level = sorted(nxt)

    index = {pair: k for k, pair in enumerate(pairs)}
    terminal = len(pairs)
    n_emb = terminal + 1
    transition, cost = [], []
    for t, i in pairs:
        na, nb = model.actions_a[i], model.actions_b[i]
        p = np.zeros((na, nb, n_emb))
        g = np.zeros((na, nb, n_emb))
        if t < T - 1:
            for j in range(model.n_states):
                col = model.transition[i][:, :, j]
                if not col.any():
                    continue
                k = index[(t + 1, j)]
                p[:, :, k] = col
                g[:, :, k] = model.cost[i][:, :, j]
        else:
            p[:, :, terminal] = 1.0
            g[:, :, terminal] = model.expected_cost[i]
        transition.append(p)
        cost.append(g)
    p_term = np.zeros((1, 1, n_emb))
    p_term[0, 0, terminal] = 1.0
    transition.append(p_term)
    cost.append(np.zeros((1, 1, n_emb)))
    return make_game(
        regime=Ssp(absorbing=terminal),
        transition=transition,
        cost=cost,
        labels=[f"t{t}:{model.label(i)}" for t, i in pairs] + ["end"],
        root=index[(0, root)] if root is not None else None,
        horizon=T,
        period=[t for t, _ in pairs] + [T],
        base_state=[i for _, i in pairs] + [-1],
    )


def waste_game_by_site(cfg) -> GameModel:
    """``builtin_games.build_waste_inspection_game`` adding each site's
    detection mass in its own step."""
    from zsgdual.games import make_game

    N = cfg.n_sites
    n_states = N * N + N + 1
    absorbing = N * N + N
    d = cfg.distances
    slope = (cfg.p_low - cfg.p_high) / ((cfg.k1 + cfg.k2) * float(d.max()))
    states = [(pu, pv, False) for pu in range(N) for pv in range(N)] + [
        (s, s, True) for s in range(N)
    ]
    clear_targets = np.arange(N)[:, None] * N + np.arange(N)[None, :]
    uu, vv = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    transition, cost, labels = [], [], []
    for pu, pv, caught in states:
        pd_site = cfg.p_high + slope * (cfg.k1 * d[:, pu] + cfg.k2 * d[:, pv])
        p = np.zeros((N, N, n_states))
        pd_grid = np.where(uu == vv, pd_site[np.minimum(uu, vv)], 0.0)
        p[uu, vv, clear_targets] = 1.0 - pd_grid
        for s in range(N):
            p[s, s, absorbing if caught else N * N + s] += pd_site[s]
        transition.append(p)
        cost.append(np.ones((N, N, n_states)))
        labels.append(f"d{pu + 1}:i{pv + 1}:{'caught' if caught else 'clear'}")
    p_abs = np.zeros((1, 1, n_states))
    p_abs[0, 0, absorbing] = 1.0
    transition.append(p_abs)
    cost.append(np.zeros((1, 1, n_states)))
    labels.append("out")
    return make_game(Ssp(absorbing=absorbing), transition, cost, labels=labels, root=0)


# ---------------------------------------------------------------------------
# Per-state loops that the library replaced with array passes or faster
# steps; the references its results must match.


def sweep_polished_view(view: MdpView) -> np.ndarray:
    """Optimal values of an infinite-horizon view the way ``solve_view`` took
    them before residual correction: Howard policy iteration, then plain
    sweeps ``opt(lookahead)`` to an exact float fixed point, restarted from
    the elementwise minimum of a float cycle when one is spotted (Brent)."""
    from zsgdual.games import lookahead
    from zsgdual.solvers import _howard

    opt = np.max if view.orientation == "max" else np.min
    V = _howard(view)
    mark, lam, power = V, 0, 1
    for _ in range(100_000):
        new = opt(lookahead(view, V), axis=1)
        if np.array_equal(new, V):
            return V
        V = new
        lam += 1
        if np.array_equal(V, mark):
            low = V
            for _ in range(lam - 1):
                V = opt(lookahead(view, V), axis=1)
                low = np.minimum(low, V)
            V, mark, lam, power = low, low, 0, 1
        elif lam == power:
            mark, lam, power = V, 0, 2 * power
    raise RuntimeError("sweeps found no float fixed point in 100,000 sweeps")


def check_policy_by_state(model: GameModel, policy: MixedPolicy, player: str) -> None:
    """``games.check_policy`` one state at a time: at the first faulty state
    in index order, a wrong length before a vector that is not a
    probability vector."""
    from zsgdual.games import PLAYER_A, PLAYER_B, SIMPLEX_TOL

    if player not in (PLAYER_A, PLAYER_B):
        raise ValueError(f"unknown player {player!r}")
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    if len(policy) != model.n_states:
        raise ValueError(
            f"policy covers {len(policy)} states, model has {model.n_states}"
        )
    for i in range(model.n_states):
        v = policy[i]
        if v.shape != (counts[i],):
            raise ValueError(
                f"state {i}: policy vector has length {v.shape[0]}, "
                f"expected {counts[i]}"
            )
        if (
            not np.isfinite(v).all()
            or np.any(v < -SIMPLEX_TOL)
            or abs(float(v.sum()) - 1.0) > SIMPLEX_TOL
        ):
            raise ValueError(f"policy at state {i} is not a probability vector: {v}")
