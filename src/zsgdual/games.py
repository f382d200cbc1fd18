"""Data model for finite dynamic zero-sum games.

A game is played by two players on a finite state space: player A (the
maximizer) picks an action ``u``, player B (the minimizer) simultaneously
picks ``v``, the system moves from state ``i`` to ``j`` with probability
``p[i][u][v][j]`` and B pays A the stage cost ``g[i][u][v][j]``. Mixed
(randomized) per-state policies, reduction to one-player decision problems
(``MdpView``, one padded array layout for every state, and ``lookahead``,
the one action-value expression every solver and dual estimator reads),
time embedding of finite-horizon games and JSON ingestion all live here.

All objects are immutable after construction and safe to share across
threads; every operation in this module is pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

SIMPLEX_TOL = 1e-12

PLAYER_A = "A"  # maximizer
PLAYER_B = "B"  # minimizer


# ---------------------------------------------------------------------------
# Regimes


@dataclass(frozen=True)
class FiniteHorizon:
    """Play for a fixed number of periods, then stop (no discounting)."""

    periods: int


@dataclass(frozen=True)
class Discounted:
    """Infinite horizon with discount factor ``alpha`` in (0, 1)."""

    alpha: float


@dataclass(frozen=True)
class Ssp:
    """Undiscounted infinite horizon with one absorbing terminal state."""

    absorbing: int


Regime = FiniteHorizon | Discounted | Ssp


def regime_alpha(regime: Regime) -> float:
    return regime.alpha if isinstance(regime, Discounted) else 1.0


# ---------------------------------------------------------------------------
# Core types


def _freeze(a: np.ndarray, dtype: type = float) -> np.ndarray:
    """A read-only contiguous view of ``a`` as ``dtype``; ``a`` itself stays
    writable (it is copied only when its layout or dtype differ)."""
    a = np.ascontiguousarray(a, dtype=dtype).view()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GameModel:
    """A finite two-player zero-sum stochastic game.

    ``transition[i]`` and ``cost[i]`` are arrays of shape
    ``(|U(i)|, |V(i)|, n_states)``; row ``transition[i][u][v]`` is the
    distribution of the next state and ``cost[i][u][v][j]`` is what B pays A
    on that move. ``expected_cost[i][u][v]`` is the stage cost averaged over
    the next state, derived once on construction; every solver reads it.
    Time-embedded models additionally carry a per-state ``period`` tag, the
    original ``base_state`` of each embedded state and the ``horizon``
    (number of decision periods).
    """

    n_states: int
    regime: Regime
    actions_a: np.ndarray
    actions_b: np.ndarray
    transition: tuple[np.ndarray, ...]
    cost: tuple[np.ndarray, ...]
    labels: tuple[str, ...] | None = None
    root: int | None = None
    horizon: int | None = None
    period: np.ndarray | None = None
    base_state: np.ndarray | None = None
    expected_cost: tuple[np.ndarray, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "expected_cost",
            tuple(
                _freeze(np.einsum("uvj,uvj->uv", p, g))
                for p, g in zip(self.transition, self.cost)
            ),
        )

    @property
    def absorbing(self) -> int | None:
        return self.regime.absorbing if isinstance(self.regime, Ssp) else None

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


def make_game(
    regime: Regime,
    transition: Sequence[np.ndarray],
    cost: Sequence[np.ndarray],
    labels: Sequence[str] | None = None,
    root: int | None = None,
    horizon: int | None = None,
    period: Sequence[int] | None = None,
    base_state: Sequence[int] | None = None,
) -> GameModel:
    """Assemble a GameModel from per-state tensors, freezing all arrays."""
    transition = tuple(_freeze(t) for t in transition)
    cost = tuple(_freeze(c) for c in cost)
    for i, (p, g) in enumerate(zip(transition, cost)):
        if p.ndim != 3 or p.shape != g.shape:
            raise ValueError(
                f"state {i}: transition shape {p.shape} and cost shape "
                f"{g.shape} must agree as (|U|, |V|, n)"
            )
    return GameModel(
        n_states=len(transition),
        regime=regime,
        actions_a=_freeze([t.shape[0] for t in transition], int),
        actions_b=_freeze([t.shape[1] for t in transition], int),
        transition=transition,
        cost=cost,
        labels=tuple(labels) if labels is not None else None,
        root=root,
        horizon=horizon,
        period=None if period is None else _freeze(period, int),
        base_state=None if base_state is None else _freeze(base_state, int),
    )


@dataclass(frozen=True)
class MixedPolicy:
    """One probability vector over the owning player's actions per state."""

    probs: tuple[np.ndarray, ...]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.probs[i]

    def __len__(self) -> int:
        return len(self.probs)


def make_policy(vectors: Iterable[np.ndarray]) -> MixedPolicy:
    return MixedPolicy(tuple(_freeze(np.atleast_1d(v)) for v in vectors))


def pure_policy(model: GameModel, player: str, actions: Sequence[int]) -> MixedPolicy:
    """Degenerate MixedPolicy playing ``actions[i]`` with probability one."""
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    return make_policy(np.eye(c)[a] for c, a in zip(counts, actions))


def check_policy(model: GameModel, policy: MixedPolicy, player: str) -> None:
    """Raise ValueError unless ``policy`` is valid for ``player`` on ``model``.

    One array pass flags every state that may be faulty (its sums test half
    the tolerance, as their order differs from ``_check_simplex``'s); the
    per-state checks then name the first faulty state, where a wrong length
    comes before a vector that is not a probability vector.
    """
    if player not in (PLAYER_A, PLAYER_B):
        raise ValueError(f"unknown player {player!r}")
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    if len(policy) != model.n_states:
        raise ValueError(
            f"policy covers {len(policy)} states, model has {model.n_states}"
        )
    lengths = np.array([len(v) if v.ndim == 1 else -1 for v in policy.probs])
    sizes = np.where(lengths == counts, counts, 0)
    suspect = sizes == 0  # a wrong length, or an empty vector, which sums to 0
    if not suspect.all():
        flat = np.concatenate([v for v, s in zip(policy.probs, suspect) if not s])
        starts = (np.cumsum(sizes) - sizes)[~suspect]
        ok = flat >= -SIMPLEX_TOL  # NaN fails here, +inf the sum test
        with np.errstate(over="ignore"):  # an overflowed sum is flagged
            sums = np.add.reduceat(np.where(ok, flat, 0.0), starts)
        suspect[~suspect] = ~np.logical_and.reduceat(ok, starts) | (
            np.abs(sums - 1.0) > 0.5 * SIMPLEX_TOL
        )
    for i in np.flatnonzero(suspect):
        v = policy[i]
        if v.shape != (counts[i],):
            raise ValueError(
                f"state {i}: policy vector has length {v.shape[0]}, "
                f"expected {counts[i]}"
            )
        _check_simplex(v, f"policy at state {i}")


def _check_simplex(v: np.ndarray, what: str) -> None:
    if (
        not np.isfinite(v).all()
        or np.any(v < -SIMPLEX_TOL)
        or abs(float(v.sum()) - 1.0) > SIMPLEX_TOL
    ):
        raise ValueError(f"{what} is not a probability vector: {v}")


@dataclass(frozen=True)
class MdpView:
    """One-player decision problem induced by fixing the other player.

    ``orientation`` is ``"max"`` when B was fixed (A, the maximizer, stays
    free) and ``"min"`` when A was fixed. Every state, the absorbing one
    included, is one row of two padded arrays: ``cost[x, a]`` is the
    expected stage cost of action ``a`` (shape ``(n_states, amax)``) and
    ``kernel[x, a]`` its next-state distribution (shape ``(n_states, amax,
    n_states)``). Only the first ``n_actions[x]`` slots of a row are real;
    the others carry cost -inf (max) or +inf (min) and an all-zero kernel
    row, so optimizing a row over its slots never picks one.
    """

    orientation: str
    n_states: int
    n_actions: np.ndarray
    cost: np.ndarray
    kernel: np.ndarray
    regime: Regime
    root: int | None = None
    horizon: int | None = None
    period: np.ndarray | None = None

    @property
    def absorbing(self) -> int | None:
        return self.regime.absorbing if isinstance(self.regime, Ssp) else None


def stack_view(
    cost: Sequence[np.ndarray], kernel: Sequence[np.ndarray], orientation: str
) -> tuple[np.ndarray, np.ndarray]:
    """Pad per-state action costs and kernels to the ``MdpView`` layout."""
    amax = max(len(c) for c in cost)
    pad = np.inf if orientation == "min" else -np.inf
    padded_cost = np.full((len(cost), amax), pad)
    padded_kernel = np.zeros((len(cost), amax, kernel[0].shape[1]))
    for x, (c, k) in enumerate(zip(cost, kernel)):
        padded_cost[x, : len(c)] = c
        padded_kernel[x, : len(c)] = k
    return _freeze(padded_cost), _freeze(padded_kernel)


def lookahead(view: MdpView, values: np.ndarray) -> np.ndarray:
    """Stage cost plus discounted expected ``values`` of every (state, action)
    slot of a view.

    The exact solvers and both dual inner problems read action values
    through this one expression; an exact-value generator cancels the
    inner continuation only because they agree bit for bit.
    """
    return view.cost + regime_alpha(view.regime) * (view.kernel @ values)


def fix_player(model: GameModel, fixed: MixedPolicy, fixed_player: str) -> MdpView:
    """Average out one player's mixed policy, leaving the other's MDP.

    Fixing B leaves A's maximization problem; fixing A leaves B's
    minimization problem. The view's arrays are built once, here, in the
    padded layout that ``MdpView`` describes.
    """
    check_policy(model, fixed, fixed_player)
    cost: list[np.ndarray] = []
    kernel: list[np.ndarray] = []
    for i in range(model.n_states):
        w = fixed[i]
        g_bar = model.expected_cost[i]
        if fixed_player == PLAYER_B:
            cost.append(g_bar @ w)
            kernel.append(np.einsum("v,uvj->uj", w, model.transition[i]))
        else:
            cost.append(w @ g_bar)
            kernel.append(np.einsum("u,uvj->vj", w, model.transition[i]))
    counts = model.actions_a if fixed_player == PLAYER_B else model.actions_b
    orientation = "max" if fixed_player == PLAYER_B else "min"
    padded_cost, padded_kernel = stack_view(cost, kernel, orientation)
    return MdpView(
        orientation=orientation,
        n_states=model.n_states,
        n_actions=counts.copy(),
        cost=padded_cost,
        kernel=padded_kernel,
        regime=model.regime,
        root=model.root,
        horizon=model.horizon,
        period=model.period,
    )


# ---------------------------------------------------------------------------
# Time embedding


def embed_finite_horizon(model: GameModel) -> GameModel:
    """Fold the period counter into the state of a finite-horizon game.

    States become (period, original state) pairs plus a single terminal
    state; transitions advance the period and the last period maps to the
    terminal state. When the model has a root, only pairs reachable from
    (0, root) are kept. Stage costs per destination are preserved exactly,
    except on the final move where the destination collapses to the
    terminal state and the expected stage cost is used.
    """
    if not isinstance(model.regime, FiniteHorizon):
        raise ValueError("embed_finite_horizon requires a finite-horizon game")
    T = model.regime.periods
    if T < 1:
        raise ValueError(f"horizon must be >= 1, got {T}")
    root = model.root

    # Enumerate (t, i) pairs breadth-first so indices come out period-ordered.
    level = list(range(model.n_states)) if root is None else [root]
    pairs: list[tuple[int, int]] = []
    for t in range(T):
        pairs.extend((t, i) for i in level)
        if t == T - 1:
            break
        reach = np.zeros(model.n_states, dtype=bool)
        for i in level:
            reach |= model.transition[i].max(axis=(0, 1)) > 0.0
        level = np.flatnonzero(reach).tolist()

    index = {pair: k for k, pair in enumerate(pairs)}
    terminal = len(pairs)
    n_emb = terminal + 1

    transition: list[np.ndarray] = []
    cost: list[np.ndarray] = []
    for t, i in pairs:
        na, nb = model.actions_a[i], model.actions_b[i]
        p = np.zeros((na, nb, n_emb))
        g = np.zeros((na, nb, n_emb))
        if t < T - 1:
            dest = np.flatnonzero(model.transition[i].any(axis=(0, 1)))
            cols = [index[(t + 1, j)] for j in dest]
            p[:, :, cols] = model.transition[i][:, :, dest]
            g[:, :, cols] = model.cost[i][:, :, dest]
        else:
            p[:, :, terminal] = 1.0
            g[:, :, terminal] = model.expected_cost[i]
        transition.append(p)
        cost.append(g)
    # Terminal: one action pair, self-loop, zero cost.
    p_term = np.zeros((1, 1, n_emb))
    p_term[0, 0, terminal] = 1.0
    transition.append(p_term)
    cost.append(np.zeros((1, 1, n_emb)))

    labels = [f"t{t}:{model.label(i)}" for t, i in pairs] + ["end"]
    period = [t for t, _ in pairs] + [T]
    base = [i for _, i in pairs] + [-1]
    return make_game(
        regime=Ssp(absorbing=terminal),
        transition=transition,
        cost=cost,
        labels=labels,
        root=index[(0, root)] if root is not None else None,
        horizon=T,
        period=period,
        base_state=base,
    )


def lift_policy(embedded: GameModel, policy: MixedPolicy) -> MixedPolicy:
    """Map a stationary policy on the base game onto an embedded one."""
    if embedded.base_state is None:
        raise ValueError("model has no embedding metadata")
    return make_policy(np.ones(1) if b < 0 else policy[b] for b in embedded.base_state)


# ---------------------------------------------------------------------------
# Validation


def absorbing_reachable(kernel: np.ndarray, absorbing: int) -> bool:
    """Whether every state reaches ``absorbing`` along the positive entries
    of the square transition matrix ``kernel``.

    For a stochastic matrix this is exactly the condition that the block on
    the other states has spectral radius below 1, so paths absorb with
    probability one and the chain is proper.
    """
    edge = np.asarray(kernel) > 0.0
    reached = np.zeros(edge.shape[0], dtype=bool)
    reached[absorbing] = True
    while True:
        grown = reached | edge[:, reached].any(axis=1)
        if grown.sum() == reached.sum():
            return bool(reached.all())
        reached = grown


def validate(model: GameModel) -> list[tuple[str, str]]:
    """Check all structural invariants; return (location, violation) records."""
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
        if not (np.isfinite(p).all() and np.isfinite(g).all()):
            out.append((f"state {i}", "non-finite transition probability or cost"))
        negative = (p < 0).any(axis=2)
        sums = p.sum(axis=2)
        off = np.abs(sums - 1.0) > SIMPLEX_TOL
        for u, v in np.argwhere(negative | off):
            where = f"state {i}, u={u}, v={v}"
            if negative[u, v]:
                out.append((where, "negative transition probability"))
            if off[u, v]:
                out.append((where, f"row sums to {float(sums[u, v])!r}, not 1"))

    reg = model.regime
    if isinstance(reg, Discounted) and not (0.0 < reg.alpha < 1.0):
        out.append(("regime", f"alpha {reg.alpha} outside (0, 1)"))
    if isinstance(reg, FiniteHorizon) and reg.periods < 1:
        out.append(("regime", f"periods {reg.periods} < 1"))
    if isinstance(reg, Ssp):
        a = reg.absorbing
        if not 0 <= a < n:
            out.append(("regime", f"absorbing state {a} out of range"))
        elif model.transition[a].shape[2] == n:  # a wrong shape is recorded above
            p, g = model.transition[a], model.cost[a]
            if not (np.abs(p[:, :, a] - 1.0) <= SIMPLEX_TOL).all():
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
                succ = np.flatnonzero(
                    np.asarray(model.transition[i]).max(axis=(0, 1)) > 0
                )
                bad = [int(j) for j in succ if model.period[j] != t + 1]
                if bad:
                    out.append(
                        (f"state {i}", f"transitions skip a period (to {bad})")
                    )
    return out


# ---------------------------------------------------------------------------
# JSON game files


def _regime_to_dict(regime: Regime) -> dict:
    if isinstance(regime, FiniteHorizon):
        return {"kind": "finite_horizon", "periods": regime.periods}
    if isinstance(regime, Discounted):
        return {"kind": "discounted", "alpha": regime.alpha}
    return {"kind": "ssp", "absorbing": regime.absorbing}


def _regime_from_dict(d: dict) -> Regime:
    kind = d.get("kind")
    if kind == "finite_horizon":
        return FiniteHorizon(periods=int(d["periods"]))
    if kind == "discounted":
        return Discounted(alpha=float(d["alpha"]))
    if kind == "ssp":
        return Ssp(absorbing=int(d["absorbing"]))
    raise ValueError(f"unknown regime kind {kind!r}")


def game_to_dict(model: GameModel) -> dict:
    d = {
        "n_states": model.n_states,
        "regime": _regime_to_dict(model.regime),
        "actions_a": model.actions_a.tolist(),
        "actions_b": model.actions_b.tolist(),
        "transition": [t.tolist() for t in model.transition],
        "cost": [c.tolist() for c in model.cost],
    }
    if model.labels is not None:
        d["labels"] = list(model.labels)
    if model.root is not None:
        d["root"] = model.root
    return d


def _tensors(d: dict, key: str) -> list[np.ndarray]:
    """The per-state float tensors of field ``key`` of a game document."""
    if not isinstance(d[key], list):
        raise ValueError(f"{key} must be a list of per-state tensors")
    try:
        return [np.asarray(t, dtype=float) for t in d[key]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key} holds a ragged or non-numeric tensor: {exc}") from exc


def game_from_dict(d: dict) -> GameModel:
    """Build and validate a GameModel from its JSON document form."""
    n = int(d["n_states"])
    regime = _regime_from_dict(d["regime"])
    transition = _tensors(d, "transition")
    cost = _tensors(d, "cost")
    if len(transition) != n:
        raise ValueError(f"transition lists {len(transition)} states, header says {n}")
    if len(cost) != n:
        raise ValueError(f"cost lists {len(cost)} states, header says {n}")
    model = make_game(
        regime=regime,
        transition=transition,
        cost=cost,
        labels=d.get("labels"),
        root=d.get("root"),
    )
    if "actions_a" in d and list(model.actions_a) != list(d["actions_a"]):
        raise ValueError("actions_a does not match transition tensor shapes")
    if "actions_b" in d and list(model.actions_b) != list(d["actions_b"]):
        raise ValueError("actions_b does not match transition tensor shapes")
    problems = validate(model)
    if problems:
        msg = "; ".join(f"{loc}: {what}" for loc, what in problems[:5])
        raise ValueError(f"invalid game file: {msg}")
    return model


def load_game(path: str) -> GameModel:
    with open(path) as f:
        return game_from_dict(json.load(f))


def policy_from_dict(model: GameModel, player: str, d: dict) -> MixedPolicy:
    """Policy file format: JSON object mapping state index -> probability array."""
    vecs = []
    for i in range(model.n_states):
        key = str(i)
        if key not in d:
            raise ValueError(f"policy file missing state {i}")
        vecs.append(np.asarray(d[key], dtype=float))
    policy = make_policy(vecs)
    check_policy(model, policy, player)
    return policy


def values_from_dict(model: GameModel, d: dict) -> np.ndarray:
    """Generator/value file format: JSON object mapping state index -> real."""
    out = np.zeros(model.n_states)
    for i in range(model.n_states):
        key = str(i)
        if key not in d:
            raise ValueError(f"value file missing state {i}")
        out[i] = float(d[key])
    return out
