"""Built-in benchmark games: a two-period matrix game and a waste-inspection
pursuit game, together with the fixed policies and value-function guesses
used to exercise the bound machinery on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (
    PLAYER_A,
    FiniteHorizon,
    GameModel,
    MixedPolicy,
    Ssp,
    embed_finite_horizon,
    make_game,
    make_policy,
)

# ---------------------------------------------------------------------------
# Two-period matrix game


def build_two_period_matrix_game() -> GameModel:
    """Two-period game: a root matrix game whose outcome-dependent transition
    selects which of two follow-up matrix games is played in period 1.

    Returned time-embedded, with states (t0 root, t1 game 2, t1 game 3,
    terminal) and root 0.
    """
    payoff = [
        np.array([[2.0, 1.0], [6.0, 8.0]]),
        np.array([[8.0, 15.0], [10.0, 12.0]]),
        np.array([[-8.0, -10.0], [3.0, -11.0]]),
    ]
    to_g2 = np.array([[0.7, 0.55], [0.4, 0.5]])

    transition = []
    cost = []
    # Root: move to state 1 or 2 with action-dependent probabilities.
    p0 = np.zeros((2, 2, 3))
    p0[:, :, 1] = to_g2
    p0[:, :, 2] = 1.0 - to_g2
    transition.append(p0)
    cost.append(np.broadcast_to(payoff[0][:, :, None], (2, 2, 3)).copy())
    # Follow-up states: stage payoff matters, the onward kernel never does
    # (the embedding maps the final period to the terminal state).
    for i in (1, 2):
        p = np.zeros((2, 2, 3))
        p[:, :, i] = 1.0
        transition.append(p)
        cost.append(np.broadcast_to(payoff[i][:, :, None], (2, 2, 3)).copy())

    raw = make_game(
        regime=FiniteHorizon(periods=2),
        transition=transition,
        cost=cost,
        labels=("g1", "g2", "g3"),
        root=0,
    )
    return embed_finite_horizon(raw)


def suboptimal_minimizer_policy(model: GameModel) -> MixedPolicy:
    """Deliberately imbalanced root mix for B on the two-period game,
    with the optimal continuation in period 1. Fixing B here gives the
    maximizer a strictly better-than-equilibrium response.
    """
    _require_two_period(model)
    return make_policy(
        [
            np.array([0.6, 0.4]),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([1.0]),
        ]
    )


def first_action_value_generator(model: GameModel) -> np.ndarray:
    """Rough continuation-value guess for the two-period game: the period-1
    payoff if both players always chose their first action (+8 in the
    favorable follow-up game, -8 in the unfavorable one, 0 elsewhere).
    """
    _require_two_period(model)
    return np.array([0.0, 8.0, -8.0, 0.0])


def _require_two_period(model: GameModel) -> None:
    if model.n_states != 4 or model.horizon != 2:
        raise ValueError("policy/generator is specific to the two-period game")


# ---------------------------------------------------------------------------
# Waste-inspection game


@dataclass(frozen=True)
class WasteGameConfig:
    """A dumper (maximizer, stays in business) versus an inspector
    (minimizer) over ``n_sites`` dump sites.

    Detection requires inspecting the dump site that night and succeeds
    with a probability that decays from ``p_high`` toward ``p_low`` as
    either player moves farther from their previous night's site.
    """

    n_sites: int
    positions: np.ndarray | None = None
    p_low: float = 0.5
    p_high: float = 0.95
    k1: float = 2.0
    k2: float = 1.0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("need at least two sites")
        if not 0.0 < self.p_low < self.p_high < 1.0:
            raise ValueError("require 0 < p_low < p_high < 1")
        if not (0.0 < self.k1 < np.inf and 0.0 < self.k2 < np.inf):
            raise ValueError("distance weights must be positive and finite")
        pos = self.positions
        if pos is None:
            pos = np.arange(1, self.n_sites + 1, dtype=float)
        pos = np.asarray(pos, dtype=float)
        if pos.shape != (self.n_sites,):
            raise ValueError("positions must have one coordinate per site")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def distances(self) -> np.ndarray:
        return np.abs(self.positions[:, None] - self.positions[None, :])


def build_waste_inspection_game(cfg: WasteGameConfig) -> GameModel:
    """Assemble the waste-inspection pursuit game as an absorbing-state model.

    States are (previous dump site, previous inspection site, caught flag);
    the caught flag can only be raised when the two sites coincide, giving
    n^2 + n non-absorbing states plus the out-of-business absorbing state.
    A second detection while caught absorbs; a miss clears the flag. Every
    night in business costs the inspector 1 (paid to the dumper), so the
    value is the dumper's expected time in business.
    """
    N = cfg.n_sites
    n_states = N * N + N + 1
    absorbing = N * N + N

    d = cfg.distances
    d_max = float(d.max())
    slope = (cfg.p_low - cfg.p_high) / ((cfg.k1 + cfg.k2) * d_max)

    transition: list[np.ndarray] = []
    cost: list[np.ndarray] = []
    labels: list[str] = []
    states: list[tuple[int, int, bool]] = [
        (pu, pv, False) for pu in range(N) for pv in range(N)
    ] + [(s, s, True) for s in range(N)]

    sites = np.arange(N)
    clear_targets = sites[:, None] * N + sites[None, :]
    uu, vv = np.meshgrid(sites, sites, indexing="ij")
    for pu, pv, caught in states:
        # Detection probability for tonight's coincident site choice s.
        pd_site = cfg.p_high + slope * (cfg.k1 * d[:, pu] + cfg.k2 * d[:, pv])
        p = np.zeros((N, N, n_states))
        pd_grid = np.where(uu == vv, pd_site[np.minimum(uu, vv)], 0.0)
        p[uu, vv, clear_targets] = 1.0 - pd_grid
        # A detection at site s: while caught, out of business; else caught at s.
        p[sites, sites, absorbing if caught else N * N + sites] += pd_site
        transition.append(p)
        cost.append(np.ones((N, N, n_states)))
        labels.append(f"d{pu + 1}:i{pv + 1}:{'caught' if caught else 'clear'}")

    p_abs = np.zeros((1, 1, n_states))
    p_abs[0, 0, absorbing] = 1.0
    transition.append(p_abs)
    cost.append(np.zeros((1, 1, n_states)))
    labels.append("out")

    return make_game(
        regime=Ssp(absorbing=absorbing),
        transition=transition,
        cost=cost,
        labels=labels,
        root=0,  # both players last at site 1, clear
    )


def uniform_policy(model: GameModel, player: str) -> MixedPolicy:
    """Equal weight on every action at every state."""
    counts = model.actions_a if player == PLAYER_A else model.actions_b
    return make_policy([np.ones(c) / c for c in counts])
