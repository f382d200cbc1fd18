"""The benchmark's three workloads.

Each workload is a class. Constructing it is the set-up: it builds or
generates every input from the seed. ``run_pass`` is the timed unit of
work and drives the library through the entry points that ``zsgdual solve``
and ``zsgdual repro`` use. ``check`` verifies one pass's outputs, counting
every check, and returns the pass's deterministic quality figures.
``digest`` fingerprints the outputs so the runner can demand that every
pass of a run reproduces the first one bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from zsgdual import builtin_games, cli, duality, experiments, games, solvers
from zsgdual.games import PLAYER_A, PLAYER_B, FiniteHorizon

# Monte Carlo checks allow K_SE standard errors. The estimates are
# bit-identical per seed, so the parent commit and a change always get the
# same verdict; 5 makes a false alarm on a correct program negligible
# (below 1e-6 per check under a normal approximation).
K_SE = 5.0


class Checks:
    """Counts checks attempted and remembers the names of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def _valid_lower(est: duality.DualEstimate, exact: float) -> bool:
    # -inf is a valid, useless lower bound; NaN is never valid.
    if est.mean == -math.inf:
        return True
    return est.mean - K_SE * est.standard_error <= exact


def _valid_upper(est: duality.DualEstimate, exact: float) -> bool:
    # +inf is a valid, useless upper bound; NaN is never valid.
    if est.mean == math.inf:
        return True
    return est.mean + K_SE * est.standard_error >= exact


def equilibrium_quality(model, values, mu, nu) -> tuple[float, float]:
    """Best-response certificate of a solved equilibrium at the model root.

    Returns ``(cert_gap, value_err)``: the width of the interval between
    B's best response to ``mu`` and A's best response to ``nu``, and the
    distance of the reported root value from that interval. Responses are
    solved to an exact fixed point so the checker adds no error of its own.
    """
    root = model.root
    lower = solvers.solve_view(games.fix_player(model, mu, PLAYER_A), tol=0.0)[0][root]
    upper = solvers.solve_view(games.fix_player(model, nu, PLAYER_B), tol=0.0)[0][root]
    value = values[root]
    return float(upper - lower), float(max(lower - value, value - upper, 0.0))


# ---------------------------------------------------------------------------
# ssp-certify: the paper's headline bound pair on the waste game


class SspCertify:
    """Waste game N=10, round 0, uniform policies, uniform reference kernel.

    Step 1 is ``repro waste-game`` for one round: exact best responses plus
    both dual bounds with exact generators (zero variance). Step 2 bounds
    both sides again with a rough generator, 0.97 times the exact
    best-response values, which takes the likelihood-ratio branch of the
    inner recursion and overflows on a few upper-side paths.

    Path lengths are long-tailed, so the work in a pass varies with the
    seed. Step 2 draws each side's paths from its own seed (seed + 1 and
    seed + 2): three independent path sets per pass instead of one keep
    that variation near 3% instead of 5%.
    """

    n_sites = 10
    n_paths = 1000
    rough = 0.97
    work_unit = "dual paths"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        cfg = builtin_games.WasteGameConfig(n_sites=self.n_sites)
        model = builtin_games.build_waste_inspection_game(cfg)
        self.q = duality.make_uniform_reference(model)
        self.views = {}
        self.h = {}
        for side, player in (("lower", PLAYER_A), ("upper", PLAYER_B)):
            policy = builtin_games.uniform_policy(model, player)
            view = games.fix_player(model, policy, player)
            exact, _ = solvers.solve_view(view, tol=0.0)
            self.views[side] = view
            self.h[side] = self.rough * exact
        self.work_per_pass = 4 * self.n_paths

    def run_pass(self):
        result = experiments.run_waste_experiment(
            n_sites=self.n_sites, rounds=0, n=self.n_paths, seed=self.seed
        )
        rough = {
            side: duality.estimate_dual_bound_ssp(
                self.views[side], self.h[side], self.q, self.n_paths, self.seed + k,
                keep_values=True,
            )
            for k, side in ((1, "lower"), (2, "upper"))
        }
        return result.rows[0], rough

    def check(self, out, check: Checks) -> dict[str, float]:
        row, rough = out
        check("ssp: repro row consistency", not experiments.check_row_consistency(row))
        for side, mean, se, exact in (
            ("lower", row.dual_lower, row.dual_lower_se, row.br_lower),
            ("upper", row.dual_upper, row.dual_upper_se, row.br_upper),
        ):
            check(f"ssp: exact-generator {side} SE is 0", se == 0.0)
            check(f"ssp: exact-generator {side} equals best response",
                  abs(mean - exact) <= 1e-7)
        check("ssp: rough lower bound lies below the exact response",
              _valid_lower(rough["lower"], row.br_lower))
        check("ssp: rough upper bound lies above the exact response",
              _valid_upper(rough["upper"], row.br_upper))
        values = np.concatenate([e.per_scenario_values for e in rough.values()])
        return {"nonfinite_share": float(np.count_nonzero(~np.isfinite(values)) / len(values))}

    def digest(self, out) -> str:
        row, rough = out
        return _digest(row, *(e.per_scenario_values for e in rough.values()))


# ---------------------------------------------------------------------------
# equilibrium: time to an equilibrium at a stated tolerance, through the CLI


class Equilibrium:
    """``zsgdual solve --game builtin:waste,N=5 --tol 1e-8`` to a CSV file.

    The input is fixed, so the seed does not enter this workload. The check
    rebuilds the written strategies and certifies them with exact best
    responses.
    """

    n_sites = 5
    tol = 1e-8
    accuracy = 1e-6
    work_unit = "game states solved"

    def __init__(self, seed: int, workdir: Path):
        self.out_path = workdir / "equilibrium.csv"
        self.argv = [
            "solve", "--game", f"builtin:waste,N={self.n_sites}",
            "--tol", repr(self.tol), "--out", str(self.out_path),
        ]
        cfg = builtin_games.WasteGameConfig(n_sites=self.n_sites)
        self.model = builtin_games.build_waste_inspection_game(cfg)
        self.work_per_pass = self.model.n_states
        # Warm up the same command path on the 13-state game.
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([*self.argv[:2], "builtin:waste,N=3", *self.argv[3:]])

    def run_pass(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        return code, self.out_path.read_text()

    def check(self, out, check: Checks) -> dict[str, float]:
        code, text = out
        check("equilibrium: solve exits 0", code == 0)
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        shaped = (
            lines[:1] == ["state,label,value,strategy_a,strategy_b"]
            and len(rows) == self.model.n_states
            and all(len(r) == 5 and r[0] == str(i) for i, r in enumerate(rows))
        )
        check("equilibrium: one CSV row per state", shaped)
        if not shaped:
            return {"cert_gap": math.nan, "value_err": math.nan}
        values = np.array([float(r[2]) for r in rows])
        try:
            mu = games.make_policy([np.array(r[3].split(";"), dtype=float) for r in rows])
            nu = games.make_policy([np.array(r[4].split(";"), dtype=float) for r in rows])
            cert_gap, value_err = equilibrium_quality(self.model, values, mu, nu)
        except ValueError:
            cert_gap = value_err = math.nan
        check("equilibrium: best-response interval width within accuracy",
              0.0 <= cert_gap <= self.accuracy)
        check("equilibrium: root value within accuracy of the interval",
              value_err <= self.accuracy)
        return {"cert_gap": cert_gap, "value_err": value_err}

    def digest(self, out) -> str:
        return _digest(*out)


# ---------------------------------------------------------------------------
# finite-certify: finite-horizon scenarios, built-in and from a game file


def random_finite_game(
    rng: np.random.Generator, n_states: int, n_actions: int, periods: int, successors: int
):
    """Finite-horizon game with ``successors`` random next states per action
    pair, Dirichlet transition weights and uniform stage costs in [0, 10)."""
    transition, cost = [], []
    for _ in range(n_states):
        p = np.zeros((n_actions, n_actions, n_states))
        g = np.zeros_like(p)
        for u in range(n_actions):
            for v in range(n_actions):
                nxt = rng.choice(n_states, successors, replace=False)
                p[u, v, nxt] = rng.dirichlet(np.ones(successors))
                g[u, v, nxt] = rng.uniform(0.0, 10.0, successors)
        transition.append(p)
        cost.append(g)
    return games.make_game(FiniteHorizon(periods), transition, cost, root=0)


def random_policy(rng: np.random.Generator, counts) -> games.MixedPolicy:
    return games.make_policy([rng.dirichlet(np.ones(c)) for c in counts])


class FiniteCertify:
    """``repro matrix-game``, then both sides of a seeded random game file.

    Step 1 is the two-period experiment: the enumeration oracle plus three
    finite estimates. Step 2 loads a random finite-horizon game from its
    JSON file, embeds it, fixes each player at a seeded mixed policy and
    bounds both sides with the pair-value generator and with exact
    best-response values.
    """

    n_two_period = 2000
    n_random = 150
    base_states = 20
    actions = 4
    periods = 8
    successors = 3
    work_unit = "finite scenarios"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        base = random_finite_game(
            rng, self.base_states, self.actions, self.periods, self.successors
        )
        self.game_path = workdir / "random_game.json"
        self.game_path.write_text(json.dumps(games.game_to_dict(base)))
        embedded = games.embed_finite_horizon(games.load_game(str(self.game_path)))
        self.n_embedded = embedded.n_states
        self.mu = games.lift_policy(embedded, random_policy(rng, base.actions_a))
        self.nu = games.lift_policy(embedded, random_policy(rng, base.actions_b))
        self.work_per_pass = 3 * self.n_two_period + 4 * self.n_random

    def run_pass(self):
        two_period = experiments.run_two_period_experiment(
            n=self.n_two_period, seed=self.seed
        )
        model = games.embed_finite_horizon(games.load_game(str(self.game_path)))
        pair = solvers.evaluate_policy_pair(model, self.mu, self.nu)
        sides = {}
        for side, policy, player in (
            ("lower", self.mu, PLAYER_A), ("upper", self.nu, PLAYER_B)
        ):
            view = games.fix_player(model, policy, player)
            exact, _ = solvers.solve_view(view)
            sides[side] = (
                float(exact[model.root]),
                duality.estimate_dual_bound_finite(view, pair, self.n_random, self.seed),
                duality.estimate_dual_bound_finite(view, exact, self.n_random, self.seed),
            )
        return two_period, model, float(pair[model.root]), sides

    def check(self, out, check: Checks) -> dict[str, float]:
        two_period, model, pair_root, sides = out
        golden = two_period.metadata["enumeration_upper_first_action_h"]
        rough, exact = two_period.rows
        check("finite: enumeration value in [5.6, 6.5]", 5.6 <= golden <= 6.5)
        check("finite: first-action estimate within k SE of enumeration",
              abs(rough.dual_upper - golden) <= K_SE * rough.dual_upper_se)
        for row in two_period.rows:
            check(f"finite: {row.status} row consistency",
                  not experiments.check_row_consistency(row))
        check("finite: exact rows have SE 0",
              exact.dual_lower_se == 0.0 and exact.dual_upper_se == 0.0)
        check("finite: exact rows equal the best responses 5.0 and 5.6",
              exact.dual_lower == exact.br_lower and exact.dual_upper == exact.br_upper
              and abs(exact.br_lower - 5.0) <= 1e-9 and abs(exact.br_upper - 5.6) <= 1e-9)

        check("finite: random game embeds to the set-up size",
              model.n_states == self.n_embedded)
        br_lower, pair_lower, _ = sides["lower"]
        br_upper, pair_upper, _ = sides["upper"]
        check("finite: random-game pair value lies between the best responses",
              br_lower - 1e-9 <= pair_root <= br_upper + 1e-9)
        for side, (br, _, est) in sides.items():
            check(f"finite: random-game exact {side} side has SE 0",
                  est.standard_error == 0.0)
            check(f"finite: random-game exact {side} side equals best response",
                  abs(est.mean - br) <= 1e-9 * max(1.0, abs(br)))
        check("finite: random-game pair-value lower bound brackets from below",
              _valid_lower(pair_lower, br_lower))
        check("finite: random-game pair-value upper bound brackets from above",
              _valid_upper(pair_upper, br_upper))

        states = two_period.states
        cert_gap, value_err = equilibrium_quality(
            builtin_games.build_two_period_matrix_game(),
            np.array([s.value for s in states]),
            games.make_policy([s.strategy_a for s in states]),
            games.make_policy([s.strategy_b for s in states]),
        )
        return {"cert_gap": cert_gap, "value_err": value_err}

    def digest(self, out) -> str:
        two_period, _, pair_root, sides = out
        return _digest(two_period.rows, two_period.metadata, pair_root,
                       [(br, p.mean, p.standard_error, e.mean, e.standard_error)
                        for br, p, e in sides.values()])


WORKLOADS = {
    "ssp-certify": SspCertify,
    "equilibrium": Equilibrium,
    "finite-certify": FiniteCertify,
}
