"""Canned experiments on the built-in games: exact solutions, best-response
intervals and dual bounds per policy-iteration round, in a row format ready
for CSV/JSON export. The CLI's repro command is a thin wrapper around these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from math import isfinite

from . import builtin_games, duality, solvers
from .games import PLAYER_A, PLAYER_B, GameModel, fix_player

# Absolute rounding allowance of the sandwich check.
CONSISTENCY_SLACK = 1e-9


@dataclass(frozen=True)
class ExperimentRow:
    """One emitted record: exact interval and dual estimates for one round."""

    k: int
    pair_value: float
    br_lower: float
    br_upper: float
    dual_lower: float
    dual_lower_se: float
    dual_upper: float
    dual_upper_se: float
    status: str = "ok"


@dataclass(frozen=True)
class StateRow:
    """Per-state equilibrium record (value and both mixed strategies)."""

    state: int
    label: str
    value: float
    strategy_a: tuple[float, ...]
    strategy_b: tuple[float, ...]


def csv_table(kind: type, records) -> str:
    """CSV text of dataclass ``records`` of type ``kind``: a header line of
    its field names, then one line per record (``_cell``). Fields are read
    with ``getattr``: ``astuple`` would deep-copy every record."""
    names = [f.name for f in fields(kind)]
    lines = [",".join(names)]
    lines.extend(",".join(_cell(getattr(r, name)) for name in names) for r in records)
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    """A CSV cell: a string as it is, a tuple's floats' ``repr``s joined by
    ``;``, the ``repr`` of anything else."""
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return ";".join(map(repr, value))
    return repr(value)


CSV_HEADER = csv_table(ExperimentRow, []).rstrip()


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    states: list[StateRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def check_row_consistency(row: ExperimentRow) -> list[str]:
    """Sandwich invariant: dual bounds must bracket the exact best responses,
    within three standard errors plus ``CONSISTENCY_SLACK``."""
    problems = []
    if isfinite(row.dual_lower) and isfinite(row.dual_lower_se):
        if row.dual_lower - 3.0 * row.dual_lower_se > row.br_lower + CONSISTENCY_SLACK:
            problems.append(
                f"k={row.k}: dual lower {row.dual_lower} - 3se exceeds "
                f"exact best response {row.br_lower}"
            )
    if isfinite(row.dual_upper) and isfinite(row.dual_upper_se):
        if row.br_upper > row.dual_upper + 3.0 * row.dual_upper_se + CONSISTENCY_SLACK:
            problems.append(
                f"k={row.k}: exact best response {row.br_upper} exceeds "
                f"dual upper {row.dual_upper} + 3se"
            )
    return problems


def state_table(model: GameModel, values, mu, nu) -> list[StateRow]:
    return [
        StateRow(
            state=i,
            label=model.label(i),
            value=float(values[i]),
            strategy_a=tuple(float(p) for p in mu[i]),
            strategy_b=tuple(float(p) for p in nu[i]),
        )
        for i in range(model.n_states)
    ]


# ---------------------------------------------------------------------------
# Two-period matrix game


def run_two_period_experiment(n: int = 10_000, seed: int = 1) -> ExperimentResult:
    """Solve the two-period game exactly and bound the imbalanced-policy pair.

    Emits two rows for the pair (equilibrium maximizer, imbalanced
    minimizer): one with the rough first-action generator on the upper side
    (a genuine Monte Carlo bound, checked against the exact enumeration of
    the scenario space), one with exact-value generators on both sides
    (bounds collapse onto the best responses with zero variance).
    """
    t0 = time.perf_counter()
    model = builtin_games.build_two_period_matrix_game()
    values, mu_star, nu_star = solvers.shapley_value_iteration(model, tol=1e-12)
    states = state_table(model, values, mu_star, nu_star)
    t_solve = time.perf_counter() - t0

    nu_hat = builtin_games.suboptimal_minimizer_policy(model)
    pair = solvers.evaluate_policy_pair(model, mu_star, nu_hat)

    view_lower = fix_player(model, mu_star, PLAYER_A)
    view_upper = fix_player(model, nu_hat, PLAYER_B)
    br_lower, _ = solvers.solve_view(view_lower)
    br_upper, _ = solvers.solve_view(view_upper)

    h_hat = builtin_games.first_action_value_generator(model)
    t0 = time.perf_counter()
    golden = duality.exact_dual_bound_enumeration(view_upper, h_hat)
    est_upper_hat, est_lower_exact, est_upper_exact = duality.estimate_dual_bounds(
        [(view_upper, h_hat), (view_lower, br_lower), (view_upper, br_upper)], n, seed
    )
    t_bounds = time.perf_counter() - t0

    root = model.root
    rough = ExperimentRow(
        k=0,
        pair_value=float(pair[root]),
        br_lower=float(br_lower[root]),
        br_upper=float(br_upper[root]),
        dual_lower=est_lower_exact.mean,
        dual_lower_se=est_lower_exact.standard_error,
        dual_upper=est_upper_hat.mean,
        dual_upper_se=est_upper_hat.standard_error,
        status="first-action-h",
    )
    exact = replace(
        rough,
        dual_upper=est_upper_exact.mean,
        dual_upper_se=est_upper_exact.standard_error,
        status="exact-h",
    )
    return ExperimentResult(
        rows=[rough, exact],
        states=states,
        metadata={
            "game": "builtin:matrix2p",
            "seed": seed,
            "n_scenarios": n,
            "enumeration_upper_first_action_h": golden,
        },
        timings={"solve": t_solve, "bounds": t_bounds},
    )


# ---------------------------------------------------------------------------
# Waste-inspection game


def run_waste_experiment(
    n_sites: int = 10,
    rounds: int = 3,
    n: int = 5_000,
    seed: int = 7,
    generator: str = "response-value",
) -> ExperimentResult:
    """Naive policy iteration from uniform policies with per-round bounds.

    Per round k: the pair value at the root, both exact best responses
    (Howard policy iteration polished to an exact floating-point fixed point
    of ``lookahead``), and weak-form dual estimates for both sides, all on
    one draw of paths from the uniform reference measure.

    ``generator`` selects the penalty generators: "response-value" (default)
    uses each side's exact best-response value function, under which the
    dual estimates reproduce the best responses path by path;
    "pair-value" uses the round's pair value function on both sides, which
    is dual-feasible but lets the clairvoyant inner optimizer amplify the
    generator error multiplicatively in the likelihood ratios, so the
    estimates are valid yet typically astronomically loose (they may
    overflow to +-inf; such rows are flagged "diverged").
    """
    if generator not in ("response-value", "pair-value"):
        raise ValueError(f"unknown generator scheme {generator!r}")
    cfg = builtin_games.WasteGameConfig(n_sites=n_sites)
    model = builtin_games.build_waste_inspection_game(cfg)
    mu0 = builtin_games.uniform_policy(model, PLAYER_A)
    nu0 = builtin_games.uniform_policy(model, PLAYER_B)
    q = duality.make_uniform_reference(model)
    root = model.root

    t0 = time.perf_counter()
    trace = solvers.naive_policy_iteration(model, mu0, nu0, rounds=rounds)
    timings = {"naive_policy_iteration": time.perf_counter() - t0}

    # Every round's views and best responses first, so that all rounds'
    # dual estimates share one draw of the reference paths.
    responses = []
    pairs = []
    for k, rec in enumerate(trace.rounds):
        t0 = time.perf_counter()
        view_lower = fix_player(model, rec.mu, PLAYER_A)
        view_upper = fix_player(model, rec.nu, PLAYER_B)
        br_lower, _ = solvers.solve_view(view_lower, tol=0.0)
        br_upper, _ = solvers.solve_view(view_upper, tol=0.0)
        timings[f"best_responses_k{k}"] = time.perf_counter() - t0
        responses.append((br_lower, br_upper))

        if generator == "response-value":
            h_lower, h_upper = br_lower, br_upper
        else:
            h_lower = h_upper = rec.values
        pairs += [(view_lower, h_lower), (view_upper, h_upper)]

    t0 = time.perf_counter()
    estimates = duality.estimate_dual_bounds(pairs, n, seed, q=q)
    timings["dual_bounds"] = time.perf_counter() - t0

    rows: list[ExperimentRow] = []
    for k, rec in enumerate(trace.rounds):
        br_lower, br_upper = responses[k]
        est_lower, est_upper = estimates[2 * k : 2 * k + 2]
        finite = all(
            isfinite(v)
            for v in (est_lower.mean, est_upper.mean)
        )
        rows.append(
            ExperimentRow(
                k=k,
                pair_value=float(rec.values[root]),
                br_lower=float(br_lower[root]),
                br_upper=float(br_upper[root]),
                dual_lower=est_lower.mean,
                dual_lower_se=est_lower.standard_error,
                dual_upper=est_upper.mean,
                dual_upper_se=est_upper.standard_error,
                status="ok" if finite else "diverged",
            )
        )

    metadata = {
        "game": f"builtin:waste,N={n_sites}",
        "seed": seed,
        "n_scenarios": n,
        "rounds": rounds,
        "generator": generator,
        "root": root,
        "root_label": model.label(root),
    }
    if trace.failure is not None:
        metadata["failure"] = trace.failure
    return ExperimentResult(rows=rows, metadata=metadata, timings=timings)
