"""Command-line front end: game ingestion, exact solving, dual-bound
estimation, and reproduction of the built-in experiments as CSV/JSON files.

Exit codes: 0 success, 1 runtime/solver failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from . import builtin_games, duality, experiments, matrix_games, solvers
from .games import (
    PLAYER_A,
    PLAYER_B,
    FiniteHorizon,
    GameModel,
    MixedPolicy,
    Ssp,
    _per_state,
    embed_finite_horizon,
    fix_player,
    game_from_dict,
    policy_from_dict,
    validate,
    values_from_dict,
)
from .streams import check_seed

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

# The player each side of ``bound`` fixes: the lower bound fixes A, the upper B.
SIDE_PLAYER = {"lower": PLAYER_A, "upper": PLAYER_B}

SOLVER_ERRORS = (
    matrix_games.UnboundedProgram,
    solvers.ImproperPair,
    solvers.NoConvergence,
    solvers.UnboundedValue,
    duality.PathCapExceeded,
    duality.CellBudgetExceeded,
)


class InputError(Exception):
    """Bad flags, files, or games; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Input resolution


def _resolve_game(spec: str) -> GameModel:
    if spec.startswith("file:"):
        model = _from_file(spec[len("file:"):], "game", game_from_dict)
    elif spec.startswith("builtin:"):
        name, _, params = spec[len("builtin:"):].partition(",")
        if name == "matrix2p":
            if params:
                raise InputError("builtin:matrix2p takes no parameters")
            model = builtin_games.build_two_period_matrix_game()
        elif name == "waste":
            kwargs = _parse_waste_params(params)
            try:
                cfg = builtin_games.WasteGameConfig(**kwargs)
            except ValueError as exc:
                raise InputError(str(exc)) from exc
            model = builtin_games.build_waste_inspection_game(cfg)
        else:
            raise InputError(f"unknown builtin game {name!r}")
        # A game file is validated as it is read; a built-in game's
        # parameters come from the command line.
        problems = validate(model)
        if problems:
            lines = "\n".join(f"  {loc}: {what}" for loc, what in problems)
            raise InputError(f"game failed validation:\n{lines}")
    else:
        raise InputError(f"game source must be builtin:<name> or file:<path>, got {spec!r}")
    if isinstance(model.regime, FiniteHorizon):
        model = embed_finite_horizon(model)
    return model


def _from_file(path: str, what: str, read):
    """``read`` applied to the JSON document at ``path``; a failure to open,
    parse or read it is an InputError."""
    try:
        with open(path) as f:
            return read(json.load(f))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot load {what} from {path}: {exc}") from exc


def _parse_waste_params(params: str) -> dict:
    out: dict = {}
    names = {"N": ("n_sites", int), "plow": ("p_low", float),
             "phigh": ("p_high", float), "k1": ("k1", float), "k2": ("k2", float)}
    for item in params.split(",") if params else ():
        key, _, value = item.partition("=")
        if key not in names or not value:
            raise InputError(f"bad waste-game parameter {item!r}")
        field, cast = names[key]
        if field in out:
            raise InputError(f"waste-game parameter {key!r} is given twice")
        try:
            out[field] = cast(value)
        except ValueError as exc:
            raise InputError(f"bad waste-game parameter {item!r}: {exc}") from exc
    return {"n_sites": 10, **out}


def _resolve_policy(
    model: GameModel, token: str, player: str, equilibrium: Callable[[], tuple]
) -> MixedPolicy:
    """``player``'s policy named by ``token``; ``optimal`` takes it from
    ``equilibrium()``, the ``shapley_value_iteration`` result."""
    if token == "uniform":
        return builtin_games.uniform_policy(model, player)
    if token == "suboptimal":
        if player != PLAYER_B:
            raise InputError("the built-in suboptimal policy is for player B")
        try:
            return builtin_games.suboptimal_minimizer_policy(model)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if token == "optimal":
        _, mu, nu = equilibrium()
        return mu if player == PLAYER_A else nu
    if token.startswith("file:"):
        return _from_file(
            token[len("file:"):], "policy", lambda d: policy_from_dict(model, player, d)
        )
    raise InputError(f"unknown policy source {token!r}")


def _parse_fix(specs: list[str]) -> dict[str, str]:
    fixed: dict[str, str] = {}
    for spec in specs:
        for item in spec.split(","):
            side, _, token = item.partition("=")
            if side not in ("A", "B", "both") or not token:
                raise InputError(f"--fix expects A=<src>, B=<src> or both=<src>, got {item!r}")
            if side == "both":
                fixed[PLAYER_A] = token
                fixed[PLAYER_B] = token
            else:
                fixed[side] = token
    return fixed


def _resolve_generator(
    model: GameModel, token: str, policies: dict[str, MixedPolicy]
) -> np.ndarray:
    if token == "zero":
        return np.zeros(model.n_states)
    if token == "pair-value":
        if PLAYER_A not in policies or PLAYER_B not in policies:
            raise InputError("--h pair-value needs both policies fixed (--fix both=...)")
        return solvers.evaluate_policy_pair(
            model, policies[PLAYER_A], policies[PLAYER_B]
        )
    if token == "first-action":
        try:
            return builtin_games.first_action_value_generator(model)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    if token.startswith("file:"):
        return _from_file(
            token[len("file:"):], "generator", lambda d: values_from_dict(model, d)
        )
    raise InputError(f"unknown generator source {token!r}")


def _resolve_q(model: GameModel, token: str) -> duality.ReferenceMeasure:
    if token == "uniform":
        return duality.make_uniform_reference(model)
    if token.startswith("file:"):
        n = model.n_states

        def row(entry) -> np.ndarray:
            r = np.asarray(entry, dtype=float)
            if r.shape != (n,):
                raise ValueError(f"got shape {r.shape}")
            return r

        def read(doc: dict) -> duality.ReferenceMeasure:
            rows = _per_state(model, doc, "reference measure", row, f"a list of {n} numbers")
            return duality.ReferenceMeasure(kernel=np.array(rows), absorbing=model.absorbing)

        return _from_file(token[len("file:"):], "reference measure", read)
    raise InputError(f"unknown reference measure {token!r}")


# ---------------------------------------------------------------------------
# Output helpers


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text)


def _meta_lines(metadata: dict) -> str:
    lines = [f"# {key}={value}" for key, value in metadata.items()]
    lines.append(f"# timestamp={_timestamp()}")
    return "\n".join(lines)


def _json_doc(metadata: dict, **tables) -> str:
    """A JSON document of ``metadata``, time-stamped, then each table."""
    doc = {"metadata": {**metadata, "timestamp": _timestamp()}, **tables}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands


def cmd_solve(args: argparse.Namespace) -> int:
    model = _resolve_game(args.game)
    values, mu, nu = solvers.shapley_value_iteration(
        model, tol=args.tol, max_iter=args.max_iter
    )
    states = experiments.state_table(model, values, mu, nu)
    if args.format == "json":
        meta = {"game": args.game, "tol": args.tol}
        text = _json_doc(meta, states=[vars(s) for s in states])
    else:
        text = experiments.csv_table(experiments.StateRow, states)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    """Dual bounds of the fixed policies on one draw. ``estimate_dual_bounds``
    checks every pair first, absolute continuity against ``q`` included, so
    a ``q`` that misses a move of either view exits 2 before any output."""
    solvers.check_tol(args.tol)  # also when no `optimal` policy reads it
    model = _resolve_game(args.game)
    fixed_tokens = _parse_fix(args.fix or [])
    if not fixed_tokens:
        raise InputError("--fix is required (e.g. --fix B=uniform)")
    # One solve serves both players' `optimal` tokens.
    equilibrium = cache(lambda: solvers.shapley_value_iteration(model, tol=args.tol))
    policies = {
        player: _resolve_policy(model, token, player, equilibrium)
        for player, token in fixed_tokens.items()
    }

    side = args.side
    sides = (side,) if side in SIDE_PLAYER else tuple(SIDE_PLAYER)
    if side is None:  # the side of each fixed player
        sides = tuple(s for s in sides if SIDE_PLAYER[s] in policies)
    for bound_side in sides:
        if SIDE_PLAYER[bound_side] not in policies:
            raise InputError(
                f"side {side!r} requires fixing player {SIDE_PLAYER[bound_side]}"
            )

    is_ssp = model.horizon is None and isinstance(model.regime, Ssp)
    if model.horizon is None and not is_ssp:
        raise InputError("dual bounds cover time-embedded and absorbing-state games only")
    if not is_ssp and args.q != "uniform":
        raise InputError("reference measures apply to absorbing-state games only")
    q = _resolve_q(model, args.q) if is_ssp else None
    # Every generator but the exact one is the same for both sides.
    shared = None if args.h == "exact" else _resolve_generator(model, args.h, policies)
    pairs = []
    for bound_side in sides:
        player = SIDE_PLAYER[bound_side]
        view = fix_player(model, policies[player], player)
        h = solvers.solve_view(view, tol=0.0)[0] if shared is None else shared
        pairs.append((view, h))
    ests = duality.estimate_dual_bounds(pairs, args.n, args.seed, q=q, keep_values=True)
    reports = list(zip(sides, ests))
    meta = {"game": args.game, "h": args.h, "n": args.n, "seed": args.seed,
            "fix": ",".join(f"{k}={v}" for k, v in sorted(fixed_tokens.items())),
            "side": ",".join(sides), "q": args.q, "tol": args.tol}
    if args.format == "json":
        text = _json_doc(meta, bounds={
            name: {"mean": est.mean, "standard_error": est.standard_error,
                   "n_scenarios": est.n_scenarios, "seed": est.seed}
            for name, est in reports
        })
    else:
        text = "\n".join([_meta_lines(meta), "side,mean,se,n,seed", *(
            f"{name},{est.mean!r},{est.standard_error!r},{est.n_scenarios},{est.seed}"
            for name, est in reports
        )]) + "\n"
    if args.format == "json" and not args.out:  # the document takes the summary's place
        print(text, end="")
    else:
        for name, est in reports:
            print(f"{name}: mean={est.mean!r} se={est.standard_error!r} "
                  f"n={est.n_scenarios} seed={est.seed}")
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    # An overflowed bound is valid but says nothing: it fails the command.
    failed = [(side, est) for side, est in reports if not np.isfinite(est.mean)]
    for bound_side, est in failed:
        bad = np.count_nonzero(~np.isfinite(est.per_scenario_values))
        unit = "paths" if is_ssp else "scenarios"
        why = (f"{bad} of {est.n_scenarios} {unit} are not finite" if bad else
               f"all {est.n_scenarios} {unit} are finite; their sum overflowed")
        print(f"{bound_side}: the dual bound is not finite (mean={est.mean!r}): {why}",
              file=sys.stderr)
    return EXIT_RUNTIME if failed else EXIT_OK


def cmd_repro(args: argparse.Namespace) -> int:
    if args.which == "matrix-game":
        result = experiments.run_two_period_experiment(n=args.n, seed=args.seed)
    else:
        result = experiments.run_waste_experiment(
            n_sites=args.sites,
            rounds=args.rounds,
            n=args.n,
            seed=args.seed,
            generator=args.generator,
        )
    problems = []
    for row in result.rows:
        problems.extend(experiments.check_row_consistency(row))
    if problems:
        for p in problems:
            print(f"consistency violation: {p}", file=sys.stderr)
        return EXIT_RUNTIME

    if args.format == "json":
        # The metadata also holds the seconds each stage of the experiment
        # took, which the CSV leaves out so that reruns stay byte-identical.
        tables = {"rows": [vars(row) for row in result.rows]}
        if result.states:
            tables["states"] = [vars(s) for s in result.states]
        meta = {**result.metadata, "timings": result.timings}
        _write_text(args.out, _json_doc(meta, **tables))
    else:
        rows = experiments.csv_table(experiments.ExperimentRow, result.rows)
        _write_text(args.out, f"{_meta_lines(result.metadata)}\n{rows}")
        if result.states:
            side = str(Path(args.out).with_name(Path(args.out).stem + "_states.csv"))
            _write_text(side, experiments.csv_table(experiments.StateRow, result.states))
            print(f"wrote {side}")
    print(f"wrote {args.out}")
    for row in result.rows:
        print(
            f"k={row.k} [{row.status}] pair={row.pair_value:.6g} "
            f"br=[{row.br_lower:.6g}, {row.br_upper:.6g}] "
            f"dual=[{row.dual_lower:.6g}±{row.dual_lower_se:.2g}, "
            f"{row.dual_upper:.6g}±{row.dual_upper_se:.2g}]"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in ``[0, 2**64)``, a stream key word."""
    try:
        return check_seed(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer below 2**64, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsgdual",
        description="Solve finite dynamic zero-sum games and compute "
        "information-relaxation dual bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with default flag values")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=("csv", "json"))

    p_solve = sub.add_parser("solve", help="solve a game exactly")
    common(p_solve)
    p_solve.add_argument("--game")
    p_solve.add_argument("--tol", type=float, help="certified best-response interval "
                         "width, > 0 (time-embedded game: only range-checked; it is "
                         "solved in one backward pass)")
    p_solve.add_argument("--max-iter", dest="max_iter", type=int,
                         help="cap on iterations, each a Newton or Hoffman-Karp step")

    p_bound = sub.add_parser("bound", help="estimate dual bounds for fixed policies")
    common(p_bound)
    p_bound.add_argument("--game")
    p_bound.add_argument("--fix", action="append",
                         help="A=<src>, B=<src> or both=<src>; sources: "
                         "uniform, suboptimal, optimal, file:<path>")
    p_bound.add_argument("--h", help="exact, pair-value, first-action, zero, file:<path>")
    p_bound.add_argument("--side", choices=("lower", "upper", "both"))
    p_bound.add_argument("--n", type=int)
    p_bound.add_argument("--seed", type=_seed)
    p_bound.add_argument("--q", help="uniform or file:<path>")
    p_bound.add_argument("--tol", type=float)

    p_repro = sub.add_parser("repro", help="reproduce a built-in experiment")
    common(p_repro)
    p_repro.add_argument("which", choices=("matrix-game", "waste-game"))
    p_repro.add_argument("--rounds", type=int)
    p_repro.add_argument("--n", type=int)
    p_repro.add_argument("--seed", type=_seed)
    p_repro.add_argument("--sites", type=int)
    p_repro.add_argument("--generator", choices=("response-value", "pair-value"))
    for p in (p_solve, p_bound, p_repro):
        # The options a config file may set: every flag but --config itself.
        p.set_defaults(options={
            a.dest: a for a in p._actions
            if a.option_strings and a.dest not in ("help", "config")
        })
    return parser


DEFAULTS = {
    "solve": {"tol": 1e-10, "max_iter": 100_000, "format": "csv"},
    "bound": {"h": "exact", "n": 10_000, "seed": 1, "q": "uniform",
              "tol": 1e-10, "format": "csv"},
    "repro": {"rounds": 3, "seed": 7, "sites": 10,
              "generator": "response-value", "format": "csv"},
}


def _apply_defaults(args: argparse.Namespace) -> None:
    # Precedence: explicit flag > config file > built-in default.
    config = {}
    if args.config:
        try:
            with open(args.config) as f:
                config = json.load(f)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InputError("config file must hold a JSON object")
    config = {
        key.replace("-", "_"): _config_value(args.options, key, value)
        for key, value in config.items()
    }
    defaults = dict(DEFAULTS[args.command])
    if args.command == "repro" and getattr(args, "n", None) is None:
        defaults["n"] = 10_000 if args.which == "matrix-game" else 5_000
    for key, value in {**defaults, **config}.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    if args.command in ("solve", "bound") and args.game is None:
        raise InputError("--game is required, as a flag or a config key")


def _config_value(options: dict[str, argparse.Action], key: str, value):
    """A config value converted and checked as if it were given as a flag."""
    action = options.get(key.replace("-", "_"))
    if action is None:
        raise InputError(
            f"config key {key!r} is not an option of this command; "
            f"options: {', '.join(sorted(options))}"
        )
    if isinstance(action, argparse._AppendAction):
        if not isinstance(value, list):
            raise InputError(f"config key {key!r} must be a list")
        return [_config_scalar(action, key, v) for v in value]
    return _config_scalar(action, key, value)


def _config_scalar(action: argparse.Action, key: str, value):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputError(f"config key {key!r} must be a string or a number, got {value!r}")
    convert = action.type or str
    try:
        value = convert(str(value))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"config key {key!r}: {exc}") from None
    except ValueError:
        raise InputError(
            f"config key {key!r}: invalid {convert.__name__} value {value!r}"
        ) from None
    if action.choices is not None and value not in action.choices:
        raise InputError(
            f"config key {key!r}: {value!r} is not one of "
            f"{', '.join(map(str, action.choices))}"
        )
    return value


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_defaults(args)
        if args.command == "repro" and not args.out:
            raise InputError("repro requires --out")
        handler = {"solve": cmd_solve, "bound": cmd_bound, "repro": cmd_repro}
        return handler[args.command](args)
    except (InputError, ValueError, duality.AbsContinuityViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
