"""Command-line front end: game ingestion, exact solving, dual-bound
estimation, and reproduction of the built-in experiments as CSV/JSON files.

Exit codes: 0 success, 1 runtime/solver failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import builtin_games, duality, experiments, matrix_games, solvers
from .games import (
    PLAYER_A,
    PLAYER_B,
    FiniteHorizon,
    GameModel,
    MixedPolicy,
    Ssp,
    embed_finite_horizon,
    fix_player,
    game_from_dict,
    policy_from_dict,
    validate,
    values_from_dict,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

SOLVER_ERRORS = (
    matrix_games.UnboundedProgram,
    solvers.ImproperPair,
    solvers.NoConvergence,
    solvers.UnboundedValue,
    duality.PathCapExceeded,
    duality.CellBudgetExceeded,
    duality.AbsContinuityViolation,
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
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load {what} from {path}: {exc}") from exc


def _parse_waste_params(params: str) -> dict:
    out: dict = {"n_sites": 10}
    if not params:
        return out
    names = {"N": ("n_sites", int), "plow": ("p_low", float),
             "phigh": ("p_high", float), "k1": ("k1", float), "k2": ("k2", float)}
    for item in params.split(","):
        key, _, value = item.partition("=")
        if key not in names or not value:
            raise InputError(f"bad waste-game parameter {item!r}")
        field, cast = names[key]
        try:
            out[field] = cast(value)
        except ValueError as exc:
            raise InputError(f"bad waste-game parameter {item!r}: {exc}") from exc
    return out


def _resolve_policy(model: GameModel, token: str, player: str, tol: float) -> MixedPolicy:
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
        _, mu, nu = solvers.shapley_value_iteration(model, tol=tol)
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
    model: GameModel,
    token: str,
    view,
    policies: dict[str, MixedPolicy],
) -> np.ndarray:
    if token == "zero":
        return np.zeros(model.n_states)
    if token == "exact":
        values, _ = solvers.solve_view(view, tol=0.0)
        return values
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
        if model.absorbing is None:
            raise InputError("reference measures apply to absorbing-state games only")

        def read(doc: dict) -> duality.ReferenceMeasure:
            kernel = np.zeros((model.n_states, model.n_states))
            for i in range(model.n_states):
                kernel[i] = np.asarray(doc[str(i)], dtype=float)
            return duality.ReferenceMeasure(kernel=kernel, absorbing=model.absorbing)

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


def _states_csv(states: list[experiments.StateRow]) -> str:
    lines = ["state,label,value,strategy_a,strategy_b"]
    for s in states:
        a = ";".join(repr(p) for p in s.strategy_a)
        b = ";".join(repr(p) for p in s.strategy_b)
        lines.append(f"{s.state},{s.label},{s.value!r},{a},{b}")
    return "\n".join(lines) + "\n"


def _states_json(states: list[experiments.StateRow]) -> list[dict]:
    return [s.__dict__ for s in states]


def _result_csv(result: experiments.ExperimentResult) -> str:
    lines = [_meta_lines(result.metadata), experiments.CSV_HEADER]
    lines.extend(row.as_csv() for row in result.rows)
    return "\n".join(lines) + "\n"


def _result_json(result: experiments.ExperimentResult) -> str:
    doc = {
        "metadata": {**result.metadata, "timestamp": _timestamp()},
        "rows": [row.__dict__ for row in result.rows],
    }
    if result.states:
        doc["states"] = _states_json(result.states)
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Commands


def cmd_solve(args: argparse.Namespace) -> int:
    model = _resolve_game(args.game)
    values, mu, nu = solvers.shapley_value_iteration(
        model, tol=args.tol, max_iter=args.max_iter
    )
    states = experiments.state_table(model, values, mu, nu)
    table = _states_csv(states)
    if args.out:
        if args.format == "json":
            doc = {
                "metadata": {"game": args.game, "tol": args.tol,
                             "timestamp": _timestamp()},
                "states": _states_json(states),
            }
            _write_text(args.out, json.dumps(doc, indent=2) + "\n")
        else:
            _write_text(args.out, table)
        print(f"wrote {args.out}")
    else:
        print(table, end="")
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    solvers.check_tol(args.tol)  # also when no `optimal` policy reads it
    model = _resolve_game(args.game)
    fixed_tokens = _parse_fix(args.fix or [])
    if not fixed_tokens:
        raise InputError("--fix is required (e.g. --fix B=uniform)")
    policies = {
        player: _resolve_policy(model, token, player, args.tol)
        for player, token in fixed_tokens.items()
    }

    side = args.side
    if side is None:
        if PLAYER_A in policies and PLAYER_B in policies:
            side = "both"
        elif PLAYER_A in policies:
            side = "lower"
        else:
            side = "upper"
    need = {"lower": [PLAYER_A], "upper": [PLAYER_B], "both": [PLAYER_A, PLAYER_B]}[side]
    for player in need:
        if player not in policies:
            raise InputError(
                f"side {side!r} requires fixing player "
                f"{'A' if player == PLAYER_A else 'B'}"
            )

    is_ssp = model.horizon is None and isinstance(model.regime, Ssp)
    if model.horizon is None and not is_ssp:
        raise InputError("dual bounds cover time-embedded and absorbing-state games only")
    q = _resolve_q(model, args.q) if is_ssp else None
    sides = ("lower", "upper") if side == "both" else (side,)
    pairs = []
    for bound_side in sides:
        player = PLAYER_A if bound_side == "lower" else PLAYER_B
        view = fix_player(model, policies[player], player)
        pairs.append((view, _resolve_generator(model, args.h, view, policies)))
        bad = duality.validate_abs_continuity(view, q) if is_ssp else []
        if bad:
            raise InputError(
                f"reference measure fails absolute continuity at "
                f"{len(bad)} transitions, first (state, action, next) = {bad[0]}"
            )
    reports = list(zip(sides, duality.estimate_dual_bounds(pairs, args.n, args.seed, q=q)))
    for bound_side, est in reports:
        print(
            f"{bound_side}: mean={est.mean!r} se={est.standard_error!r} "
            f"n={est.n_scenarios} seed={est.seed}"
        )

    if args.out:
        meta = {"game": args.game, "h": args.h, "n": args.n, "seed": args.seed,
                "fix": ",".join(f"{k}={v}" for k, v in sorted(fixed_tokens.items()))}
        if args.format == "json":
            doc = {
                "metadata": {**meta, "timestamp": _timestamp()},
                "bounds": {
                    name: {"mean": est.mean, "standard_error": est.standard_error,
                           "n_scenarios": est.n_scenarios, "seed": est.seed}
                    for name, est in reports
                },
            }
            _write_text(args.out, json.dumps(doc, indent=2) + "\n")
        else:
            lines = [_meta_lines(meta), "side,mean,se,n,seed"]
            lines.extend(
                f"{name},{est.mean!r},{est.standard_error!r},"
                f"{est.n_scenarios},{est.seed}"
                for name, est in reports
            )
            _write_text(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


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
        _write_text(args.out, _result_json(result))
    else:
        _write_text(args.out, _result_csv(result))
        if result.states:
            side = str(Path(args.out).with_name(Path(args.out).stem + "_states.csv"))
            _write_text(side, _states_csv(result.states))
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
    """A ``--seed`` value: a non-negative integer, as NumPy seeds are."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


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
                         "width, > 0 (time-embedded game: only range-checked; sweeps "
                         "run until one changes no value)")
    p_solve.add_argument("--max-iter", dest="max_iter", type=int,
                         help="cap on Hoffman-Karp iterations (or on sweeps)")

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
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
