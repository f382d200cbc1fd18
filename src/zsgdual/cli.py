"""Command-line front end: game ingestion, exact solving, dual-bound
estimation, and reproduction of the built-in experiments as CSV/JSON files.

Exit codes: 0 success, 1 runtime/solver failure, 2 input validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import builtin_games, duality, experiments, matrix_games, solvers
from .games import (
    PLAYER_A,
    PLAYER_B,
    FiniteHorizon,
    GameModel,
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
            cfg = builtin_games.WasteGameConfig(**_parse_waste_params(params))
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
    except (OSError, ValueError) as exc:
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


def _source(token: str, what: str, named: dict[str, Callable], read: Callable):
    """The ``what`` that ``token`` names: ``named[token]()``, or ``read`` of
    the JSON document of a ``file:<path>`` token."""
    if token.startswith("file:"):
        return _from_file(token[len("file:"):], what, read)
    if token not in named:
        raise InputError(f"unknown {what} source {token!r}")
    return named[token]()


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


def _q_from_dict(model: GameModel, doc) -> duality.ReferenceMeasure:
    """A reference-measure file: each state's row of ``n`` probabilities."""
    n = model.n_states

    def row(entry) -> np.ndarray:
        r = np.asarray(entry, dtype=float)
        if r.shape != (n,):
            raise ValueError(f"got shape {r.shape}")
        return r

    rows = _per_state(model, doc, "reference measure", row, f"a list of {n} numbers")
    return duality.ReferenceMeasure(kernel=np.array(rows), absorbing=model.absorbing)


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
    policies = {}
    for player, token in fixed_tokens.items():
        if token == "suboptimal" and player != PLAYER_B:
            raise InputError("the built-in suboptimal policy is for player B")
        policies[player] = _source(token, "policy", {
            "uniform": partial(builtin_games.uniform_policy, model, player),
            "suboptimal": partial(builtin_games.suboptimal_minimizer_policy, model),
            "optimal": lambda: equilibrium()[1 if player == PLAYER_A else 2],
        }, partial(policy_from_dict, model, player))

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
    q = _source(args.q, "reference measure", {
        "uniform": partial(duality.make_uniform_reference, model),
    }, partial(_q_from_dict, model)) if is_ssp else None
    if args.h == "pair-value" and len(policies) < 2:
        raise InputError("--h pair-value needs both policies fixed (--fix both=...)")
    # Every generator but the exact one is the same for both sides.
    shared = None if args.h == "exact" else _source(args.h, "generator", {
        "zero": partial(np.zeros, model.n_states),
        "pair-value": lambda: solvers.evaluate_policy_pair(
            model, policies[PLAYER_A], policies[PLAYER_B]),
        "first-action": partial(builtin_games.first_action_value_generator, model),
    }, partial(values_from_dict, model))
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


# Each command's options but --config, in --help order, keyed by dest (the
# flag is ``--`` and the dest with ``-`` for ``_``): the default used when
# neither the flag nor the config file gives a value, and the flag's argparse
# keywords, which convert and check a config file's value too.
_COMMON = {
    "out": (None, dict(help="output file path")),
    "format": ("csv", dict(choices=("csv", "json"))),
}
OPTIONS = {
    "solve": {
        **_COMMON,
        "game": (None, dict()),
        "tol": (1e-10, dict(type=float, help="certified best-response interval width, > 0 "
                            "(time-embedded game: only range-checked; it is solved in one "
                            "backward pass)")),
        "max_iter": (100_000, dict(type=int, help="cap on iterations, each a Newton or "
                                   "Hoffman-Karp step")),
    },
    "bound": {
        **_COMMON,
        "game": (None, dict()),
        "fix": (None, dict(action="append", help="A=<src>, B=<src> or both=<src>; sources: "
                           "uniform, suboptimal, optimal, file:<path>")),
        "h": ("exact", dict(help="exact, pair-value, first-action, zero, file:<path>")),
        "side": (None, dict(choices=("lower", "upper", "both"))),
        "n": (10_000, dict(type=int)),
        "seed": (1, dict(type=_seed)),
        "q": ("uniform", dict(help="uniform or file:<path>")),
        "tol": (1e-10, dict(type=float)),
    },
    "repro": {
        **_COMMON,
        "rounds": (3, dict(type=int)),
        "n": (None, dict(type=int)),  # set by the experiment in _apply_defaults
        "seed": (7, dict(type=_seed)),
        "sites": (10, dict(type=int)),
        "generator": ("response-value", dict(choices=("response-value", "pair-value"))),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsgdual",
        description="Solve finite dynamic zero-sum games and compute "
        "information-relaxation dual bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in (("solve", "solve a game exactly"),
                           ("bound", "estimate dual bounds for fixed policies"),
                           ("repro", "reproduce a built-in experiment")):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="JSON file with default flag values")
        if command == "repro":
            p.add_argument("which", choices=("matrix-game", "waste-game"))
        # Each flag parses to None when absent, so it can be told from a default.
        for dest, (_, keywords) in OPTIONS[command].items():
            p.add_argument("--" + dest.replace("_", "-"), **keywords)
    return parser


def _apply_defaults(args: argparse.Namespace) -> None:
    # Precedence: explicit flag > config file > built-in default.
    options = OPTIONS[args.command]
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
        key.replace("-", "_"): _config_value(options, key, value)
        for key, value in config.items()
    }
    defaults = {dest: default for dest, (default, _) in options.items()}
    if args.command == "repro":
        if args.which == "matrix-game":
            for key in ("rounds", "sites", "generator"):
                if getattr(args, key) is not None or key in config:
                    raise InputError(f"repro matrix-game takes no --{key}")
        defaults["n"] = 10_000 if args.which == "matrix-game" else 5_000
    for key, value in {**defaults, **config}.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.command in ("solve", "bound") and args.game is None:
        raise InputError("--game is required, as a flag or a config key")


def _config_value(options: dict[str, tuple], key: str, value):
    """A config value converted and checked as if it were given as a flag."""
    option = options.get(key.replace("-", "_"))
    if option is None:
        raise InputError(
            f"config key {key!r} is not an option of this command; "
            f"options: {', '.join(sorted(options))}"
        )
    _, keywords = option
    if keywords.get("action") == "append":
        if not isinstance(value, list):
            raise InputError(f"config key {key!r} must be a list")
        return [_config_scalar(keywords, key, v) for v in value]
    return _config_scalar(keywords, key, value)


def _config_scalar(keywords: dict, key: str, value):
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise InputError(f"config key {key!r} must be a string or a number, got {value!r}")
    convert = keywords.get("type", str)
    try:
        value = convert(str(value))
    except argparse.ArgumentTypeError as exc:
        raise InputError(f"config key {key!r}: {exc}") from None
    except ValueError:
        raise InputError(
            f"config key {key!r}: invalid {convert.__name__} value {value!r}"
        ) from None
    choices = keywords.get("choices")
    if choices is not None and value not in choices:
        raise InputError(
            f"config key {key!r}: {value!r} is not one of {', '.join(map(str, choices))}"
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
