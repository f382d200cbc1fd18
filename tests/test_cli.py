import dataclasses
import json
import warnings

import numpy as np
import pytest

import zsgdual as zd
from zsgdual import cli, experiments

from oracles import dense_kernel, random_sparse_ssp_game


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text: str) -> list[str]:
    return [l for l in text.splitlines() if not l.startswith("# timestamp")]


WASTE2 = zd.game_to_dict(zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2)))


def waste2_file(tmp_path, **overrides) -> str:
    """Game-file spec of waste N=2 (7 states, root 0) with fields replaced."""
    path = tmp_path / "waste2.json"
    path.write_text(json.dumps({**WASTE2, **overrides}))
    return f"file:{path}"


class TestSolveCommand:
    def test_two_period_game(self, capsys):
        code, out, _ = run(capsys, "solve", "--game", "builtin:matrix2p")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "state,label,value,strategy_a,strategy_b"
        root = lines[1].split(",")
        assert root[1] == "t0:g1"
        assert float(root[2]) == pytest.approx(5.0, abs=1e-9)

    def test_small_waste_game(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--game", "builtin:waste,N=3", "--tol", "1e-8"
        )
        assert code == 0
        values = [float(l.split(",")[2]) for l in out.splitlines()[1:] if l]
        assert all(np.isfinite(v) for v in values)

    def test_bad_game_file_exits_2(self, capsys, tmp_path):
        doc = zd.game_to_dict(zd.build_two_period_matrix_game())
        doc["transition"][0][0][0] = [0.5, 0.2, 0.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "solve", "--game", f"file:{path}")
        assert code == 2
        assert "row sums" in err

    def test_non_list_tensor_field_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps({
            "n_states": 1, "regime": {"kind": "discounted", "alpha": 0.5},
            "transition": 5, "cost": 5,
        }))
        code, out, err = run(capsys, "solve", "--game", f"file:{path}")
        assert (code, out) == (2, "")
        assert "transition must be a list of per-state tensors" in err

    def test_cost_past_the_float_range_exits_2(self, capsys, tmp_path):
        doc = zd.game_to_dict(zd.build_two_period_matrix_game())
        doc["cost"][0][0][0] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--game", f"file:{path}")
        assert (code, out) == (2, "")
        assert "cost holds a ragged or non-numeric tensor: int too large" in err

    def test_non_object_regime_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "solve", "--game", waste2_file(tmp_path, regime=5))
        assert (code, out) == (2, "")
        assert err.endswith("regime must be an object with a kind, got 5\n")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("param", ["k1=inf", "k2=-inf", "k1=nan"])
    def test_non_finite_waste_weight_exits_2(self, capsys, param):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--game", f"builtin:waste,N=3,{param}")
        assert (code, out) == (2, "")
        assert err == "error: distance weights must be positive and finite\n"

    @pytest.mark.parametrize("params, key", [("N=3,N=4", "N"), ("k1=1,N=3,k1=2", "k1")])
    def test_repeated_waste_parameter_exits_2(self, capsys, params, key):
        code, out, err = run(capsys, "solve", "--game", f"builtin:waste,{params}")
        assert (code, out) == (2, "")
        assert err == f"error: waste-game parameter {key!r} is given twice\n"

    def test_tol_does_not_stop_a_time_embedded_solve(self, capsys):
        outs = [
            run(capsys, "solve", "--game", "builtin:matrix2p", "--tol", tol)
            for tol in ("10", "1e-12")
        ]
        assert outs[0] == outs[1]
        code, out, _ = outs[0]
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "5.0"

    def test_short_labels_exit_2(self, capsys, tmp_path):
        game = waste2_file(tmp_path, labels=["a", "b", "c"])
        code, _, err = run(capsys, "solve", "--game", game)
        assert code == 2
        assert "3 labels for 7 states" in err

    def test_unknown_builtin_exits_2(self, capsys):
        code, _, err = run(capsys, "solve", "--game", "builtin:nonsense")
        assert code == 2
        assert "unknown builtin" in err

    def test_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "solution.json"
        code, _, _ = run(
            capsys, "solve", "--game", "builtin:matrix2p",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["states"][0]["value"] == pytest.approx(5.0, abs=1e-9)

    def test_json_without_out_prints_the_document(self, capsys, tmp_path):
        argv = ["solve", "--game", "builtin:waste,N=2", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        out_path = tmp_path / "solution.json"
        assert run(capsys, *argv, "--out", str(out_path))[0] == 0
        printed, written = json.loads(out), json.loads(out_path.read_text())
        for doc in (printed, written):
            assert doc["metadata"].pop("timestamp")
        assert printed == written and len(printed["states"]) == 7


    @pytest.mark.parametrize(
        "flags",
        [["--max-iter", "0"], ["--max-iter", "-3"],
         ["--tol", "nan"], ["--tol", "inf"], ["--tol", "-1"]],
    )
    def test_bad_iteration_limits_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "solve", "--game", "builtin:waste,N=3", *flags)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_zero_tol_on_infinite_horizon_game_exits_2(self, capsys):
        code, out, err = run(capsys, "solve", "--game", "builtin:waste,N=5", "--tol", "0")
        assert code == 2
        assert out == "" and "tol must be positive" in err

    def test_scaled_costs_scale_the_values(self, capsys, tmp_path):
        # A game file carries no time embedding, so this solve runs
        # Hoffman-Karp; at values near 1e13 one ulp is 2e-3, so the
        # certified width is asked at 1e-2.
        base = zd.game_to_dict(zd.build_two_period_matrix_game())
        rows = {}
        for scale, tol in ((1.0, "1e-10"), (1e12, "1e-2")):
            doc = dict(base, cost=[(scale * np.array(g)).tolist() for g in base["cost"]])
            path = tmp_path / f"two_period_{scale:g}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "solve", "--game", f"file:{path}", "--tol", tol)
            assert code == 0, err
            rows[scale] = [float(l.split(",")[2]) for l in out.splitlines()[1:]]
        np.testing.assert_allclose(rows[1e12], 1e12 * np.array(rows[1.0]), rtol=1e-12)
        np.testing.assert_allclose(rows[1.0], [5.0, 10.0, -10.0, 0.0], atol=1e-12)

    def test_failed_stage_simplex_exits_1(self, capsys, monkeypatch):
        def fail(A):
            raise zd.matrix_games.UnboundedProgram("simplex detected an unbounded program")

        monkeypatch.setattr(zd.matrix_games, "_simplex_max_ones", fail)
        code, out, err = run(capsys, "solve", "--game", "builtin:waste,N=3")
        assert code == 1
        assert out == "" and err.startswith("solver failure: simplex")

    def test_unbounded_game_file_exits_1(self, capsys, tmp_path):
        # State 0 of this sparse game cannot reach the absorbing state, so
        # its stage pair is improper and the fallback best response finds an
        # infinite value after one sweep.
        rng = np.random.default_rng(0)
        n, a = int(rng.integers(3, 25)), int(rng.integers(2, 5))
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(zd.game_to_dict(random_sparse_ssp_game(rng, n, a))))
        code, out, err = run(capsys, "solve", "--game", f"file:{path}")
        assert code == 1
        assert out == "" and err.startswith("solver failure: state 0 cannot reach")


class TestBoundCommand:
    def test_upper_bound_with_rough_generator(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--game", "builtin:matrix2p",
            "--fix", "B=suboptimal", "--h", "first-action",
            "--n", "4000", "--seed", "1",
        )
        assert code == 0
        mean = float(out.split("mean=")[1].split()[0])
        assert 5.6 <= mean <= 6.5

    def test_exact_generator_strong_duality(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--game", "builtin:matrix2p",
            "--fix", "B=suboptimal", "--h", "exact", "--n", "100", "--seed", "1",
        )
        assert code == 0
        assert "mean=5.6 se=0.0" in out

    def test_both_sides_on_waste_game(self, capsys, tmp_path):
        out_path = tmp_path / "bounds.csv"
        code, out, _ = run(
            capsys, "bound", "--game", "builtin:waste,N=3",
            "--fix", "both=uniform", "--h", "exact",
            "--n", "200", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        header = [l for l in lines if l == "side,mean,se,n,seed"]
        assert header
        rows = lines[lines.index(header[0]) + 1:]
        lower = float(rows[0].split(",")[1])
        upper = float(rows[1].split(",")[1])
        assert lower < upper

    def test_generator_resolved_once_for_both_sides(self, capsys, monkeypatch, tmp_path):
        calls = []
        evaluate = zd.solvers.evaluate_policy_pair
        monkeypatch.setattr(
            zd.solvers, "evaluate_policy_pair", lambda *a: calls.append(a) or evaluate(*a)
        )
        argv = ["bound", "--game", "builtin:waste,N=3", "--fix", "both=uniform",
                "--side", "both", "--n", "50", "--seed", "1"]
        code, out, _ = run(capsys, *argv, "--h", "pair-value")
        assert code == 0 and len(calls) == 1
        assert out.startswith("lower: ") and "\nupper: " in out
        # A generator file is read once too, and gives the same bounds.
        values = evaluate(*calls[0])
        hpath = tmp_path / "h.json"
        hpath.write_text(json.dumps({str(i): v for i, v in enumerate(values.tolist())}))
        reads = []
        read = cli._from_file
        monkeypatch.setattr(cli, "_from_file", lambda *a: reads.append(a) or read(*a))
        code, again, _ = run(capsys, *argv, "--h", f"file:{hpath}")
        assert code == 0 and len(reads) == 1 and again == out

    def test_equilibrium_solved_once_for_both_sides(self, capsys, monkeypatch, tmp_path):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10))
        _, mu, nu = zd.shapley_value_iteration(model, tol=1e-10)
        pairs = []
        for policy, player in ((mu, zd.PLAYER_A), (nu, zd.PLAYER_B)):
            view = zd.fix_player(model, policy, player)
            pairs.append((view, zd.solve_view(view, tol=0.0)[0]))
        lower, upper = zd.estimate_dual_bounds(
            pairs, 200, seed=1, q=zd.make_uniform_reference(model)
        )
        calls = []
        shapley = zd.solvers.shapley_value_iteration
        monkeypatch.setattr(
            zd.solvers, "shapley_value_iteration",
            lambda *a, **k: calls.append(a) or shapley(*a, **k),
        )
        out_path = tmp_path / "bounds.csv"
        code, _, _ = run(
            capsys, "bound", "--game", "builtin:waste,N=10", "--fix", "both=optimal",
            "--n", "200", "--out", str(out_path),
        )
        assert code == 0 and len(calls) == 1
        assert strip_timestamp(out_path.read_text()) == [
            "# game=builtin:waste,N=10", "# h=exact", "# n=200", "# seed=1",
            "# fix=A=optimal,B=optimal", "# side=lower,upper", "# q=uniform",
            "# tol=1e-10", "side,mean,se,n,seed",
            *(f"{name},{est.mean!r},{est.standard_error!r},200,1"
              for name, est in (("lower", lower), ("upper", upper))),
        ]

    def test_pair_value_needs_both_policies(self, capsys):
        code, _, err = run(
            capsys, "bound", "--game", "builtin:waste,N=3",
            "--fix", "B=uniform", "--h", "pair-value", "--n", "50", "--seed", "1",
        )
        assert code == 2
        assert "both policies" in err

    @pytest.mark.parametrize("root", [99, -1, "0", True])
    def test_root_outside_state_range_exits_2(self, capsys, tmp_path, root):
        code, out, err = run(
            capsys, "bound", "--game", waste2_file(tmp_path, root=root),
            "--fix", "B=uniform", "--n", "50",
        )
        assert code == 2
        assert f"root {root!r} is not a state index in [0, 7)" in err
        assert "mean=" not in out

    @pytest.mark.parametrize("regime, message", [
        ({"kind": "ssp", "absorbing": 6.7}, "absorbing must be an integer, got 6.7"),
        ({"kind": "finite_horizon", "periods": 2.9}, "periods must be an integer, got 2.9"),
    ])
    def test_fractional_regime_index_exits_2(self, capsys, tmp_path, regime, message):
        code, out, err = run(capsys, "solve", "--game", waste2_file(tmp_path, regime=regime))
        assert (code, out) == (2, "")
        assert err.endswith(message + "\n")

    @pytest.mark.parametrize("policy", ["optimal", "uniform"])
    def test_non_finite_tol_exits_2(self, capsys, policy):
        code, _, err = run(capsys, "bound", "--game", "builtin:waste,N=3",
                           "--fix", f"B={policy}", "--tol", "nan", "--n", "10")
        assert code == 2
        assert "tol must be finite" in err

    def test_non_finite_game_entry_exits_2(self, capsys, tmp_path):
        model = zd.build_two_period_matrix_game()
        # The last input writes state 1's cost per destination, with the bad
        # value where the move (0, 1) has probability 0: a cost per
        # destination is checked at every destination.
        assert model.transition[1][0, 1, 2] == 0.0
        per_destination = [np.repeat(c[:, :, None], 4, axis=2).tolist() for c in model.cost]
        for field, where, value, cost in (
            ("transition", (1, 0, 1, 2), "NaN", None), ("cost", (1, 0, 1), "NaN", None),
            ("cost", (1, 0, 1), "-Infinity", None), ("cost", (1, 0, 1, 2), "NaN", per_destination),
        ):
            doc = zd.game_to_dict(model)
            if cost is not None:
                doc["cost"] = cost
            entry = doc[field]
            for k in where[:-1]:
                entry = entry[k]
            entry[where[-1]] = "BAD"
            path = tmp_path / "game.json"
            path.write_text(json.dumps(doc).replace('"BAD"', value))
            code, out, err = run(
                capsys, "bound", "--game", f"file:{path}", "--fix", "B=uniform",
                "--h", "zero", "--n", "100",
            )
            assert (code, out) == (2, "")
            assert "state 1: non-finite transition probability or cost" in err

    @pytest.mark.parametrize("doc, message", [
        ([1], "a game file must hold a JSON object, got list"),
        ({"regime": {"kind": "ssp", "absorbing": 6}}, "lacks the required field n_states"),
        ({"n_states": "7", "regime": {"kind": "ssp", "absorbing": 6}},
         "n_states must be an integer, got '7'"),
        ({"n_states": 7}, "lacks the required field regime"),
        ({"n_states": 7, "regime": {"kind": "ssp"}}, "lacks the required field regime.absorbing"),
        ({"n_states": 7, "regime": {"kind": "finite_horizon"}},
         "lacks the required field regime.periods"),
        ({"n_states": 7, "regime": {"kind": "discounted"}}, "lacks the required field regime.alpha"),
        ({"n_states": 7, "regime": {"kind": "discounted", "alpha": [0.9]}},
         "regime.alpha must be a number, got [0.9]"),
        ({"n_states": 7, "regime": {"kind": "ssp", "absorbing": 6}},
         "lacks the required field transition"),
        ({"n_states": 7, "regime": {"kind": "ssp", "absorbing": 6}, "transition": []},
         "lacks the required field cost"),
    ])
    def test_missing_or_ill_typed_field_is_named(self, capsys, tmp_path, doc, message):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--game", f"file:{path}")
        assert (code, out) == (2, "")
        assert err.rstrip().endswith(message)

    def test_non_finite_policy_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"0": [NaN, 1.0], "1": [1.0, 0.0], "2": [0.0, 1.0], "3": [1.0]}')
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", f"B=file:{path}",
            "--h", "zero", "--n", "100",
        )
        assert (code, out) == (2, "")
        assert "policy at state 0 is not a probability vector" in err

    def test_list_generator_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"0": [1.0], "1": 8.0, "2": -8.0, "3": 0.0}')
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", "B=uniform",
            "--h", f"file:{path}", "--n", "100",
        )
        assert (code, out) == (2, "")
        assert "value file state 0: not a number" in err
        assert len(err.splitlines()) == 1

    def test_object_policy_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"0": {"a": 1}, "1": [1.0, 0.0], "2": [0.0, 1.0], "3": [1.0]}')
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", f"B=file:{path}",
            "--h", "zero", "--n", "100",
        )
        assert (code, out) == (2, "")
        assert "policy file state 0: not a list of numbers" in err
        assert len(err.splitlines()) == 1

    def test_json_without_out_prints_the_document(self, capsys, tmp_path):
        argv = ["bound", "--game", "builtin:waste,N=2", "--fix", "B=uniform",
                "--n", "50", "--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        out_path = tmp_path / "bounds.json"
        assert run(capsys, *argv, "--out", str(out_path))[0] == 0
        printed, written = json.loads(out), json.loads(out_path.read_text())
        for doc in (printed, written):
            assert doc["metadata"].pop("timestamp")
        assert printed == written and list(printed["bounds"]) == ["upper"]

    @pytest.mark.parametrize("fix, side, fixed, sides", [
        ("both=uniform", None, "A=uniform,B=uniform", "lower,upper"),
        ("both=uniform", "lower", "A=uniform,B=uniform", "lower"),
        ("B=uniform", None, "B=uniform", "upper"),
    ])
    def test_json_metadata_reruns_the_bound(self, capsys, tmp_path, fix, side, fixed, sides):
        # The metadata holds every option the bound read, so the document
        # names its own rerun.
        out_path = tmp_path / "bounds.json"
        argv = ["bound", "--game", "builtin:waste,N=2", "--fix", fix, "--n", "50",
                "--tol", "1e-9", "--format", "json", "--out", str(out_path)]
        assert run(capsys, *argv, *(["--side", side] if side else []))[0] == 0
        doc = json.loads(out_path.read_text())
        assert doc["metadata"].pop("timestamp")
        assert doc["metadata"] == {"game": "builtin:waste,N=2", "h": "exact", "n": 50,
                                   "seed": 1, "fix": fixed, "side": sides, "q": "uniform",
                                   "tol": 1e-9}
        assert list(doc["bounds"]) == sides.split(",")

    def test_reference_measure_on_a_time_embedded_game_exits_2(self, capsys, tmp_path):
        argv = ["bound", "--game", "builtin:matrix2p", "--fix", "A=optimal",
                "--side", "lower", "--n", "100"]
        code, out, err = run(capsys, *argv, "--q", f"file:{tmp_path / 'missing.json'}")
        assert code == 2 and out == ""
        assert "reference measures apply to absorbing-state games only" in err
        assert run(capsys, *argv, "--q", "uniform")[0] == 0

    def test_missing_fix_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "--game", "builtin:matrix2p")
        assert code == 2
        assert "--fix" in err

    def test_bad_reference_measure_exits_2(self, capsys, tmp_path):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2))
        n = model.n_states
        doc = {}
        for i in range(n):
            row = [0.0] * n
            if i == model.absorbing:
                row[i] = 1.0
            else:
                row[model.absorbing] = 1.0  # absorb-only kernel misses support
            doc[str(i)] = row
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "bound", "--game", "builtin:waste,N=2",
            "--fix", "both=uniform", "--h", "exact",
            "--n", "50", "--seed", "1", "--q", f"file:{qpath}",
        )
        assert code == 2
        assert "absolute continuity" in err

    def test_non_finite_reference_measure_exits_2(self, capsys, tmp_path):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2))
        kernel = zd.make_uniform_reference(model).kernel.tolist()
        kernel[0][1] = float("nan")
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps({str(i): row for i, row in enumerate(kernel)}))
        code, out, err = run(
            capsys, "bound", "--game", "builtin:waste,N=2", "--fix", "B=uniform",
            "--q", f"file:{qpath}", "--n", "200",
        )
        assert code == 2
        assert "finite" in err
        assert "mean=" not in out

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("3"), "reference measure file missing state 3"),
        (lambda doc: doc["2"].pop(), "reference measure file state 2: not a list of 7 numbers"),
        (lambda doc: doc.update({"0": {"1": 1.0}}),
         "reference measure file state 0: not a list of 7 numbers"),
    ], ids=["missing-state", "short-row", "object-entry"])
    def test_malformed_reference_measure_names_the_state(self, capsys, tmp_path, edit, message):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2))
        kernel = zd.make_uniform_reference(model).kernel.tolist()
        doc = {str(i): row for i, row in enumerate(kernel)}
        edit(doc)
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "bound", "--game", "builtin:waste,N=2", "--fix", "B=uniform",
            "--q", f"file:{qpath}", "--n", "50",
        )
        assert (code, out) == (2, "")
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--fix", "--h"])
    def test_list_policy_or_value_file_exits_2(self, capsys, tmp_path, flag):
        path = tmp_path / "list.json"
        path.write_text("[[1.0], [1.0], [1.0], [1.0]]")
        fix, h = (f"B=file:{path}", "zero") if flag == "--fix" else ("B=uniform", f"file:{path}")
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", fix, "--h", h,
            "--n", "100",
        )
        assert (code, out) == (2, "")
        assert "must hold a JSON object, got list" in err

    def test_value_past_the_float_range_exits_2(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"0": 1' + "0" * 400 + ', "1": 0, "2": 0, "3": 0}')
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", "B=uniform",
            "--h", f"file:{path}", "--n", "100",
        )
        assert (code, out) == (2, "")
        assert "value file state 0: not a number: int too large" in err

    def test_both_sides_checked_before_any_estimate(self, capsys, tmp_path):
        # A pure A policy: q covers every move of the lower view but misses
        # moves of A's other sites in the upper view, so nothing is printed.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=3))
        pure = {str(i): [1.0, 0.0, 0.0] for i in range(model.n_states - 1)}
        pure[str(model.absorbing)] = [1.0]
        ppath = tmp_path / "pure.json"
        ppath.write_text(json.dumps(pure))
        lower = zd.fix_player(
            model, zd.policy_from_dict(model, zd.PLAYER_A, pure), zd.PLAYER_A
        )
        reach = dense_kernel(lower).sum(axis=1) > 0.0
        reach[:, model.absorbing] = True
        q = reach / reach.sum(axis=1, keepdims=True)
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps({str(i): row for i, row in enumerate(q.tolist())}))
        upper = zd.fix_player(model, zd.uniform_policy(model, zd.PLAYER_B), zd.PLAYER_B)
        measure = zd.ReferenceMeasure(kernel=q, absorbing=model.absorbing)
        assert not zd.validate_abs_continuity(lower, measure)
        assert zd.validate_abs_continuity(upper, measure)
        code, out, err = run(
            capsys, "bound", "--game", "builtin:waste,N=3", "--fix", f"A=file:{ppath}",
            "--fix", "B=uniform", "--h", "zero", "--q", f"file:{qpath}", "--n", "50",
        )
        assert code == 2
        assert "absolute continuity" in err
        assert out == ""

    def test_improper_fixed_policy_exits_1(self, capsys, tmp_path):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=3))
        pure = {str(i): [1.0, 0.0, 0.0] for i in range(model.n_states - 1)}
        pure[str(model.absorbing)] = [1.0]
        ppath = tmp_path / "pure.json"
        ppath.write_text(json.dumps(pure))
        code, _, err = run(
            capsys, "bound", "--game", "builtin:waste,N=3",
            "--fix", f"B=file:{ppath}", "--h", "exact", "--n", "50", "--seed", "1",
        )
        assert code == 1
        assert "improper" in err

    def test_large_costs_are_not_reported_improper(self, capsys, tmp_path):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=3))
        big = zd.make_game(
            model.regime, model.transition, [1e7 * g for g in model.cost],
            labels=model.labels, root=model.root,
        )
        path = tmp_path / "waste3_big.json"
        path.write_text(json.dumps(zd.game_to_dict(big)))
        code, out, err = run(
            capsys, "bound", "--game", f"file:{path}", "--fix", "B=uniform", "--n", "50",
        )
        assert code == 0, err
        mean = float(out.split("mean=")[1].split()[0])
        assert mean == pytest.approx(365217391.304347, rel=1e-12)
        assert "se=0.0" in out

    def test_non_finite_bound_exits_1_after_writing_it(self, capsys, tmp_path):
        # At 1e300 x the pair value some likelihood-ratio walks overflow.
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=3))
        mu = zd.uniform_policy(model, zd.PLAYER_A)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        h = 1e300 * zd.evaluate_policy_pair(model, mu, nu)
        hpath = tmp_path / "h.json"
        hpath.write_text(json.dumps({str(i): v for i, v in enumerate(h.tolist())}))
        view = zd.fix_player(model, nu, zd.PLAYER_B)
        est = zd.estimate_dual_bound_ssp(
            view, h, zd.make_uniform_reference(model), 300, seed=1, keep_values=True
        )
        bad = int((~np.isfinite(est.per_scenario_values)).sum())
        assert bad and est.mean == np.inf
        out_path = tmp_path / "bounds.csv"
        code, out, err = run(
            capsys, "bound", "--game", "builtin:waste,N=3", "--fix", "B=uniform",
            "--h", f"file:{hpath}", "--n", "300", "--seed", "1", "--out", str(out_path),
        )
        assert code == 1
        assert out.splitlines() == [
            "upper: mean=inf se=inf n=300 seed=1", f"wrote {out_path}"
        ]
        assert out_path.read_text().splitlines()[-2:] == [
            "side,mean,se,n,seed", "upper,inf,inf,300,1"
        ]
        assert err.splitlines() == [
            f"upper: the dual bound is not finite (mean=inf): {bad} of 300 paths "
            f"are not finite"
        ]

    def test_overflowing_sum_of_finite_values_exits_1(self, capsys, tmp_path):
        # At 1e306 x the pair value every scenario value is finite, but
        # their sum is not.
        model = zd.build_two_period_matrix_game()
        mu = zd.uniform_policy(model, zd.PLAYER_A)
        nu = zd.uniform_policy(model, zd.PLAYER_B)
        h = 1e306 * zd.evaluate_policy_pair(model, mu, nu)
        hpath = tmp_path / "h.json"
        hpath.write_text(json.dumps({str(i): v for i, v in enumerate(h.tolist())}))
        est = zd.estimate_dual_bound_finite(
            zd.fix_player(model, nu, zd.PLAYER_B), h, 300, seed=1, keep_values=True
        )
        assert np.isfinite(est.per_scenario_values).all() and est.mean == np.inf
        out_path = tmp_path / "bounds.csv"
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", "B=uniform",
            "--h", f"file:{hpath}", "--n", "300", "--seed", "1", "--out", str(out_path),
        )
        assert code == 1
        assert out.splitlines() == [
            "upper: mean=inf se=inf n=300 seed=1", f"wrote {out_path}"
        ]
        assert out_path.read_text().splitlines()[-1] == "upper,inf,inf,300,1"
        assert err.splitlines() == [
            "upper: the dual bound is not finite (mean=inf): all 300 scenarios are "
            "finite; their sum overflowed"
        ]


class TestReproCommand:
    def test_matrix_game_artifacts(self, capsys, tmp_path):
        out_path = tmp_path / "m.csv"
        code, _, _ = run(
            capsys, "repro", "matrix-game",
            "--n", "2000", "--seed", "1", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        header_idx = lines.index(experiments.CSV_HEADER)
        rows = [l.split(",") for l in lines[header_idx + 1:] if l]
        assert {r[-1] for r in rows} == {"first-action-h", "exact-h"}
        exact_row = next(r for r in rows if r[-1] == "exact-h")
        assert float(exact_row[6]) == pytest.approx(5.6, abs=1e-9)
        assert float(exact_row[7]) == 0.0
        assert float(exact_row[2]) == pytest.approx(5.0, abs=1e-9)
        states = (tmp_path / "m_states.csv").read_text().splitlines()
        assert states[0] == "state,label,value,strategy_a,strategy_b"
        assert len(states) == 5

    def test_small_waste_run(self, capsys, tmp_path):
        out_path = tmp_path / "w.csv"
        code, _, _ = run(
            capsys, "repro", "waste-game", "--sites", "3", "--rounds", "1",
            "--n", "200", "--seed", "7", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert experiments.CSV_HEADER in lines
        data = [l for l in lines[lines.index(experiments.CSV_HEADER) + 1:] if l]
        assert len(data) == 2  # k = 0 and k = 1

    def test_rerun_is_byte_identical_modulo_timestamp(self, capsys, tmp_path):
        args = ["repro", "waste-game", "--sites", "3", "--rounds", "0",
                "--n", "100", "--seed", "5"]
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a_path))[0] == 0
        assert run(capsys, *args, "--out", str(b_path))[0] == 0
        assert strip_timestamp(a_path.read_text()) == strip_timestamp(b_path.read_text())

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "repro", "matrix-game", "--n", "500", "--seed", "2",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["metadata"]["seed"] == 2
        assert len(doc["rows"]) == 2
        assert len(doc["states"]) == 4

    def test_csv_tables_carry_the_json_records(self, capsys, tmp_path):
        # One writer for both record types: the header is the field names,
        # a float cell reads back to the JSON value bit for bit, and a tuple
        # cell is its floats joined by ';'.
        argv = ["repro", "matrix-game", "--n", "500", "--seed", "3"]
        csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
        assert run(capsys, *argv, "--out", str(csv_path))[0] == 0
        assert run(capsys, *argv, "--format", "json", "--out", str(json_path))[0] == 0
        doc = json.loads(json_path.read_text())
        rows_text = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        states_text = (tmp_path / "m_states.csv").read_text().splitlines()
        for kind, lines, records in (
            (experiments.ExperimentRow, rows_text, doc["rows"]),
            (experiments.StateRow, states_text, doc["states"]),
        ):
            names = [f.name for f in dataclasses.fields(kind)]
            assert lines[0].split(",") == names
            assert len(lines) == len(records) + 1
            for line, record in zip(lines[1:], records):
                assert list(record) == names
                for cell, value in zip(line.split(","), record.values()):
                    if isinstance(value, str):
                        assert cell == value
                    elif isinstance(value, list):
                        got = [float(c) for c in cell.split(";")]
                        assert np.array_equal(np.array(got).view(np.uint64),
                                              np.array(value, dtype=float).view(np.uint64))
                    elif isinstance(value, int):
                        assert int(cell) == value
                    else:
                        assert np.float64(float(cell)).view(np.uint64) == \
                            np.float64(value).view(np.uint64)

    @pytest.mark.parametrize("argv, keys", [
        (["matrix-game", "--n", "200"], {"solve", "bounds"}),
        (["waste-game", "--sites", "2", "--rounds", "1", "--n", "100"],
         {"naive_policy_iteration", "best_responses_k0", "best_responses_k1", "dual_bounds"}),
    ])
    def test_json_records_timings(self, capsys, tmp_path, argv, keys):
        out_path = tmp_path / "t.json"
        code, _, _ = run(capsys, "repro", *argv, "--format", "json", "--out", str(out_path))
        assert code == 0
        timings = json.loads(out_path.read_text())["metadata"]["timings"]
        assert set(timings) == keys
        assert all(np.isfinite(t) and t >= 0.0 for t in timings.values())

    def test_rows_satisfy_bracketing_invariant(self, capsys, tmp_path):
        out_path = tmp_path / "w.csv"
        code, _, _ = run(
            capsys, "repro", "waste-game", "--sites", "3", "--rounds", "2",
            "--n", "300", "--seed", "9", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        for line in lines[lines.index(experiments.CSV_HEADER) + 1:]:
            if not line:
                continue
            c = line.split(",")
            dual_lo, se_lo = float(c[4]), float(c[5])
            dual_hi, se_hi = float(c[6]), float(c[7])
            assert dual_lo - 3 * se_lo <= float(c[2]) + 1e-9
            assert float(c[3]) <= dual_hi + 3 * se_hi + 1e-9

    def test_requires_out(self, capsys):
        code, _, err = run(capsys, "repro", "matrix-game")
        assert code == 2
        assert "--out" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "--game", "builtin:matrix2p", "--fix", "B=suboptimal", "--seed", "-1"],
        ["repro", "waste-game", "--seed", "-5"],
    ],
)
def test_negative_seed_flag_exits_2(capsys, tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "f.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: seed must be a non-negative integer" in err
    assert not (tmp_path / "f.csv").exists()


# A seed is the first of the two 64-bit words of a scenario's Philox key.
WASTE3_BOUND = ["bound", "--game", "builtin:waste,N=3", "--fix", "B=uniform", "--n", "100"]


def test_seed_past_the_key_word_exits_2(capsys, tmp_path):
    argv = WASTE3_BOUND + ["--seed", str(2**65), "--out", str(tmp_path / "f.csv")]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --seed: seed must be a non-negative integer below 2**64" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_top_seed_runs(capsys, tmp_path, source):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2**64 - 1}))
    how = ["--seed", str(2**64 - 1)] if source == "flag" else ["--config", str(cfg)]
    code, out, _ = run(capsys, *WASTE3_BOUND, *how)
    assert code == 0
    assert f"n=100 seed={2**64 - 1}" in out


def test_negative_rounds_exit_2(capsys, tmp_path):
    out_path = tmp_path / "f.csv"
    code, out, err = run(
        capsys, "repro", "waste-game", "--sites", "3", "--rounds", "-3", "--out", str(out_path)
    )
    assert (code, out) == (2, "")
    assert err == "error: rounds must be an integer >= 0, got -3\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "what, doc",
    [
        ("game", [1, 2]),
        ("game", "waste"),
        ("game", {**WASTE2, "n_states": None}),
        ("game", {**WASTE2, "n_states": 7.5}),
        ("game", {**WASTE2, "n_states": "7"}),
        ("game", {**WASTE2, "n_states": 7.0}),
        ("game", {**WASTE2, "n_states": True}),
        ("game", {**WASTE2, "labels": 5}),
        ("game", {**WASTE2, "actions_a": 3}),
        ("reference measure", [[1.0]]),
        ("reference measure", "uniform"),
    ],
    ids=["game-list", "game-string", "null-n_states", "float-n_states", "string-n_states",
         "integral-float-n_states", "bool-n_states", "int-labels", "int-actions_a",
         "q-list", "q-string"],
)
def test_malformed_json_file_exits_2(capsys, tmp_path, what, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if what == "game":
        argv = ["solve", "--game", f"file:{path}"]
    else:
        argv = ["bound", "--game", "builtin:waste,N=2", "--fix", "B=uniform", "--q", f"file:{path}"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot load {what} from {path}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


class TestConfigPrecedence:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 123, "seed": 42}))
        code, out, _ = run(
            capsys, "bound", "--game", "builtin:matrix2p",
            "--fix", "B=suboptimal", "--h", "exact",
            "--config", str(cfg), "--seed", "5",
        )
        assert code == 0
        assert "n=123" in out      # from config
        assert "seed=5" in out     # flag wins over config

    def test_builtin_defaults_apply(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--game", "builtin:matrix2p",
            "--fix", "B=suboptimal", "--h", "exact", "--n", "64",
        )
        assert code == 0
        assert "seed=1" in out  # built-in default seed

    def bound_with_config(self, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return run(
            capsys, "bound", "--game", "builtin:matrix2p",
            "--fix", "B=suboptimal", "--h", "exact", "--config", str(cfg),
        )

    def test_misspelt_key_exits_2(self, capsys, tmp_path):
        code, out, err = self.bound_with_config(capsys, tmp_path, {"n": 50, "sed": 3})
        assert code == 2 and out == ""
        assert "'sed'" in err

    def test_removed_workers_key_exits_2(self, capsys, tmp_path):
        code, _, err = self.bound_with_config(capsys, tmp_path, {"workers": 2})
        assert code == 2
        assert "'workers'" in err

    def test_string_value_is_converted_like_a_flag(self, capsys, tmp_path):
        code, out, _ = self.bound_with_config(capsys, tmp_path, {"n": "50"})
        assert code == 0
        assert "n=50 " in out

    @pytest.mark.parametrize(
        "config", [{"n": 2.5}, {"n": True}, {"side": "middle"}, {"seed": -3}, {"seed": 2**64}]
    )
    def test_value_its_flag_rejects_exits_2(self, capsys, tmp_path, config):
        code, _, err = self.bound_with_config(capsys, tmp_path, config)
        assert code == 2
        assert err.startswith("error: config key")

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_config_supplies_game(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"game": "builtin:matrix2p"}))
        extra = ["--fix", "B=suboptimal", "--n", "64"] if command == "bound" else []
        code, out, _ = run(capsys, command, "--config", str(cfg), *extra)
        assert code == 0
        want = "upper: mean=5.6" if command == "bound" else "\n0,t0:g1,5.0,"
        assert want in out

    @pytest.mark.parametrize("command", ["solve", "bound"])
    def test_game_missing_from_flags_and_config_exits_2(self, capsys, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 1e-9}))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: --game is required")
