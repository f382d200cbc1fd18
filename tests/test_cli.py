import json
import warnings

import numpy as np
import pytest

import zsgdual as zd
from zsgdual import cli, experiments


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timestamp(text: str) -> list[str]:
    return [l for l in text.splitlines() if not l.startswith("# timestamp")]


def waste2_file(tmp_path, **overrides) -> str:
    """Game-file spec of waste N=2 (7 states, root 0) with fields replaced."""
    doc = zd.game_to_dict(zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=2)))
    doc.update(overrides)
    path = tmp_path / "waste2.json"
    path.write_text(json.dumps(doc))
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

    @pytest.mark.parametrize("param", ["k1=inf", "k2=-inf", "k1=nan"])
    def test_non_finite_waste_weight_exits_2(self, capsys, param):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "solve", "--game", f"builtin:waste,N=3,{param}")
        assert (code, out) == (2, "")
        assert err == "error: distance weights must be positive and finite\n"

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

    def test_pair_value_needs_both_policies(self, capsys):
        code, _, err = run(
            capsys, "bound", "--game", "builtin:waste,N=3",
            "--fix", "B=uniform", "--h", "pair-value", "--n", "50", "--seed", "1",
        )
        assert code == 2
        assert "both policies" in err

    @pytest.mark.parametrize("root", [99, -1, "0"])
    def test_root_outside_state_range_exits_2(self, capsys, tmp_path, root):
        code, out, err = run(
            capsys, "bound", "--game", waste2_file(tmp_path, root=root),
            "--fix", "B=uniform", "--n", "50",
        )
        assert code == 2
        assert f"root {root!r} is not a state index in [0, 7)" in err
        assert "mean=" not in out

    @pytest.mark.parametrize("policy", ["optimal", "uniform"])
    def test_non_finite_tol_exits_2(self, capsys, policy):
        code, _, err = run(capsys, "bound", "--game", "builtin:waste,N=3",
                           "--fix", f"B={policy}", "--tol", "nan", "--n", "10")
        assert code == 2
        assert "tol must be finite" in err

    def test_non_finite_game_entry_exits_2(self, capsys, tmp_path):
        for field, value in (("transition", "NaN"), ("cost", "NaN"), ("cost", "-Infinity")):
            doc = zd.game_to_dict(zd.build_two_period_matrix_game())
            doc[field][1][0][1][2] = "BAD"
            path = tmp_path / "game.json"
            path.write_text(json.dumps(doc).replace('"BAD"', value))
            code, out, err = run(
                capsys, "bound", "--game", f"file:{path}", "--fix", "B=uniform",
                "--h", "zero", "--n", "100",
            )
            assert (code, out) == (2, "")
            assert "state 1: non-finite transition probability or cost" in err

    def test_non_finite_policy_entry_exits_2(self, capsys, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"0": [NaN, 1.0], "1": [1.0, 0.0], "2": [0.0, 1.0], "3": [1.0]}')
        code, out, err = run(
            capsys, "bound", "--game", "builtin:matrix2p", "--fix", f"B=file:{path}",
            "--h", "zero", "--n", "100",
        )
        assert (code, out) == (2, "")
        assert "policy at state 0 is not a probability vector" in err

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
        reach = lower.kernel.sum(axis=1) > 0.0
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
        "config", [{"n": 2.5}, {"n": True}, {"side": "middle"}, {"seed": -3}]
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
