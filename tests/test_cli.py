import json

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

    @pytest.mark.parametrize("config", [{"n": 2.5}, {"n": True}, {"side": "middle"}])
    def test_value_its_flag_rejects_exits_2(self, capsys, tmp_path, config):
        code, _, err = self.bound_with_config(capsys, tmp_path, config)
        assert code == 2
        assert err.startswith("error: config key")
