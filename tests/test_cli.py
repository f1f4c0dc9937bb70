"""Command-line interface: formats, determinism, config merge, exit codes."""

import json

import numpy as np
import pytest

from nhtopo import BoundaryCondition, ModelParams, lattice_hamiltonian, matrixio
from nhtopo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMatrixIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(61)
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cs = [np.eye(3, dtype=complex), 1j * np.eye(3)]
        path = tmp_path / "m.txt"
        matrixio.dump(path, h, cs)
        h2, cs2 = matrixio.load(path)
        assert np.max(np.abs(h - h2)) == 0.0
        assert len(cs2) == 2
        assert np.max(np.abs(cs[1] - cs2[1])) == 0.0

    def test_entry_grammar(self):
        assert matrixio.parse_complex("1.5-0.25i") == 1.5 - 0.25j
        assert matrixio.parse_complex("2i") == 2j
        assert matrixio.parse_complex("-i") == -1j
        assert matrixio.parse_complex("3") == 3.0
        assert matrixio.parse_complex("1e-3+2.5e2i") == 1e-3 + 250j
        with pytest.raises(ValueError):
            matrixio.parse_complex("nonsense+")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            matrixio.loads("2 0\n1 0 0 1 0\n")
        with pytest.raises(ValueError):
            matrixio.loads("x y\n")


class TestSweepCommands:
    def test_winding_columns_and_steps(self, capsys):
        code, out, _ = run_cli(
            capsys, "winding", "--u-range", "-2", "2.5", "10",
            "--t", "1", "--j", "1", "--gamma", "0.5", "--temperature", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "u,W,w"
        assert len(lines) == 11
        table = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert table["0"] == ["1", "1"]
        assert table["2"] == ["0", "0"]
        assert table["-1"][0] == ""  # transition point: empty invariant cell

    def test_repeat_runs_byte_identical(self, capsys):
        args = (
            "phase-diagram", "--u-range", "-1.5", "2", "5",
            "--gamma-range", "-0.8", "0.8", "4", "--t", "0.5",
            "--temperature", "0.2", "--k-grid", "501",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args, "--threads", "3")
        assert out1 == out2

    def test_phase_diagram_reference_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--u-range", "1.2", "1.2", "1",
            "--gamma-range", "0.5", "0.5", "1", "--t", "1", "--j", "1",
            "--temperature", "1",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[2:5] == ["0", "1", "II"]

    def test_phase_diagram_hermitian_row_lacks_mixed_regions(self, capsys):
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--u-range", "-1.5", "2", "15",
            "--gamma-range", "0", "0", "1", "--t", "0.5", "--temperature", "0.2",
        )
        assert code == 0
        regions = {row.split(",")[4] for row in out.strip().split("\n")[1:]}
        assert "II" not in regions and "III" not in regions

    def test_spectrum_scan_zero_mode_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum-scan", "--u-range", "0.5", "1.5", "2",
            "--cells", "20", "--which", "bands",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "u,index,re_E,im_E,is_zero_mode"
        flagged = {}
        for row in lines[1:]:
            u, _, _, _, flag = row.split(",")
            flagged.setdefault(u, 0)
            flagged[u] += flag == "true"
        assert flagged["0.5"] == 2
        assert flagged["1.5"] == 0

    def test_json_format_equivalence(self, capsys):
        args = ("winding", "--u-range", "0", "0", "1")
        _, csv_out, _ = run_cli(capsys, *args)
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        payload = json.loads(json_out)
        csv_row = csv_out.strip().split("\n")[1].split(",")
        assert payload[0]["W"] == csv_row[1]
        assert payload[0]["w"] == csv_row[2]

    def test_density_summary_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--cells", "30", "--u", "0.5", "--gamma", "0.5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "cell,occupation"
        assert len(lines) == 32
        assert lines[-1].startswith("edge_accumulation,")

    def test_config_file_merge_and_flag_priority(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("u-range = 0 0 1\ngamma = 0.5\ntemperature = 1\n")
        _, out_cfg, _ = run_cli(capsys, "winding", "--config", str(cfg))
        row = out_cfg.strip().split("\n")[1].split(",")
        assert row[1:] == ["1", "1"]
        # an explicit flag overrides the config value
        _, out_flag, _ = run_cli(
            capsys, "winding", "--config", str(cfg), "--u", "9.9",
            "--u-range", "2", "2", "1",
        )
        row = out_flag.strip().split("\n")[1].split(",")
        assert row[1:] == ["0", "0"]

    def test_out_path(self, capsys, tmp_path):
        target = tmp_path / "w.csv"
        code, out, _ = run_cli(
            capsys, "winding", "--u-range", "0", "0", "1", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("u,W,w")


class TestMatrixCommands:
    @pytest.fixture()
    def chain_file(self, tmp_path):
        p = ModelParams(u=0.7, t=1.0, j=1.0, gamma=0.5, cells=4)
        h = lattice_hamiltonian(p, BoundaryCondition.OPEN)
        couplings = [
            np.diag((np.arange(8) == i).astype(complex)) for i in range(8)
        ]
        path = tmp_path / "chain.txt"
        matrixio.dump(path, h, couplings)
        return path

    def test_classify_model_ops(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "classify", str(chain_file), "--model-ops", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["class"]["state_class"] == "BDI*"
        assert payload["class"]["invariant_groups"] == ["Z", "0", "0"]

    def test_classify_rescaled_chain(self, capsys, tmp_path):
        p = ModelParams(u=0.7, t=1.0, j=1.0, gamma=0.5, cells=4)
        h = (1.0 - 1.0j) * lattice_hamiltonian(p, BoundaryCondition.OPEN)
        path = tmp_path / "scaled.txt"
        matrixio.dump(path, h)
        code, out, _ = run_cli(
            capsys, "classify", str(path), "--model-ops", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["cs"] is False
        assert payload["report"]["lcs"] is True

    def test_classify_no_ops_is_class_a(self, capsys, tmp_path):
        rng = np.random.default_rng(62)
        path = tmp_path / "rand.txt"
        matrixio.dump(path, rng.standard_normal((4, 4)) + 0j)
        code, out, _ = run_cli(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["class"]["state_class"] == "A"
        assert payload["class"]["invariant_groups"] == ["0", "Z", "0"]

    def test_classify_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 0\n1 2 3\n")
        code, _, err = run_cli(capsys, "classify", str(bad))
        assert code == 1 and "error" in err

    def test_classify_defective_exit_2(self, capsys, tmp_path):
        path = tmp_path / "jordan.txt"
        matrixio.dump(path, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
        trs = tmp_path / "eye.txt"
        matrixio.dump(trs, np.eye(2, dtype=complex))
        code, _, err = run_cli(capsys, "classify", str(path), "--trs-file", str(trs))
        assert code == 2

    def test_metric_direct_path(self, capsys, chain_file):
        code, out, _ = run_cli(
            capsys, "metric", str(chain_file), "--beta", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == "direct"
        t_c = np.array([[re + 1j * im for re, im in row] for row in payload["t_c"]])
        expected = np.diag(np.tile([np.sqrt(3.0), 1 / np.sqrt(3.0)], 4))
        assert np.max(np.abs(t_c - expected)) < 1e-8
        assert abs(sum(payload["probabilities"]) - 1.0) < 1e-12

    def test_metric_reduced_path(self, capsys, tmp_path):
        rng = np.random.default_rng(63)
        n = 5
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        v += 3.0 * np.eye(n)
        energies = np.array([0.2, 0.7, 1.3, 0.5 - 0.8j, 1.0 - 1.2j])
        h = (v * energies) @ np.linalg.inv(v)
        right = v / np.linalg.norm(v, axis=0)
        t_true = (right * rng.uniform(0.5, 2.0, n)) @ right.conj().T
        path = tmp_path / "complex.txt"
        matrixio.dump(path, h, [t_true])
        code, out, _ = run_cli(
            capsys, "metric", str(path), "--beta", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == "reduced"
        assert len(payload["retained_modes"]) == 3

    def test_metric_not_thermalizable_exit_3(self, capsys, tmp_path):
        rng = np.random.default_rng(64)
        v = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        h = (v * np.arange(1.0, 5.0)) @ np.linalg.inv(v)
        c = rng.standard_normal((4, 4))
        path = tmp_path / "clash.txt"
        matrixio.dump(path, h, [(c + c.T).astype(complex)])
        code, _, err = run_cli(capsys, "metric", str(path))
        assert code == 3

    def test_theorem3_demo_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "theorem3-demo", "--alphas", "100", "10000", "--seed", "3"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,discrepancy"
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) < 1e-6

    def test_usage_error_exit_1(self, capsys):
        code, _, _ = run_cli(capsys, "winding", "--u-range", "bad", "2", "3")
        assert code == 1

    def test_thread_env_var_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("NHTOPO_THREADS", "2")
        from nhtopo.cli import _thread_default

        assert _thread_default() == 2
        code, out, _ = run_cli(capsys, "winding", "--u-range", "0", "0", "1")
        assert code == 0 and out.startswith("u,W,w")

    def test_malformed_thread_env_var_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NHTOPO_THREADS", "two")
        code, out, err = run_cli(capsys, "winding", "--u-range", "0", "0", "1")
        assert code == 1 and out == ""
        assert "NHTOPO_THREADS" in err
        # an explicit --threads never consults the environment
        code, _, _ = run_cli(
            capsys, "winding", "--u-range", "0", "0", "1", "--threads", "1"
        )
        assert code == 0
