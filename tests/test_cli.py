import json

import numpy as np
import pytest

from suffcast import PanelData, save_csv
from suffcast.cli import main


def run(args):
    return main([str(a) for a in args])


def write_factor_panel(tmp_path, t_len=260, p=12, k=3, seed=0, link="linear"):
    """Panel with a k-factor structure and a target driven by the factors."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((t_len, k))
    b = rng.uniform(-1, 2, (p, k))
    x = b @ f.T + 0.1 * rng.standard_normal((p, t_len))
    if link == "linear":
        y = f.sum(axis=1) + 0.1 * rng.standard_normal(t_len)
    else:
        y = f[:, 0] + f[:, 1] ** 2 + 0.1 * rng.standard_normal(t_len)
    panel = PanelData(
        x=x,
        series_names=tuple(f"s{i}" for i in range(p)),
        time_labels=tuple(f"t{i:04d}" for i in range(t_len)),
        y=y,
    )
    path = tmp_path / "panel.csv"
    save_csv(panel, path)
    return path


def write_noiseless_rank3_panel(tmp_path, p=30, t_len=80, seed=1):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((t_len, 3))
    b = rng.standard_normal((p, 3))
    x = b @ f.T
    y = f[:, 0] + f[:, 1] ** 2
    panel = PanelData(
        x=x,
        series_names=tuple(f"s{i}" for i in range(p)),
        time_labels=tuple(f"t{i:04d}" for i in range(t_len)),
        y=y,
    )
    path = tmp_path / "rank3.csv"
    save_csv(panel, path)
    return path


class TestSimulate:
    def test_smoke_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = [
            "simulate", "--model", "I", "--p", 50, "--t-len", 80, "--n-reps", 5,
            "--methods", "sir,dr", "--seed", 1, "--jobs", 1,
        ]
        assert run(args + ["--out-dir", out1]) == 0
        assert run(args + ["--out-dir", out2]) == 0
        for name in ("study.csv", "replications.csv", "metadata.json", "config_resolved.json"):
            assert (out1 / name).exists()
        assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
        assert (out1 / "replications.csv").read_bytes() == (out2 / "replications.csv").read_bytes()
        meta = json.loads((out1 / "metadata.json").read_text())
        assert meta["n_reps"] == 5
        assert meta["n_failed"] == 0
        lines = (out1 / "replications.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 4  # header + 5 reps x (2 methods x 2 metrics)

    def test_dr_beats_sir_on_symmetric_link(self, tmp_path):
        out = tmp_path / "study"
        assert run([
            "simulate", "--model", "I", "--p", 60, "--t-len", 120, "--n-reps", 10,
            "--methods", "sir,dr", "--seed", 420, "--jobs", 1, "--out-dir", out,
        ]) == 0
        rows = (out / "study.csv").read_text().strip().splitlines()[1:]
        medians = {}
        for row in rows:
            link, p, t, method, metric, median, *_ = row.split(",")
            medians[(method, metric)] = float(median)
        assert medians[("dr", "r2_phi2")] > medians[("sir", "r2_phi2")]

    def test_invalid_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "I", "bogus_key": 1}))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2

    def test_replication_failures_reported_not_fatal(self, tmp_path):
        out = tmp_path / "fail"
        # h_slices larger than T makes every replication fail
        assert run([
            "simulate", "--p", 20, "--t-len", 30, "--n-reps", 2, "--h-slices", 31,
            "--methods", "dr", "--seed", 0, "--jobs", 1, "--out-dir", out,
        ]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["n_failed"] == 2


class TestForecast:
    def test_pc_self_relative_rmse(self, tmp_path):
        panel = write_factor_panel(tmp_path)
        out = tmp_path / "pc"
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "pc", "--k", 3, "--window", 120, "--n-eval", 20,
            "--out-dir", out,
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rmse_vs_pc"] == 1.0

    def test_auto_l_recorded_per_origin(self, tmp_path):
        panel = write_factor_panel(tmp_path, link="curved")
        out = tmp_path / "dr"
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "dr", "--k", 3, "--l", "auto", "--window", 120,
            "--n-eval", 10, "--out-dir", out,
        ]) == 0
        lines = (out / "origins.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        l_col = header.index("selected_l")
        selected = {int(line.split(",")[l_col]) for line in lines[1:]}
        assert all(l >= 1 for l in selected)

    def test_truncated_input_exits_2(self, tmp_path):
        panel = write_factor_panel(tmp_path, t_len=60)
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "pc", "--k", 3, "--window", 120, "--out-dir", tmp_path / "x",
        ]) == 2

    def test_missing_file_exits_3(self, tmp_path):
        assert run([
            "forecast", "--input", tmp_path / "nope.csv", "--target-column", "target",
            "--out-dir", tmp_path / "x",
        ]) == 3


class TestSelect:
    def test_rank3_panel(self, tmp_path):
        panel = write_noiseless_rank3_panel(tmp_path)
        out = tmp_path / "sel"
        assert run([
            "select", "--input", panel, "--target-column", "target",
            "--k-max", 8, "--out-dir", out,
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k_hat"] == 3

    def test_two_direction_target_selects_l2(self, tmp_path):
        panel = write_factor_panel(tmp_path, t_len=400, p=40, k=3, link="curved", seed=3)
        out = tmp_path / "sel2"
        assert run([
            "select", "--input", panel, "--target-column", "target",
            "--k-max", 4, "--out-dir", out,
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["l_hat"] == 2

    def test_objective_csv_matches_library_bit_exactly(self, tmp_path):
        from suffcast import load_csv, standardize, fit_factors, select_num_factors
        from suffcast import sdr

        panel_path = write_factor_panel(tmp_path, t_len=200, p=20, k=2, seed=4)
        out = tmp_path / "sel3"
        assert run([
            "select", "--input", panel_path, "--target-column", "target",
            "--k-max", 5, "--out-dir", out,
        ]) == 0
        panel, _ = standardize(load_csv(panel_path, "target"))
        selection = select_num_factors(panel.x, 5)
        fit = fit_factors(panel.x, max(selection.k_hat, 1))
        slices = sdr.slice_target(panel.y, 10)
        kernel = sdr.build_kernel("dr", fit.factors, slices, "identity")
        c_t = sdr.default_ct("DR", max(selection.k_hat, 1), panel.p, panel.t_len)
        dim = sdr.select_dimension(kernel, panel.t_len, 0.5, c_t)
        lines = (out / "k_criterion.csv").read_text().strip().splitlines()[1:]
        for k, line in enumerate(lines):
            cells = line.split(",")
            assert cells[1] == repr(float(selection.log_resid[k]))
            assert cells[3] == repr(float(selection.criterion[k]))
        lines = (out / "l_objective.csv").read_text().strip().splitlines()[1:]
        for i, line in enumerate(lines):
            assert line.split(",")[1] == repr(float(dim.objective[i]))
        k_table = np.loadtxt(out / "k_criterion.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(k_table[:, 3], selection.criterion)
        l_table = np.loadtxt(out / "l_objective.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(l_table[:, 1], dim.objective)


    @pytest.mark.parametrize("method", ["bogus", "pc"])
    def test_unknown_method_exits_2(self, tmp_path, method, capsys):
        panel = write_factor_panel(tmp_path)
        out = tmp_path / "sel4"
        assert run([
            "select", "--input", panel, "--target-column", "target",
            "--method", method, "--out-dir", out,
        ]) == 2
        assert "unknown method" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestFactors:
    def test_dump_matches_library(self, tmp_path):
        from suffcast import load_csv, standardize, fit_factors

        panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=5)
        out = tmp_path / "fac"
        assert run([
            "factors", "--input", panel_path, "--target-column", "target",
            "--k", 2, "--out-dir", out,
        ]) == 0
        panel, _ = standardize(load_csv(panel_path, "target"))
        fit = fit_factors(panel.x, 2)
        dumped = np.loadtxt(out / "factors.csv", delimiter=",")
        assert np.array_equal(dumped, fit.factors)

    @pytest.mark.parametrize("k", ["auto", "2"])
    def test_eigensolver_failure_exits_4(self, tmp_path, k, monkeypatch, capsys):
        from suffcast import factor_analysis

        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(factor_analysis, "sym_eig_desc", failing)
        panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=5)
        assert run([
            "factors", "--input", panel_path, "--target-column", "target",
            "--k", k, "--out-dir", tmp_path / "fac3",
        ]) == 4
        assert "numerical failure: eigen-solver failure on XX'" in capsys.readouterr().err

    def test_resolved_config_written(self, tmp_path):
        panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=6)
        out = tmp_path / "fac2"
        run([
            "factors", "--input", panel_path, "--target-column", "target",
            "--k", 2, "--out-dir", out,
        ])
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["command"] == "factors"
        assert resolved["k"] == 2


def test_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("SUFFCAST_OUT_DIR", str(tmp_path / "envout"))
    panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=7)
    assert run([
        "factors", "--input", panel_path, "--target-column", "target", "--k", 2,
    ]) == 0
    assert (tmp_path / "envout" / "factors.csv").exists()
