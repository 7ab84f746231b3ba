import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from suffcast import DgpSpec, PanelData, RollingConfig, StudyConfig
from suffcast import cli
from suffcast.cli import main
from test_panel_data import save_csv


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

    def test_replication_failures_reported_not_fatal(self, tmp_path, capsys):
        out = tmp_path / "fail"
        # one observation per slice makes every TM kernel fail
        assert run([
            "simulate", "--p", 20, "--t-len", 30, "--n-reps", 2, "--h-slices", 30,
            "--methods", "tm", "--seed", 0, "--jobs", 1, "--out-dir", out,
        ]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["n_failed"] == 2
        err = capsys.readouterr().err
        assert "n_failed=2" in err
        assert "'ValueError': 2" in err

    def test_json_method_list_runs_like_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"methods": ["sir", "dr"]}))
        args = ["simulate", "--p", 20, "--t-len", 40, "--n-reps", 2, "--seed", 3, "--jobs", 1]
        assert run(args + ["--config", cfg, "--out-dir", tmp_path / "json"]) == 0
        assert run(args + ["--methods", "sir,dr", "--out-dir", tmp_path / "flag"]) == 0
        for name in ("study.csv", "replications.csv"):
            assert (tmp_path / "json" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()

    def test_replications_csv_parses_back_to_the_library_values(self, tmp_path):
        from suffcast import monte_carlo_study

        out = tmp_path / "reps"
        assert run([
            "simulate", "--p", 20, "--t-len", 40, "--n-reps", 3, "--methods", "sir,dr,pc",
            "--metrics", "directions,oos", "--seed", 5, "--jobs", 1, "--out-dir", out,
        ]) == 0
        spec = DgpSpec(p=20, t_len=40, seed=5)
        config = StudyConfig(methods=("sir", "dr", "pc"), metrics=("directions", "oos"), n_reps=3)
        expected = monte_carlo_study(spec, config).values
        parsed = {}
        with open(out / "replications.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                parsed.setdefault((row["method"], row["metric"]), []).append(float(row["value"]))
        assert parsed.keys() == expected.keys()
        for key, values in expected.items():
            assert np.array_equal(parsed[key], values, equal_nan=True), key


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

    def test_origins_csv_parses_back_to_the_report(self, tmp_path):
        from suffcast import load_csv, rolling_evaluate

        panel = write_factor_panel(tmp_path, link="curved")
        out = tmp_path / "dr"
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "dr", "--k", "auto", "--l", "auto", "--window", 120,
            "--n-eval", 15, "--out-dir", out,
        ]) == 0
        config = RollingConfig(window=120, method="dr", k="auto", l="auto", n_eval=15)
        report = rolling_evaluate(load_csv(panel, "target"), config)
        with open(out / "origins.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for column, expected, parse in (
            ("origin", report.origins, int),
            ("forecast", report.forecasts, float),
            ("realized", report.realized, float),
            ("benchmark", report.benchmarks, float),
            ("selected_k", report.selected_k, int),
            ("selected_l", report.selected_l, int),
        ):
            assert np.array_equal([parse(row[column]) for row in rows], expected), column

    def test_truncated_input_exits_2(self, tmp_path, capsys):
        panel = write_factor_panel(tmp_path, t_len=60)
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "pc", "--k", 3, "--window", 120, "--out-dir", tmp_path / "x",
        ]) == 2
        assert "insufficient data: need at least window + horizon = 121 columns, panel has 60" in (
            capsys.readouterr().err
        )

    def test_stdout_mse_ratio_matches_summary(self, tmp_path, capsys):
        panel = write_factor_panel(tmp_path, link="curved")
        out = tmp_path / "dr"
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "dr", "--k", 3, "--l", 1, "--window", 120, "--n-eval", 10,
            "--out-dir", out,
        ]) == 0
        fields = dict(item.split("=") for item in capsys.readouterr().out.split())
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rmse_vs_pc"] != 1.0
        assert fields["mse_ratio_pc"] == f"{summary['rmse_vs_pc']:.3g}"

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
        from suffcast import load_csv, standardize, select_and_fit_factors
        from suffcast import sdr

        panel_path = write_factor_panel(tmp_path, t_len=200, p=20, k=2, seed=4)
        out = tmp_path / "sel3"
        assert run([
            "select", "--input", panel_path, "--target-column", "target",
            "--k-max", 5, "--out-dir", out,
        ]) == 0
        panel = standardize(load_csv(panel_path, "target"))
        selection, fit = select_and_fit_factors(panel.x, 5)
        k = max(selection.k_hat, 1)
        slices = sdr.slice_target(panel.y, 10)
        kernel = sdr.build_kernel("dr", fit.factors, slices, "identity")
        dim = sdr.select_dimension(kernel, panel.p, panel.t_len, 1.0)
        # the penalty scale written out: CT_CALIBRATION (sqrt(K/p) T + sqrt(T))
        c_t = sdr.CT_CALIBRATION * (np.sqrt(k / panel.p) * panel.t_len + np.sqrt(panel.t_len))
        assert dim.c_t == pytest.approx(c_t, rel=1e-12)
        assert json.loads((out / "summary.json").read_text())["c_t"] == dim.c_t
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

    def test_factor_count_stops_below_min_p_t(self, tmp_path):
        # at K = p the residual is zero up to rounding, so its criterion would
        # always win; select, factors and forecast all stop at p - 1
        panel = write_factor_panel(tmp_path, t_len=200, p=5, k=3, seed=9)
        io = ["--input", panel, "--target-column", "target"]
        assert run(["select", *io, "--out-dir", tmp_path / "sel"]) == 0
        k_rows = (tmp_path / "sel" / "k_criterion.csv").read_text().strip().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in k_rows] == [0, 1, 2, 3, 4]
        k_hat = json.loads((tmp_path / "sel" / "summary.json").read_text())["k_hat"]
        assert run(["factors", *io, "--out-dir", tmp_path / "fac"]) == 0
        eigenvalues = np.loadtxt(tmp_path / "fac" / "eigenvalues.csv", delimiter=",", ndmin=1)
        assert eigenvalues.shape == (max(k_hat, 1),)
        assert run([
            "forecast", *io, "--k", "auto", "--window", 199, "--n-eval", 1,
            "--method", "pc", "--out-dir", tmp_path / "fc",
        ]) == 0
        origin = (tmp_path / "fc" / "origins.csv").read_text().strip().splitlines()[1]
        assert int(origin.split(",")[4]) <= 4

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
        from suffcast import load_csv, standardize, select_and_fit_factors

        panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=5)
        out = tmp_path / "fac"
        assert run([
            "factors", "--input", panel_path, "--target-column", "target",
            "--k", 2, "--out-dir", out,
        ]) == 0
        panel = standardize(load_csv(panel_path, "target"))
        _, fit = select_and_fit_factors(panel.x, 1, 2)
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


PANEL_IO = {"input", "target_column", "delimiter", "out_dir"}
#: command -> (config classes, exposed fields or None for all, I/O keys)
EXPOSED = {
    "simulate": ((DgpSpec, StudyConfig), None, {"out_dir"}),
    "forecast": (
        (RollingConfig,),
        {"window", "horizon", "method", "k", "l", "h_slices", "n_eval", "variance_mode",
         "standardize", "ct_multiplier"},
        PANEL_IO,
    ),
    "select": (
        (RollingConfig,),
        {"k_max", "method", "h_slices", "variance_mode", "ct_multiplier", "standardize"},
        PANEL_IO,
    ),
    "factors": ((RollingConfig,), {"k", "k_max", "standardize"}, PANEL_IO),
}
LIBRARY_ONLY = {"phi1", "phi2"}
OVERRIDES = {("simulate", "jobs"): 0, ("factors", "k"): "auto"}


def resolve(argv):
    """The resolved config of ``argv`` without running the command."""
    args = cli.build_parser().parse_args([str(a) for a in argv])
    return cli._resolve_config(args, cli._command_keys(args.command))


def subcommand_keys(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return {a.dest for a in sub.choices[command]._actions} - {"help", "config"}


class TestDerivedKeys:
    @pytest.mark.parametrize("command", sorted(EXPOSED))
    def test_keys_and_defaults_come_from_the_fields(self, command):
        classes, names, io_keys = EXPOSED[command]
        exposed = {
            ("model" if f.name == "link" else f.name): f.default
            for cls in classes
            for f in fields(cls)
            if f.name not in LIBRARY_ONLY and (names is None or f.name in names)
        }
        assert subcommand_keys(command) == set(exposed) | io_keys
        io = ["--input", "panel.csv", "--target-column", "y"] if "input" in io_keys else []
        config = resolve([command, *io])
        for key, default in exposed.items():
            assert config[key] == OVERRIDES.get((command, key), default), key

    def test_benchmark_flags_keep_their_values(self):
        config = resolve([
            "simulate", "--model", "IV", "--p", 100, "--t-len", 500, "--n-test", 100,
            "--methods", "sir,dr,tm,ens", "--metrics", "directions,k_selection",
            "--jobs", 1, "--n-reps", 25, "--seed", 420, "--out-dir", "o",
        ])
        assert (config["model"], config["p"], config["t_len"], config["n_test"]) == ("IV", 100, 500, 100)
        assert config["methods"] == ("sir", "dr", "tm", "ens")
        assert config["metrics"] == ("directions", "k_selection")
        assert (config["jobs"], config["n_reps"], config["seed"], config["out_dir"]) == (1, 25, 420, "o")
        config = resolve([
            "forecast", "--input", "p.csv", "--target-column", "target", "--window", 120,
            "--n-eval", 240, "--horizon", 6, "--method", "ens", "--k", "auto", "--l", "auto",
        ])
        assert (config["window"], config["n_eval"], config["horizon"]) == (120, 240, 6)
        assert (config["method"], config["k"], config["l"]) == ("ens", "auto", "auto")
        config = resolve(["forecast", "--input", "p.csv", "--target-column", "t", "--k", 8, "--l", 1])
        assert (config["k"], config["l"]) == (8, 1)


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "command,values",
        [
            ("simulate", {"p": "20"}),
            ("simulate", {"fixed_loadings": "0"}),
            ("factors", {"standardize": "0"}),
        ],
    )
    def test_wrong_json_type_exits_2_before_writing(self, tmp_path, capsys, command, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        panel = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=5)
        io = ["--input", panel, "--target-column", "target"] if command == "factors" else []
        assert run([command, *io, "--config", cfg, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {next(iter(values))} must be" in err
        assert "Traceback" not in err
        assert not (out / "config_resolved.json").exists()

    @pytest.mark.parametrize(
        "command,flags,config,message",
        [
            ("simulate", ["--metrics", "bogus"], None, "unknown metrics"),
            ("simulate", ["--bandwidth-scale", "nan"], None, "bandwidth_scale must be"),
            ("simulate", ["--bandwidth-scale", "0"], None, "bandwidth_scale must be"),
            ("simulate", [], '{"bandwidth_scale": NaN}', "bandwidth_scale must be"),
            ("forecast", ["--window", "5"], None, "window too short"),
            ("select", ["--method", "bogus"], None, "unknown method"),
            ("select", ["--method", "pc"], None, "unknown method"),
            ("forecast", ["--n-eval", "0"], None, "n_eval must be >= 1"),
            ("forecast", ["--n-eval", "-3"], None, "n_eval must be >= 1"),
            ("forecast", ["--h-slices", "0"], None, "h_slices must be >= 1"),
            ("forecast", ["--k", "0"], None, 'k must be >= 1 or "auto"'),
            ("forecast", ["--l", "0"], None, 'l must be >= 1 or "auto"'),
            ("forecast", ["--variance-mode", "bogus"], None, "unknown variance_mode"),
            ("select", ["--k-max", "0"], None, "k_max must be >= 1"),
            ("simulate", ["--n-reps", "3", "--l", "0"], None, "l must be >= 1"),
            ("simulate", ["--n-reps", "3", "--h-slices", "0"], None, "h_slices must be >= 1"),
            ("simulate", ["--n-reps", "3", "--variance-mode", "bogus"], None,
             "unknown variance_mode"),
            ("simulate", ["--n-reps", "3", "--k-max", "0", "--metrics", "k_selection"], None,
             "k_max must be >= 1"),
            ("simulate", ["--n-reps", "3", "--p", "0"], None, "p must be >= 1"),
            ("simulate", ["--n-reps", "3", "--n-test", "0", "--metrics", "oos"], None,
             "n_test must be >= 1"),
            ("simulate", ["--n-reps", "3", "--sigma", "-1"], None, "sigma must be >= 0"),
            ("simulate", ["--n-reps", "2", "--p", "30", "--t-len", "60", "--l", "7"], None,
             "l=7 must be <= k=6"),
            ("simulate", ["--n-reps", "2", "--p", "20", "--t-len", "5"], None,
             "k=6 out of range 1..min(p=20, T=5)"),
            ("simulate", ["--n-reps", "2", "--p", "30", "--t-len", "60", "--h-slices", "80"],
             None, "h_slices=80 must be <= t_len=60"),
            ("forecast", ["--k", "2", "--l", "5", "--n-eval", "3"], None, "l=5 must be <= k=2"),
            ("forecast", ["--window", "15", "--horizon", "6"], None,
             "window too short: window - horizon = 9"),
            ("forecast", ["--k", "auto", "--l", "9"], None, "l=9 must be <= k_max=8"),
            ("forecast", ["--h-slices", "150"], None,
             "h_slices=150 must be <= window - horizon = 119"),
            ("forecast", ["--k", "115", "--horizon", "6"], None,
             "k=115 must be < window - horizon = 114"),
        ],
    )
    def test_out_of_range_value_exits_2_before_writing(
        self, tmp_path, capsys, command, flags, config, message
    ):
        out = tmp_path / "out"
        args = [command, *flags, "--out-dir", out]
        if command != "simulate":
            args += ["--input", tmp_path / "unread.csv", "--target-column", "target"]
        if config is not None:
            (tmp_path / "cfg.json").write_text(config)
            args += ["--config", tmp_path / "cfg.json"]
        assert run(args) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (out / "config_resolved.json").exists()

    def test_standardize_flag_0_matches_json_false(self, tmp_path):
        panel = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=5)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"standardize": False}))
        args = ["factors", "--input", panel, "--target-column", "target", "--k", 2]
        assert run(args + ["--standardize", 0, "--out-dir", tmp_path / "flag"]) == 0
        assert run(args + ["--config", cfg, "--out-dir", tmp_path / "json"]) == 0
        assert run(args + ["--out-dir", tmp_path / "std"]) == 0
        flag = (tmp_path / "flag" / "factors.csv").read_bytes()
        assert flag == (tmp_path / "json" / "factors.csv").read_bytes()
        assert flag != (tmp_path / "std" / "factors.csv").read_bytes()

    def test_resolved_config_of_another_command_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "forecast"}))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2
        assert "for command 'forecast'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(EXPOSED))
    def test_rerun_from_resolved_config_is_byte_identical(self, tmp_path, command):
        panel = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=8, link="curved")
        panel_args = ["--input", panel, "--target-column", "target"]
        args = {
            "simulate": ["--p", 20, "--t-len", 40, "--n-reps", 2, "--methods", "sir,dr,pc",
                         "--metrics", "oos,l_selection", "--jobs", 1, "--seed", 4],
            "forecast": [*panel_args, "--method", "dr", "--k", "auto", "--l", "auto",
                         "--window", 100, "--n-eval", 5, "--standardize", 0],
            "select": [*panel_args, "--method", "tm", "--k-max", 4],
            "factors": [*panel_args, "--k", "auto", "--k-max", 5],
        }[command]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run([command, *args, "--out-dir", first]) == 0
        resolved = first / "config_resolved.json"
        assert run([command, "--config", resolved, "--out-dir", second]) == 0
        for path in sorted(first.iterdir()):
            if path.name == "metadata.json":  # holds the run time
                a, b = (json.loads((d / path.name).read_text()) for d in (first, second))
                del a["runtime_seconds"], b["runtime_seconds"]
                assert a == b
            elif path.name == "config_resolved.json":
                a, b = (json.loads((d / path.name).read_text()) for d in (first, second))
                assert a == {**b, "out_dir": str(first)}
            else:
                assert path.read_bytes() == (second / path.name).read_bytes(), path.name
