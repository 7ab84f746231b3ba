import csv
import itertools
import json
import os
import subprocess
import sys
import time
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from suffcast import DgpSpec, PanelData, RollingConfig, StudyConfig, load_csv
from suffcast import _parallel, cli, simulation
from suffcast.cli import main
from suffcast.factor_analysis import K_MAX
from test_panel_data import save_csv


def run(args):
    """``main``'s exit code, also when argparse exits on an unknown flag."""
    try:
        return main([str(a) for a in args])
    except SystemExit as e:
        return e.code


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


def fail_leading_pairs(monkeypatch):
    """Make the eigensolver of a full-rank factor fit fail: ``dsyevr`` with a
    nonzero ``info`` where numpy's OpenBLAS exports it, else the fallback."""
    from suffcast import _eigen

    openblas = _parallel.bundled_openblas()
    if openblas is not None and openblas.dsyevr is not None:
        failing = openblas._replace(dsyevr=lambda *args: 3)
        monkeypatch.setattr(_parallel, "bundled_openblas", lambda: failing)
    else:
        def failing_eig(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(_eigen, "sym_eig_desc", failing_eig)


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
        assert meta["blas_threads"] == _parallel.blas_threads()
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

    @pytest.mark.parametrize("t_len", [8, 10])
    def test_factor_count_study_builds_no_kernel(self, tmp_path, t_len):
        # k_selection alone ignores the methods, so N_SLICES does not bound t_len
        out = tmp_path / "k"
        assert run([
            "simulate", "--methods", "sir,dr", "--metrics", "k_selection", "--p", 20,
            "--t-len", t_len, "--n-reps", 1, "--out-dir", out,
        ]) == 0
        rows = list(csv.DictReader(open(out / "study.csv")))
        assert [(r["method"], r["metric"], r["n_ok"]) for r in rows] == [
            ("factors", "k_selection", "1")
        ]

    def test_invalid_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "I", "bogus_key": 1}))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2

    def test_replication_failures_reported_not_fatal(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "fail"

        # a degenerate draw fails its replicate at run time; the config
        # checks cannot see it coming
        def degenerate(f, b):
            raise ValueError("rank-deficient factors: F'F is singular")

        monkeypatch.setattr(simulation, "identifiability_rotation", degenerate)
        assert run([
            "simulate", "--p", 20, "--t-len", 30, "--n-reps", 2,
            "--methods", "tm", "--seed", 0, "--jobs", 1, "--out-dir", out,
        ]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["n_failed"] == 2
        err = capsys.readouterr().err
        assert "n_failed=2" in err
        assert "'ValueError': 2" in err

    def test_runtime_is_not_read_off_the_wall_clock(self, tmp_path, monkeypatch):
        # the wall clock can step back during a run, as a clock correction does
        wall = itertools.count(1e9, -60.0)
        monkeypatch.setattr(time, "time", lambda: next(wall))
        out = tmp_path / "clock"
        assert run([
            "simulate", "--p", 20, "--t-len", 40, "--n-reps", 1, "--jobs", 1, "--out-dir", out,
        ]) == 0
        assert json.loads((out / "metadata.json").read_text())["runtime_seconds"] >= 0

    @pytest.mark.parametrize("methods", ["tm", "ens"])
    def test_two_observations_per_slice_run(self, tmp_path, methods):
        # t_len = 2 * N_SLICES is the shortest training length third moments allow
        out = tmp_path / methods
        assert run([
            "simulate", "--p", 20, "--t-len", 20, "--n-reps", 2,
            "--methods", methods, "--seed", 0, "--jobs", 1, "--out-dir", out,
        ]) == 0
        assert json.loads((out / "metadata.json").read_text())["n_failed"] == 0

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
        assert summary["blas_threads"] == _parallel.blas_threads()

    @pytest.mark.parametrize(
        "flags",
        [
            # window - horizon = 2 * N_SLICES, the shortest third moments allow
            ["--method", "tm", "--k", 3, "--window", 21],
            ["--method", "ens", "--k", 3, "--window", 22, "--horizon", 2],
            # l = N_SLICES - 1, the largest rank of SIR's kernel
            ["--method", "sir", "--k", 10, "--l", 9],
        ],
        ids=["tm", "ens", "sir"],
    )
    def test_slice_rules_admit_their_boundary(self, tmp_path, flags):
        panel = write_factor_panel(tmp_path, t_len=130)
        out = tmp_path / "out"
        assert run([
            "forecast", "--input", panel, "--target-column", "target", *flags,
            "--n-eval", 3, "--out-dir", out,
        ]) == 0
        assert json.loads((out / "summary.json").read_text())["n_eval"] == 3

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
            ("baseline", report.baseline, float),
        ):
            assert np.array_equal([parse(row[column]) for row in rows], expected), column

    def test_baseline_column_recomputes_mse_pc(self, tmp_path):
        panel = write_factor_panel(tmp_path, link="curved")
        out = tmp_path / "dr"
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "dr", "--k", 3, "--l", 1, "--window", 120, "--horizon", 2,
            "--n-eval", 15, "--out-dir", out,
        ]) == 0
        with open(out / "origins.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        # appended last: the earlier columns keep their positions
        assert reader.fieldnames == ["origin", "forecast", "realized", "benchmark",
                                     "selected_k", "selected_l", "baseline"]
        realized = np.array([float(row["realized"]) for row in rows])
        baseline = np.array([float(row["baseline"]) for row in rows])
        forecast = np.array([float(row["forecast"]) for row in rows])
        summary = json.loads((out / "summary.json").read_text())
        assert float(np.mean((realized - baseline) ** 2)) == summary["mse_pc"]
        assert float(np.mean((realized - forecast) ** 2)) == summary["mse"]
        assert not np.array_equal(baseline, forecast)

    def test_pc_baseline_column_is_the_forecast(self, tmp_path):
        panel = write_factor_panel(tmp_path)
        out = tmp_path / "pc"
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "pc", "--k", 3, "--window", 120, "--n-eval", 10,
            "--out-dir", out,
        ]) == 0
        with open(out / "origins.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10
        assert all(row["baseline"] == row["forecast"] for row in rows)

    def test_truncated_input_exits_2(self, tmp_path, capsys):
        panel = write_factor_panel(tmp_path, t_len=60)
        assert run([
            "forecast", "--input", panel, "--target-column", "target",
            "--method", "pc", "--k", 3, "--window", 120, "--out-dir", tmp_path / "x",
        ]) == 2
        assert (
            "insufficient data: need at least window + horizon - 1 = 120 columns, panel has 60"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("horizon", [1, 3])
    def test_shortest_panel_has_one_origin(self, tmp_path, capsys, horizon):
        # the last origin T - h reaches the first, window - 1, at T = window + h - 1
        args = ["forecast", "--target-column", "target", "--method", "pc", "--k", 3,
                "--window", 40, "--horizon", horizon]
        short = tmp_path / "short"
        short.mkdir()
        panel = write_factor_panel(short, t_len=40 + horizon - 2)
        assert run([*args, "--input", panel, "--out-dir", short / "out"]) == 2
        assert f"need at least window + horizon - 1 = {39 + horizon} columns" in (
            capsys.readouterr().err
        )
        assert not (short / "out").exists()
        panel = write_factor_panel(tmp_path, t_len=40 + horizon - 1)
        assert run([*args, "--input", panel, "--out-dir", tmp_path / "out"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["n_eval"] == 1
        assert (tmp_path / "out" / "config_resolved.json").exists()

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

    def test_repeated_target_column_exits_3_with_nothing_written(self, tmp_path, capsys):
        # a second "target" column would be kept as a series equal to y
        panel = tmp_path / "twice.csv"
        rows = [f"t{t:03d},{t % 7}.5,{t % 5}.25,{t % 5}.25" for t in range(60)]
        panel.write_text("\n".join(["date,a,target,target", *rows]) + "\n")
        assert run([
            "forecast", "--input", panel, "--target-column", "target", "--method", "pc",
            "--k", 1, "--window", 30, "--out-dir", tmp_path / "x",
        ]) == 3
        assert "repeated column name 'target'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def write_unreadable(tmp_path, case):
    """The ``(panel, config)`` paths of one case; ``config`` is None unless it is the bad one."""
    rows = [f"{2000 + t // 12}-{t % 12 + 1:02d},{t % 7}.5,{t % 5}.25" for t in range(30)]
    if case == "unsorted-labels":
        rows[0], rows[1] = rows[1], rows[0]
    elif case == "repeated-labels":
        rows[2] = rows[1]
    elif case == "stray-quote":
        rows[4] = rows[4].replace(",", ',"', 1)
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(["date,a,target", *rows]) + "\n")
    if case == "non-utf8-byte":
        panel.write_bytes(panel.read_bytes().replace(b"date", b"d\xffte"))
    elif case == "input-directory":
        panel = tmp_path / "dir.csv"
        panel.mkdir()
    elif case == "empty-file":
        panel.write_text("")
    elif case == "short-header":
        panel.write_text("\n".join(["date,target", *(r.rsplit(",", 1)[0] for r in rows)]) + "\n")
    config = None
    if case == "config-directory":
        config = tmp_path / "cfg.json"
        config.mkdir()
    return panel, config


@pytest.mark.parametrize(
    "case,code",
    [
        ("unsorted-labels", 3),
        ("repeated-labels", 3),
        ("input-directory", 3),
        ("non-utf8-byte", 3),
        ("stray-quote", 3),
        ("config-directory", 2),
        ("empty-file", 3),
        ("short-header", 3),
    ],
)
def test_unreadable_input_exits_with_its_code(tmp_path, capsys, case, code):
    panel, config = write_unreadable(tmp_path, case)
    args = ["factors", "--input", panel, "--target-column", "target", "--k", 1,
            "--out-dir", tmp_path / "out"]
    if config is not None:
        args += ["--config", config]
    assert run(args) == code
    err = capsys.readouterr().err
    assert err.startswith({3: "data error: ", 2: "error: "}[code])
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_dropped_rows_counted_in_the_summaries(tmp_path):
    panel = write_factor_panel(tmp_path, t_len=150, p=6, seed=3)
    lines = panel.read_text().splitlines()
    cells = lines[40].split(",")
    cells[2] = "NA"
    lines[40] = ",".join(cells)
    panel.write_text("\n".join(lines) + "\n")
    io = ["--input", panel, "--target-column", "target"]
    with pytest.warns(UserWarning, match="dropped 1 row"):
        assert run(["forecast", *io, "--method", "pc", "--k", 3, "--window", 120,
                    "--n-eval", 3, "--out-dir", tmp_path / "forecast"]) == 0
    with pytest.warns(UserWarning, match="dropped 1 row"):
        assert run(["select", *io, "--out-dir", tmp_path / "select"]) == 0
    for command in ("forecast", "select"):
        summary = json.loads((tmp_path / command / "summary.json").read_text())
        assert summary["n_dropped"] == 1


@pytest.mark.parametrize(
    "command,flags",
    [
        ("factors", ["--k", 2]),
        ("select", ["--method", "dr"]),
        ("forecast", ["--window", 40, "--n-eval", 3, "--k", 2]),
    ],
)
def test_constant_series_exits_3_with_nothing_written(tmp_path, capsys, command, flags):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 60))
    x[3] = 2.0
    panel = PanelData(
        x=x,
        series_names=tuple(f"s{i}" for i in range(8)),
        time_labels=tuple(f"t{i:04d}" for i in range(60)),
        y=rng.standard_normal(60),
    )
    save_csv(panel, tmp_path / "flat.csv")
    out = tmp_path / "out"
    assert run([command, "--input", tmp_path / "flat.csv", "--target-column", "target",
                *flags, "--out-dir", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "zero-variance series over window: 's3'" in err
    assert "Traceback" not in err
    assert not out.exists()


FORECAST_40 = ["forecast", "--k", 2, "--window", 40, "--n-eval", 3, "--method"]
CONSTANT_WINDOW = "forecast origin 57: the target is constant over the training window"


@pytest.mark.parametrize(
    "args,message",
    [
        ([*FORECAST_40, "dr"], CONSTANT_WINDOW),
        ([*FORECAST_40, "nlpc"], CONSTANT_WINDOW),
        ([*FORECAST_40, "pc"], CONSTANT_WINDOW),
        (["select", "--method", "dr"], "the target is constant over the panel"),
    ],
    ids=["forecast-dr", "forecast-nlpc", "forecast-pc", "select"],
)
def test_constant_target_exits_3_with_nothing_written(tmp_path, capsys, args, message):
    rng = np.random.default_rng(6)
    panel = PanelData(
        x=rng.standard_normal((8, 60)),
        series_names=tuple(f"s{i}" for i in range(8)),
        time_labels=tuple(f"t{i:04d}" for i in range(60)),
        y=np.zeros(60),
    )
    save_csv(panel, tmp_path / "zero.csv")
    out = tmp_path / "out"
    assert run([*args, "--input", tmp_path / "zero.csv", "--target-column", "target",
                "--out-dir", out]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["simulate", "factors"])
def test_out_dir_that_is_a_file_exits_2_before_running(
    tmp_path, capsys, monkeypatch, command, under
):
    def never(*args):
        raise AssertionError("the study ran")

    monkeypatch.setattr(cli, "monte_carlo_study", never)
    panel = write_factor_panel(tmp_path, t_len=60, p=8)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    args = {"simulate": ["simulate", "--n-reps", 2],
            "factors": ["factors", "--input", panel, "--target-column", "target"]}[command]
    before = sorted(tmp_path.iterdir())
    assert run([*args, "--out-dir", out]) == 2
    err = capsys.readouterr().err
    assert err == f"error: out_dir {str(out)!r}: {str(blocker)!r} is not a directory\n"
    assert blocker.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == before


def test_failing_origin_in_a_worker_exits_like_in_process(tmp_path, capsys, monkeypatch):
    # on four CPUs, four chunks of ten origins in four workers; s1 is flat
    # over the windows of origins 33 and 55
    rng = np.random.default_rng(15)
    x = rng.standard_normal((3, 60))
    x[1, 22:34] = 2.0
    x[1, 44:56] = -1.0
    panel = PanelData(
        x=x,
        series_names=tuple(f"s{i}" for i in range(3)),
        time_labels=tuple(f"t{i:04d}" for i in range(60)),
        y=rng.standard_normal(60),
    )
    save_csv(panel, tmp_path / "flat.csv")
    errors = []
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        out = tmp_path / f"cpus{cpus}"
        assert run(["forecast", "--input", tmp_path / "flat.csv", "--target-column", "target",
                    "--method", "pc", "--k", 1, "--window", 12, "--n-eval", 40,
                    "--out-dir", out]) == 3
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] == (
        "data error: forecast origin 33: zero-variance series over window: 's1'\n"
    )


def test_process_exit_codes(tmp_path):
    # the module run as a process goes through sys.exit(main()), like the console script
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    panel = write_factor_panel(tmp_path, t_len=60, p=8)
    io = ["--target-column", "target", "--out-dir", str(tmp_path / "out")]
    for args, code in [
        (["factors", "--input", str(panel), "--k", "2"], 0),
        (["forecast", "--input", str(panel), "--window", "5"], 2),
        (["factors", "--input", str(tmp_path / "missing.csv")], 3),
    ]:
        done = subprocess.run([sys.executable, "-m", "suffcast.cli", *args, *io], env=env,
                              capture_output=True, text=True)
        assert done.returncode == code, (args, done.stderr)
        assert "Traceback" not in done.stderr
    assert (tmp_path / "out" / "factors.csv").exists()


class TestSelect:
    @pytest.mark.parametrize(
        "method,t_len,message",
        [
            ("tm", 19, "panel length T=19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            ("ens", 19, "panel length T=19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            ("sir", 9, "panel length T=9 must be >= N_SLICES = 10 for sir"),
        ],
    )
    def test_slices_beyond_the_panel_exit_2_with_nothing_written(
        self, tmp_path, capsys, method, t_len, message
    ):
        # the panel length is known only once it is read: N_SLICES slices need
        # N_SLICES points, and third moments two in each slice
        panel = write_factor_panel(tmp_path, t_len=t_len, p=8)
        out = tmp_path / "out"
        out.mkdir()
        assert run([
            "select", "--input", panel, "--target-column", "target", "--method", method,
            "--out-dir", out,
        ]) == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_rank3_panel(self, tmp_path):
        panel = write_noiseless_rank3_panel(tmp_path)
        out = tmp_path / "sel"
        assert run([
            "select", "--input", panel, "--target-column", "target", "--out-dir", out,
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k_hat"] == 3

    def test_two_direction_target_selects_l2(self, tmp_path):
        panel = write_factor_panel(tmp_path, t_len=400, p=40, k=3, link="curved", seed=3)
        out = tmp_path / "sel2"
        assert run([
            "select", "--input", panel, "--target-column", "target", "--out-dir", out,
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["l_hat"] == 2

    def test_objective_csv_matches_library_bit_exactly(self, tmp_path):
        from suffcast import load_csv, select_and_fit_factors
        from suffcast import sdr
        from suffcast.panel_data import _standardize_array

        panel_path = write_factor_panel(tmp_path, t_len=200, p=20, k=2, seed=4)
        out = tmp_path / "sel3"
        assert run([
            "select", "--input", panel_path, "--target-column", "target", "--out-dir", out,
        ]) == 0
        panel = load_csv(panel_path, "target")
        x = _standardize_array(panel.x, panel.series_names)
        selection, fit = select_and_fit_factors(x, K_MAX)
        k = max(selection.k_hat, 1)
        slices = sdr.slice_target(panel.y, 10)
        kernel = sdr.build_kernels(["dr"], fit.factors, slices)["dr"]
        dim = sdr.select_dimension(kernel, panel.p, panel.t_len)
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
        from suffcast import load_csv, select_and_fit_factors
        from suffcast.panel_data import _standardize_array

        panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=5)
        out = tmp_path / "fac"
        assert run([
            "factors", "--input", panel_path, "--target-column", "target",
            "--k", 2, "--out-dir", out,
        ]) == 0
        panel = load_csv(panel_path, "target")
        # the bits of a fit depend on k_max, so the library call passes K_MAX, as the CLI does
        x = _standardize_array(panel.x, panel.series_names)
        _, fit = select_and_fit_factors(x, K_MAX, 2)
        dumped = np.loadtxt(out / "factors.csv", delimiter=",")
        assert np.array_equal(dumped, fit.factors)

    @pytest.mark.parametrize("k", ["auto", "2"])
    def test_eigensolver_failure_exits_4(self, tmp_path, k, monkeypatch, capsys):
        fail_leading_pairs(monkeypatch)
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


@pytest.mark.skipif(_parallel.bundled_openblas() is None,
                    reason="numpy's BLAS has no thread setter")
def test_select_and_factors_do_not_depend_on_blas_threads(tmp_path):
    # at FRED-MD's shape, an unpinned fit on 2 OpenBLAS threads differs from
    # one on 1 thread in the last bits of every file but summary.json
    panel = write_factor_panel(tmp_path, t_len=370, p=130, k=3, seed=1)
    openblas = _parallel.bundled_openblas()
    found = openblas.get_num_threads()
    try:
        for threads in (2, 1):
            openblas.set_num_threads(threads)
            for command in ("select", "factors"):
                assert run([
                    command, "--input", panel, "--target-column", "target",
                    "--out-dir", tmp_path / f"{command}{threads}",
                ]) == 0
                # the pin restores the count it found
                assert openblas.get_num_threads() == threads
    finally:
        openblas.set_num_threads(found)
    for command in ("select", "factors"):
        written = sorted(f.name for f in (tmp_path / f"{command}1").iterdir())
        assert written == sorted(f.name for f in (tmp_path / f"{command}2").iterdir())
        for name in set(written) - {"config_resolved.json"}:  # it names the out_dir
            one, two = (tmp_path / f"{command}{threads}" / name for threads in (1, 2))
            assert one.read_bytes() == two.read_bytes(), f"{command}/{name}"
    summary = json.loads((tmp_path / "select1" / "summary.json").read_text())
    assert summary["blas_threads"] == _parallel.blas_threads() == 1


def test_outputs_record_no_blas_thread_count_without_a_thread_setter(tmp_path, monkeypatch):
    # numpy linked against a BLAS other than its bundled OpenBLAS: the count
    # is left as it is, and the outputs say that no count was set
    monkeypatch.setattr(_parallel, "bundled_openblas", lambda: None)
    panel = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=8)
    assert run([
        "forecast", "--input", panel, "--target-column", "target", "--n-eval", 5,
        "--out-dir", tmp_path / "forecast",
    ]) == 0
    assert run([
        "simulate", "--p", 20, "--t-len", 60, "--n-reps", 2, "--jobs", 1,
        "--out-dir", tmp_path / "simulate",
    ]) == 0
    summary = json.loads((tmp_path / "forecast" / "summary.json").read_text())
    metadata = json.loads((tmp_path / "simulate" / "metadata.json").read_text())
    assert summary["blas_threads"] is None
    assert metadata["blas_threads"] is None


def test_out_dir_defaults_to_the_working_directory(tmp_path, monkeypatch):
    # out_dir has one source, the config: an environment variable is not read
    monkeypatch.setenv("SUFFCAST_OUT_DIR", str(tmp_path / "envout"))
    panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=7)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert run([
        "factors", "--input", panel_path, "--target-column", "target", "--k", 2,
    ]) == 0
    assert (tmp_path / "cwd" / "factors.csv").exists()
    assert json.loads((tmp_path / "cwd" / "config_resolved.json").read_text())["out_dir"] == "."
    assert not (tmp_path / "envout").exists()


@pytest.mark.parametrize("command", ["simulate", "forecast", "select", "factors"])
def test_main_reads_the_panel_once_and_pins_every_runner(tmp_path, monkeypatch, command):
    panel_path = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=7)
    _, classes, reads_panel = cli._COMMANDS[command]
    reads, calls = [], []

    def counting_load_csv(*args):
        reads.append(args)
        return load_csv(*args)

    openblas = _parallel.bundled_openblas()

    def recording_runner(out_dir, *args):
        calls.append((out_dir, args, openblas and openblas.get_num_threads()))

    monkeypatch.setattr(cli, "load_csv", counting_load_csv)
    monkeypatch.setitem(cli._COMMANDS, command, (recording_runner, classes, reads_panel))
    io = ["--input", panel_path, "--target-column", "target"] if reads_panel else []
    found = openblas and openblas.get_num_threads()
    try:
        if openblas is not None:  # so that the pin has something to change
            openblas.set_num_threads(2)
        assert run([command, *io, "--out-dir", tmp_path / "out"]) == 0
    finally:
        if openblas is not None:
            openblas.set_num_threads(found)
    assert reads == ([(str(panel_path), "target")] if reads_panel else [])
    [(out_dir, args, threads)] = calls
    assert out_dir == tmp_path / "out"
    panel_args = args[:1] if reads_panel else ()
    assert all(isinstance(a, PanelData) for a in panel_args)
    assert [type(a) for a in args[len(panel_args):]] == list(classes)
    assert threads == _parallel.blas_threads()


PANEL_IO = {"input", "target_column", "out_dir"}
#: command -> (config classes, every field of which is a key; I/O keys)
EXPOSED = {
    "simulate": ((DgpSpec, StudyConfig), {"out_dir"}),
    "forecast": ((RollingConfig,), PANEL_IO),
    "select": ((cli.SelectConfig,), PANEL_IO),
    "factors": ((cli.FactorsConfig,), PANEL_IO),
}


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
        classes, io_keys = EXPOSED[command]
        exposed = {}
        for cls in classes:
            hints = typing.get_type_hints(cls)
            for f in fields(cls):
                # every field has a type the CLI converts
                assert hints[f.name] in cli._CONVERTERS, f.name
                exposed["model" if f.name == "link" else f.name] = f.default
        assert subcommand_keys(command) == set(exposed) | io_keys
        io = ["--input", "panel.csv", "--target-column", "y"] if "input" in io_keys else []
        config = resolve([command, *io])
        for key, default in exposed.items():
            assert config[key] == default, key

    def test_every_converter_serves_an_exposed_field(self):
        # a converter is read through _CONVERTERS, so no unread-definitions check sees it
        types = set()
        for classes, _ in EXPOSED.values():
            for cls in classes:
                hints = typing.get_type_hints(cls)
                types |= {hints[f.name] for f in fields(cls)}
        assert set(cli._CONVERTERS) == types

    def test_each_subcommand_has_its_listed_keys(self):
        # the test above passes any new field; here a new option is a visible edit
        listed = {
            "simulate": ["model", "p", "t_len", "seed", "methods", "metrics", "n_reps",
                         "n_test", "jobs", "out_dir"],
            "forecast": ["input", "target_column", "window", "horizon", "method", "k", "l",
                         "n_eval", "out_dir"],
            "select": ["input", "target_column", "method", "out_dir"],
            "factors": ["input", "target_column", "k", "out_dir"],
        }
        for command, keys in listed.items():
            assert subcommand_keys(command) == set(keys), command

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
            ("factors", {"k": True}),
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
            # the estimator constants are no keys: flags and JSON keys naming them exit 2
            ("simulate", ["--ct-multiplier", "1"], None,
             "unrecognized arguments: --ct-multiplier 1"),
            ("simulate", ["--bandwidth-scale", "0.1"], None,
             "unrecognized arguments: --bandwidth-scale 0.1"),
            ("simulate", [], '{"variance_mode": "identity"}',
             "unknown config keys: ['variance_mode']"),
            ("forecast", ["--window", "5"], None, "window too short"),
            ("select", ["--method", "bogus"], None, "unknown method"),
            ("select", ["--method", "pc"], None, "unknown method"),
            ("forecast", ["--n-eval", "0"], None, "n_eval must be >= 1"),
            ("forecast", ["--n-eval", "-3"], None, "n_eval must be >= 1"),
            # the slice count is the constant sdr.N_SLICES, no key
            ("forecast", ["--h-slices", "0"], None, "unrecognized arguments: --h-slices 0"),
            ("forecast", ["--k", "0"], None, 'k must be >= 1 or "auto"'),
            ("forecast", ["--l", "0"], None, 'l must be >= 1 or "auto"'),
            ("forecast", ["--variance-mode", "identity"], None,
             "unrecognized arguments: --variance-mode identity"),
            # the factor-count ceiling is the constant factor_analysis.K_MAX, no key
            ("select", ["--k-max", "4"], None, "unrecognized arguments: --k-max 4"),
            # the study's noise, index count and K ceiling are constants, no keys
            ("simulate", ["--n-reps", "3", "--l", "0"], None, "unrecognized arguments: --l 0"),
            ("simulate", ["--n-reps", "3", "--h-slices", "0"], None,
             "unrecognized arguments: --h-slices 0"),
            ("simulate", ["--n-reps", "3", "--ct-multiplier", "-1"], None,
             "unrecognized arguments: --ct-multiplier -1"),
            ("simulate", ["--n-reps", "3", "--k-max", "0", "--metrics", "k_selection"], None,
             "unrecognized arguments: --k-max 0"),
            ("simulate", ["--n-reps", "3", "--p", "0"], None, "p must be >= 1"),
            ("simulate", ["--n-reps", "3", "--n-test", "0", "--metrics", "oos"], None,
             "n_test must be >= 1"),
            ("simulate", ["--n-reps", "3", "--sigma", "-1"], None,
             "unrecognized arguments: --sigma -1"),
            ("simulate", ["--n-reps", "2", "--p", "30", "--t-len", "60", "--l", "7"], None,
             "unrecognized arguments: --l 7"),
            ("simulate", ["--n-reps", "2", "--p", "20", "--t-len", "5"], None,
             "the study's K=6 factors need p >= 6 and t_len >= 6, got p=20, t_len=5"),
            # a kernel study needs t_len >= N_SLICES
            ("simulate", ["--n-reps", "2", "--p", "30", "--t-len", "9"], None,
             "t_len=9 must be >= N_SLICES = 10 for sir and dr"),
            ("forecast", ["--k", "2", "--l", "5", "--n-eval", "3"], None, "l=5 must be <= k=2"),
            ("forecast", ["--window", "15", "--horizon", "6"], None,
             "window too short: window - horizon = 9"),
            ("forecast", ["--k", "auto", "--l", "9"], None, "l=9 must be <= K_MAX=8"),
            ("forecast", ["--method", "ens", "--window", "20", "--k", "auto", "--l", "auto"],
             None, "window - horizon = 19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            ("forecast", ["--k", "115", "--horizon", "6"], None,
             "k=115 must be < window - horizon = 114"),
            ("simulate", ["--jobs", "-1"], None, "jobs must be >= 0, got -1"),
            # third moments need >= 2 observations per slice: 2 * N_SLICES training points
            ("simulate", ["--n-reps", "3", "--p", "30", "--t-len", "19", "--methods", "tm"],
             None, "t_len=19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            ("simulate", ["--n-reps", "3", "--p", "30", "--t-len", "19", "--methods", "sir,ens"],
             None, "t_len=19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            ("forecast", ["--method", "tm", "--k", "4", "--l", "1", "--window", "20",
                          "--n-eval", "5"], None,
             "window - horizon = 19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            ("forecast", ["--method", "ens", "--window", "21", "--horizon", "2"], None,
             "window - horizon = 19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            # a metric no requested method produces
            ("simulate", ["--methods", "pc", "--metrics", "directions"], None,
             "metric 'directions' needs one of the methods"),
            ("simulate", ["--methods", "pc,nlpc", "--metrics", "k_selection,l_selection"], None,
             "metric 'l_selection' needs one of the methods"),
            ("simulate", [], '{"methods": [], "metrics": ["oos"]}',
             "metric 'oos' needs one of the methods"),
            # the PC baseline of the oos metric needs T > K
            ("simulate", ["--p", "20", "--t-len", "6", "--methods", "pc",
                          "--metrics", "oos", "--n-test", "5", "--n-reps", "2", "--jobs", "1"],
             None, "t_len=6 must be > the study's K=6 factors for pc with the oos metric"),
            # the study's fixed design is no key: K = 6 and loadings drawn once per study
            ("simulate", [], '{"k": 6}', "unknown config keys: ['k']"),
            ("simulate", [], '{"fixed_loadings": true}',
             "unknown config keys: ['fixed_loadings']"),
            ("simulate", ["--k", "4", "--n-reps", "2", "--jobs", "1"], None,
             "unrecognized arguments: --k 4"),
            ("simulate", ["--fixed-loadings", "0"], None,
             "unrecognized arguments: --fixed-loadings 0"),
            # an empty metric list would write a study.csv with only its header
            ("simulate", ["--metrics", ""], None, "metrics must name at least one of"),
            # every panel is read comma-separated and standardized: no keys for either
            ("forecast", ["--standardize", "0"], None,
             "unrecognized arguments: --standardize 0"),
            ("select", ["--delimiter", ";"], None, "unrecognized arguments: --delimiter ;"),
            ("factors", [], '{"standardize": false}', "unknown config keys: ['standardize']"),
            ("forecast", [], '{"delimiter": ","}', "unknown config keys: ['delimiter']"),
            # the kernel rule names the study's kernel methods only
            ("simulate", ["--methods", "pc,tm", "--metrics", "oos", "--p", "20", "--t-len", "9"],
             None, "t_len=9 must be >= N_SLICES = 10 for tm"),
            ("simulate", ["--methods", "ens", "--metrics", "l_selection", "--p", "30",
                          "--t-len", "19"], None,
             "t_len=19 must be >= 2 * N_SLICES = 20 for tm and ens"),
            # SIR's kernel has rank at most N_SLICES - 1
            ("forecast", ["--method", "sir", "--k", "12", "--l", "12", "--window", "200"], None,
             "l=12 must be <= N_SLICES - 1 = 9 for sir"),
            ("forecast", ["--method", "sir", "--k", "10", "--l", "10"], None,
             "l=10 must be <= N_SLICES - 1 = 9 for sir"),
            ("select", ["--method", "dr", "--h-slices", "1"], None,
             "unrecognized arguments: --h-slices 1"),
            # a JSON config or an older config_resolved.json with the slice count
            ("simulate", [], '{"h_slices": 10}', "unknown config keys: ['h_slices']"),
            ("forecast", [], '{"h_slices": 10}', "unknown config keys: ['h_slices']"),
            ("select", [], '{"h_slices": 10}', "unknown config keys: ['h_slices']"),
            # a method no requested metric reads would be dropped from the tables
            ("simulate", ["--methods", "sir,pc,nlpc", "--metrics", "directions", "--p", "20",
                          "--t-len", "60", "--n-reps", "2", "--jobs", "1"], None,
             "no metric in ('directions',) reads the methods ['pc', 'nlpc']"),
            # a JSON config or an older config_resolved.json with a removed study key
            ("simulate", [], '{"sigma": 0.2}', "unknown config keys: ['sigma']"),
            ("simulate", [], '{"l": 2}', "unknown config keys: ['l']"),
            ("simulate", [], '{"k_max": 8}', "unknown config keys: ['k_max']"),
            # a repeated name would run its fits twice
            ("simulate", ["--p", "20", "--t-len", "60", "--n-reps", "3", "--methods", "dr,dr",
                          "--metrics", "oos,oos"], None, "repeated methods in ('dr', 'dr')"),
            ("simulate", ["--metrics", "oos,oos"], None, "repeated metrics in ('oos', 'oos')"),
            # SeedSequence takes no negative seed: every replicate would fail
            ("simulate", ["--p", "20", "--t-len", "60", "--n-reps", "2", "--seed", "-1",
                          "--jobs", "1"], None, "seed must be >= 0, got -1"),
            ("factors", ["--k-max", "8"], None, "unrecognized arguments: --k-max 8"),
            ("factors", [], '{"k_max": 8}', "unknown config keys: ['k_max']"),
            ("factors", ["--k", "0"], None, 'k must be >= 1 or "auto"'),
            # flags are spelled in full
            ("forecast", ["--win", "60"], None, "unrecognized arguments: --win 60"),
            ("simulate", ["--model", "V"], None, "unknown link tag 'V'"),
            ("simulate", ["--methods", "foo"], None, "unknown method 'foo'"),
            # the config file itself
            ("forecast", ["--config", "no-such-config.json"], None,
             "config file not found: no-such-config.json"),
            ("simulate", [], '{"p": 20', "config file is not valid JSON"),
            ("select", [], '["method", "dr"]', "config file must hold a JSON object"),
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
        assert not out.exists()

    def test_resolved_config_of_another_command_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "forecast"}))
        assert run(["simulate", "--config", cfg, "--out-dir", tmp_path / "x"]) == 2
        assert "for command 'forecast'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["forecast", "select", "factors"])
    @pytest.mark.parametrize(
        "given,missing",
        [(["--input", "p.csv"], "['target_column']"), (["--target-column", "y"], "['input']"),
         ([], "['input', 'target_column']")],
    )
    def test_missing_panel_key_exits_2_before_writing(
        self, tmp_path, capsys, command, given, missing
    ):
        out = tmp_path / "out"
        assert run([command, *given, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"error: missing required config keys: {missing}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(EXPOSED))
    def test_rerun_from_resolved_config_is_byte_identical(self, tmp_path, command):
        panel = write_factor_panel(tmp_path, t_len=150, p=15, k=2, seed=8, link="curved")
        panel_args = ["--input", panel, "--target-column", "target"]
        args = {
            "simulate": ["--p", 20, "--t-len", 40, "--n-reps", 2, "--methods", "sir,dr,pc",
                         "--metrics", "oos,l_selection", "--jobs", 1, "--seed", 4],
            "forecast": [*panel_args, "--method", "dr", "--k", "auto", "--l", "auto",
                         "--window", 100, "--n-eval", 5],
            "select": [*panel_args, "--method", "tm"],
            "factors": [*panel_args, "--k", "auto"],
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
