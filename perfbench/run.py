"""suffcast benchmark: Monte Carlo study and rolling-forecast throughput.

Run from the repository root:

    python3 perfbench/run.py --workload mc_oos --seed 420 --seconds 35 --trace 0

A workload is a fixed list of ``suffcast.cli.main(argv)`` calls, run
in-process with ``--jobs 1``; one round through the list is a pass.  Calls
repeat, round after round, until ``--seconds`` is used up.  Every call's
output files are checked, and a call repeated within a run must write a
byte-identical table.  Why each workload exists, and which numbers a change
to each layer should move, is in ``perfbench/README.md``.

``--trace 0`` reports the end-to-end metrics.  On a shared machine the speed
of the CPU drifts by a fifth or more within minutes, so wall time alone does
not repeat.  Every call is therefore timed in units of a fixed numpy reference
kernel (:class:`Reference`) run between calls, which drifts with the machine;
``throughput`` is the work of one pass over the sum of each call's median
normalized time, converted back to seconds at the kernel's nominal time on
the 2-core box the benchmark was written on.  The raw wall-clock rate is
printed beside it.

``--trace 1`` runs one untraced pass and two traced ones, then alternates
untraced and traced passes while time remains, and reports calls and self
time per layer function (see ``layer_trace.py``), plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the environment record.  The BLAS thread count is left at the user's default.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"

SETUP_SAMPLES = 15
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
    "import suffcast.cli; print(time.perf_counter() - t)"
)

#: nominal wall time of one Reference() call (2-core x86-64 VM, OpenBLAS
#: 0.3.31 with 2 threads); it only sets the scale of the normalized throughput
REF_SECONDS = 0.13
#: nominal wall time of one interpreter_reference() call on the same box; it
#: only sets the scale of the normalized setup_s
SETUP_REF_SECONDS = 0.04

#: Monte Carlo passes are split into calls of a few replicates, each from its
#: own master seed ``seed + SUBSTUDY_STRIDE * j``; sub-study 0 is the workload
#: seed itself, so ``--seed 420`` starts with the acceptance suite's replicates
SUBSTUDY_STRIDE = 1000
MC_OOS_CALLS, MC_OOS_REPS = 6, 10
MC_DIRECTIONS_CALLS, MC_DIRECTIONS_REPS = 6, 25
MC_OOS_ARGS = (
    "simulate --model I --p 100 --t-len 500 --n-test 100 --methods sir,dr,pc "
    f"--metrics oos --jobs 1 --n-reps {MC_OOS_REPS}"
)
MC_DIRECTIONS_ARGS = (
    "simulate --model IV --p 100 --t-len 500 --methods sir,dr,tm,ens "
    f"--metrics directions,k_selection,l_selection --jobs 1 --n-reps {MC_DIRECTIONS_REPS}"
)
MC_OOS_ROWS = {(m, "r2_oos") for m in ("sir", "dr", "pc")}
MC_DIRECTIONS_ROWS = {("factors", "k_selection")} | {
    (m, metric)
    for m in ("sir", "dr", "tm", "ens")
    for metric in ("r2_phi1", "r2_phi2", "l_selection")
}
TRUE_K = 6  # factors in the study DGP
TRUE_L = 2  # indices in the study links
#: criterion-7 floors of the acceptance suite: order-selection hit rates
K_HIT_FLOOR = 0.90
L_HIT_FLOOR = 0.80

ROLLING_WINDOW = 120
ROLLING_N_EVAL = 240
ROLLING_K_MAX = 8  # RollingConfig.k_max, the ceiling of --k auto
#: (call name, forecast flags, horizon); all share one panel, window and n_eval
ROLLING_CALLS = (
    ("dr", "--method dr --k 8 --l 1", 1),
    ("ens", "--method ens --k auto --l auto", 6),
    ("nlpc", "--method nlpc --k 8", 1),
)


@dataclass
class Call:
    name: str
    argv: list
    out_dir: Path
    items: int  # replicates or forecast origins this call attempts
    horizon: int = 0


@dataclass
class Tally:
    """Operations attempted and failed, and what each failed check was."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def build_calls(workload: str, seed: int, work: Path) -> list:
    if workload != "rolling":
        n_calls, reps, args = (
            (MC_OOS_CALLS, MC_OOS_REPS, MC_OOS_ARGS) if workload == "mc_oos"
            else (MC_DIRECTIONS_CALLS, MC_DIRECTIONS_REPS, MC_DIRECTIONS_ARGS)
        )
        calls = []
        for j in range(n_calls):
            sub_seed = seed + SUBSTUDY_STRIDE * j
            out = work / f"{workload}_{j}"
            argv = [*args.split(), "--seed", str(sub_seed), "--out-dir", str(out)]
            calls.append(Call(f"{workload}[seed {sub_seed}]", argv, out, reps))
        return calls
    # imported here so the Monte Carlo workloads never load the panel generator
    from rolling_panel import TARGET_COLUMN, write_panel_csv

    panel = work / "panel.csv"
    write_panel_csv(seed, panel)
    calls = []
    for name, flags, horizon in ROLLING_CALLS:
        out = work / f"rolling_{name}"
        argv = [
            "forecast", "--input", str(panel), "--target-column", TARGET_COLUMN,
            "--window", str(ROLLING_WINDOW), "--n-eval", str(ROLLING_N_EVAL),
            "--horizon", str(horizon), *flags.split(), "--out-dir", str(out),
        ]
        calls.append(Call(name, argv, out, ROLLING_N_EVAL, horizon))
    return calls


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_study(call: Call, expected: set, tally: Tally) -> None:
    """study.csv has every expected row, finite, with no failed replicate."""
    meta = json.loads((call.out_dir / "metadata.json").read_text())
    tally.failed += int(meta["n_failed"])
    with open(call.out_dir / "study.csv", newline="") as fh:
        rows = {(r["method"], r["metric"]): r for r in csv.DictReader(fh)}
    missing = expected - set(rows)
    tally.check(not missing, f"{call.name}: study.csv lacks rows {sorted(missing)}")
    for key in sorted(expected & set(rows)):
        row = rows[key]
        tally.check(
            _finite(row["median"]) and row["n_fail"] == "0" and row["n_ok"] == str(call.items),
            f"{call.name}: study.csv row {key} has median={row['median']} "
            f"n_ok={row['n_ok']} n_fail={row['n_fail']}",
        )


def replicate_values(call: Call) -> dict:
    """(method, metric) -> per-replicate values from replications.csv."""
    out: dict = {}
    with open(call.out_dir / "replications.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            out.setdefault((r["method"], r["metric"]), []).append(float(r["value"]))
    return out


def check_origins(call: Call, tally: Tally) -> float:
    """origins.csv holds the last n_eval origins, finite, with K and L in range.

    Returns the call's ``rmse_vs_pc`` from summary.json.
    """
    from rolling_panel import N_MONTHS

    with open(call.out_dir / "origins.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    last = N_MONTHS - call.horizon
    expected_origins = [str(t) for t in range(last - ROLLING_N_EVAL + 1, last + 1)]
    tally.check(
        [r["origin"] for r in rows] == expected_origins,
        f"{call.name}: origins.csv does not hold the last {ROLLING_N_EVAL} origins",
    )
    bad = [
        r["origin"] for r in rows
        if not all(_finite(r[c]) for c in ("forecast", "realized", "benchmark"))
        or not 1 <= int(r["selected_k"]) <= ROLLING_K_MAX
        or not 1 <= int(r["selected_l"]) <= int(r["selected_k"])
    ]
    tally.check(not bad, f"{call.name}: origins.csv has bad rows at origins {bad[:5]}")
    summary = json.loads((call.out_dir / "summary.json").read_text())
    rel = summary["rmse_vs_pc"]
    tally.check(math.isfinite(rel) and rel > 0, f"{call.name}: rmse_vs_pc = {rel}")
    return rel


def _median(values: list) -> float:
    return statistics.median(values) if values else math.nan


def _share(values: list, target: int) -> float:
    """Share of ``values`` equal to ``target``."""
    return sum(v == target for v in values) / len(values) if values else math.nan


class Workload:
    """Runs a workload's calls, checks each call's outputs, keeps quality figures."""

    def __init__(self, name: str, seed: int, work: Path):
        from suffcast import cli

        self.name = name
        self.cli = cli
        self.calls = build_calls(name, seed, work)
        self.items = sum(c.items for c in self.calls)
        self.tally = Tally()
        self.first_table: dict = {}  # call index -> bytes of its first table
        self.pooled: dict = {}  # (method, metric) -> values over the first pass

    def run(self, j: int) -> float:
        """Run call ``j`` once; return its wall time."""
        call = self.calls[j]
        quiet = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(quiet):
                # through the module attribute, so an installed tracer sees it
                code = self.cli.main(call.argv)
        except Exception as e:  # an uncaught error fails the call, not the benchmark
            print(f"{call.name}: {type(e).__name__}: {e}", file=sys.stderr)
            code = -1
        elapsed = time.perf_counter() - start
        self.tally.attempted += call.items
        if not self.tally.check(code == 0, f"{call.name}: exit code {code}"):
            self.tally.failed += call.items
            return elapsed
        try:
            self._check(j)
        except (OSError, ValueError, KeyError) as e:  # missing or malformed outputs
            self.tally.check(False, f"{call.name}: unreadable outputs: {type(e).__name__}: {e}")
        return elapsed

    def run_pass(self) -> float:
        return sum(self.run(j) for j in range(len(self.calls)))

    def _check(self, j: int) -> None:
        call = self.calls[j]
        if self.name == "rolling":
            rel = check_origins(call, self.tally)
            table = call.out_dir / "origins.csv"
            if j not in self.first_table:
                self.pooled[(call.name, "rmse_vs_pc")] = [rel]
        else:
            check_study(call, MC_OOS_ROWS if self.name == "mc_oos" else MC_DIRECTIONS_ROWS,
                        self.tally)
            table = call.out_dir / "study.csv"
            if j not in self.first_table:
                for key, values in replicate_values(call).items():
                    self.pooled.setdefault(key, []).extend(values)
        data = table.read_bytes()
        if j in self.first_table:
            self.tally.check(data == self.first_table[j],
                             f"{call.name}: {table.name} differs from its first run")
        else:
            self.first_table[j] = data

    def quality(self) -> dict:
        """The workload's result-quality guards, after checking the claims on them."""
        pooled, t = self.pooled, self.tally
        if self.name == "rolling":
            return {"rel_mse_dr": (_median(pooled.get(("dr", "rmse_vs_pc"), [])), "ratio")}
        if self.name == "mc_oos":
            dr, sir, pc = (_median(pooled.get((m, "r2_oos"), [])) for m in ("dr", "sir", "pc"))
            t.check(dr > max(sir, pc), f"median held-out R2: DR {dr} not above SIR {sir} and PC {pc}")
            return {"r2_oos_dr": (dr, "ratio"), "r2_oos_sir": (sir, "ratio"), "r2_oos_pc": (pc, "ratio")}
        k_hit = _share(pooled.get(("factors", "k_selection"), []), TRUE_K)
        l_hit = _share(pooled.get(("dr", "l_selection"), []), TRUE_L)
        t.check(k_hit >= K_HIT_FLOOR, f"k_hit {k_hit} below {K_HIT_FLOOR}")
        t.check(l_hit >= L_HIT_FLOOR, f"l_hit_dr {l_hit} below {L_HIT_FLOOR}")
        return {
            "r2_phi2_dr": (_median(pooled.get(("dr", "r2_phi2"), [])), "ratio"),
            "k_hit": (k_hit, "share"),
            "l_hit_dr": (l_hit, "share"),
        }


class Reference:
    """Fixed numpy work mixing the kinds suffcast does, timed as one unit.

    LAPACK eigendecomposition and BLAS products (multithreaded), vectorized
    elementwise work into preallocated buffers, and an interpreter-bound loop
    of small array operations.  Its inputs depend on nothing but a fixed seed,
    so no change to suffcast changes its work.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300))
        self.sym = a @ a.T
        self.square = rng.standard_normal((500, 500))
        self.buffer = np.empty_like(self.square)
        self.points = rng.standard_normal(300)

    def __call__(self) -> float:
        np, sq, buf, pts = self.np, self.square, self.buffer, self.points
        start = time.perf_counter()
        for _ in range(6):
            np.linalg.eigh(self.sym)
        for _ in range(10):
            np.matmul(sq, sq, out=buf)
        for _ in range(20):
            np.multiply(sq, sq, out=buf)
            np.exp(buf, out=buf)
            buf.sum()
        for x in pts.tolist() * 10:
            d = (pts - x) * 3.0
            np.exp(-0.5 * d * d).sum()
        return time.perf_counter() - start


def interpreter_reference() -> float:
    """Time a fixed loop of dict operations, interpreter-bound like an import.

    The numpy :class:`Reference` tracks the machine's speed for BLAS and
    vectorized work but not for the interpreter and loader work that
    dominates ``import suffcast.cli``; this loop does.
    """
    start = time.perf_counter()
    counts: dict = {}
    for i in range(200_000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


def measure_setup() -> tuple:
    """Time to import suffcast.cli in a fresh interpreter: (scaled, raw) medians.

    Each sample is divided by the mean of the interpreter references timed
    just before and after it, and the median is converted back to seconds at
    SETUP_REF_SECONDS.  Raw import times of the same code moved by a third
    between sets of runs as the machine's speed drifted; scaled ones by far less.
    """
    refs = [interpreter_reference()]
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True,
            text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        refs.append(interpreter_reference())
        scaled.append(2.0 * samples[-1] / (refs[-2] + refs[-1]))
    return statistics.median(scaled) * SETUP_REF_SECONDS, statistics.median(samples)


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {
            k: v for k, v in os.environ.items()
            if k.endswith(("_NUM_THREADS", "_MAX_THREADS", "_MAXIMUM_THREADS"))
        },
        "git_commit": commit,
    }


def untraced(workload: Workload, seconds: float) -> dict:
    setup_s, setup_raw_s = measure_setup()
    reference = Reference()
    n_calls = len(workload.calls)
    walls: list = [[] for _ in range(n_calls)]
    scaled: list = [[] for _ in range(n_calls)]  # wall / mean of the adjacent references
    refs = [reference()]
    start = time.perf_counter()
    done = 0
    # at least two passes, so that every call is checked against a rerun
    while done < 2 * n_calls or time.perf_counter() - start + refs[-1] + statistics.median(
        walls[done % n_calls]
    ) <= seconds:
        j = done % n_calls
        wall = workload.run(j)
        refs.append(reference())
        walls[j].append(wall)
        scaled[j].append(2.0 * wall / (refs[-2] + refs[-1]))
        done += 1
    throughput = workload.items / (sum(statistics.median(v) for v in scaled) * REF_SECONDS)
    raw_rate = workload.items / sum(statistics.median(v) for v in walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"calls {done} ({done / n_calls:.1f} passes) in {time.perf_counter() - start:.1f}s; "
          f"reference median {statistics.median(refs):.4f}s, range {min(refs):.4f}-{max(refs):.4f}s")
    for call, v in zip(workload.calls, walls):
        print(f"  {call.name}: median {statistics.median(v):.4f}s of {len(v)}, "
              f"range {min(v):.4f}-{max(v):.4f}s")
    rate_name = "origins_per_s" if workload.name == "rolling" else "reps_per_s"
    show = {
        "throughput": (throughput, "1/s"),
        rate_name: (raw_rate, "1/s"),
        "setup_s": (setup_s, "s"),
        "setup_raw_s": (setup_raw_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    show.update(workload.quality())
    for name, (value, unit) in show.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "throughput": {"value": throughput, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def traced(workload: Workload, seconds: float) -> dict:
    from layer_trace import LayerTracer, metric_prefix

    tracer = LayerTracer()
    reference = Reference()
    refs = [reference()]
    plain: list = []  # wall time of each untraced pass, scaled as in untraced()
    spans: list = []  # (wall time, scaled wall time, totals) of each traced pass
    start = time.perf_counter()
    # one untraced pass, then two traced ones (so every call is rerun and the
    # counts are compared), then untraced and traced passes alternate
    while len(spans) < 2 or (
        time.perf_counter() - start + statistics.median(w for w, _, _ in spans) <= seconds
    ):
        traced_pass = len(plain) > len(spans) or (len(plain) > 0 and len(spans) < 2)
        if traced_pass:
            tracer.install()
        try:
            wall = workload.run_pass()
        finally:
            tracer.uninstall()
        refs.append(reference())
        scaled = 2.0 * wall / (refs[-2] + refs[-1])
        if traced_pass:
            spans.append((wall, scaled, tracer.take()))
        else:
            plain.append(scaled)
    workload.quality()
    first = spans[0][2]
    for _, _, totals in spans[1:]:
        workload.tally.check(
            totals["calls"] == first["calls"] and totals["eigen_n3"] == first["eigen_n3"],
            "trace: call counts differ between traced passes",
        )
    wall = statistics.median(w for w, _, _ in spans)
    overhead = statistics.median(v for _, v, _ in spans) / statistics.median(plain) - 1.0
    print(f"passes {len(plain)} untraced, {len(spans)} traced; absent: {tracer.absent or 'none'}")
    metrics = {}
    for name in sorted(tracer.names, key=lambda n: -first["self_s"][n]):
        key = metric_prefix(name)
        calls = first["calls"][name]
        self_s = statistics.median(t["self_s"][name] for _, _, t in spans)
        metrics[f"{key}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{key}.self_s"] = {"value": self_s, "unit": "s"}
        print(f"  {key:50s} calls {calls:7d}  self {self_s:8.4f}s  {self_s / wall:6.1%}")
    metrics[f"{metric_prefix('_eigen.sym_eig_desc')}.n3"] = {
        "value": first["eigen_n3"], "unit": "count"
    }
    metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
    metrics["trace_absent"] = {"value": len(tracer.absent), "unit": "count"}
    print(f"eigen n3 {first['eigen_n3']}  trace_overhead {overhead:.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mc_oos", "mc_directions", "rolling"))
    parser.add_argument("--seed", type=int, default=420)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "suffcast" / "cli.py").is_file():
        print(f"error: no suffcast sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        workload = Workload(args.workload, args.seed, work)
        metrics = traced(workload, args.seconds) if args.trace else untraced(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK_PARENT.rmdir()
    tally = workload.tally
    print(f"failed_share {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    for what in tally.failures[:20]:
        print(f"check failed: {what}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
