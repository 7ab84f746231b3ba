"""Command-line entry point: simulate | forecast | select | factors.

Each subcommand reads an optional JSON config file (flat key/value) whose
entries are overridden by explicit command-line flags.  The fully resolved
configuration is written next to the outputs, so every run is reproducible
from that file alone.  Exit codes: 0 success, 2 usage or config error,
3 data error, 4 numerical failure.

The default output directory is taken from the ``SUFFCAST_OUT_DIR``
environment variable when set, else the current directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import sdr
from .factor_analysis import fit_factors, save_factor_estimate, select_and_fit_factors
from .forecaster import RollingConfig, rolling_evaluate, save_eval_report
from .panel_data import DataError, load_csv, standardize
from .simulation import DgpSpec, StudyConfig, monte_carlo_study, save_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

#: kernels `select` can build; the index count is chosen on their spectrum
SELECT_METHODS = sdr.KERNEL_METHODS


class ConfigError(ValueError):
    pass


def _default_out_dir() -> str:
    return os.environ.get("SUFFCAST_OUT_DIR", ".")


def _resolve_config(args: argparse.Namespace, keys: dict) -> dict:
    """Merge defaults, the JSON config file and explicit CLI flags."""
    config = {name: spec[1] for name, spec in keys.items()}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for name in keys:
        value = getattr(args, name, None)
        if value is not None:
            config[name] = value
    missing = [name for name, spec in keys.items() if spec[2] and config[name] is None]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    return config


def _write_resolved(config: dict, command: str, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, **config}
    (out_dir / "config_resolved.json").write_text(json.dumps(payload, indent=2) + "\n")


def _int_or_auto(value: str):
    if value == "auto":
        return value
    return int(value)


# key -> (type, default, required)
_SIMULATE_KEYS = {
    "model": (str, "I", False),
    "p": (int, 100, False),
    "t_len": (int, 500, False),
    "k": (int, 6, False),
    "n_reps": (int, 200, False),
    "methods": (str, "sir,dr", False),
    "metrics": (str, "directions", False),
    "n_test": (int, 100, False),
    "l": (int, 2, False),
    "h_slices": (int, 10, False),
    "variance_mode": (str, "identity", False),
    "k_max": (int, 8, False),
    "ct_multiplier": (float, 1.0, False),
    "bandwidth_scale": (float, 0.1, False),
    "fixed_loadings": (int, 1, False),
    "sigma": (float, 0.2, False),
    "seed": (int, 0, False),
    "jobs": (int, 0, False),  # 0 means all available execution units
    "out_dir": (str, None, False),
}

_FORECAST_KEYS = {
    "input": (str, None, True),
    "target_column": (str, None, True),
    "delimiter": (str, ",", False),
    "method": (str, "dr", False),
    "k": (_int_or_auto, 8, False),
    "l": (_int_or_auto, 1, False),
    "h_slices": (int, 10, False),
    "horizon": (int, 1, False),
    "window": (int, 120, False),
    "n_eval": (int, 240, False),
    "variance_mode": (str, "identity", False),
    "standardize": (int, 1, False),
    "ct_multiplier": (float, 1.0, False),
    "out_dir": (str, None, False),
}

_SELECT_KEYS = {
    "input": (str, None, True),
    "target_column": (str, None, True),
    "delimiter": (str, ",", False),
    "k_max": (int, 8, False),
    "method": (str, "dr", False),
    "h_slices": (int, 10, False),
    "variance_mode": (str, "identity", False),
    "c_censor": (float, 0.5, False),
    "ct_multiplier": (float, 1.0, False),
    "standardize": (int, 1, False),
    "out_dir": (str, None, False),
}

_FACTORS_KEYS = {
    "input": (str, None, True),
    "target_column": (str, None, True),
    "delimiter": (str, ",", False),
    "k": (_int_or_auto, "auto", False),
    "k_max": (int, 8, False),
    "standardize": (int, 1, False),
    "out_dir": (str, None, False),
}


def _add_key_flags(parser: argparse.ArgumentParser, keys: dict) -> None:
    parser.add_argument("--config", help="JSON config file; flags override file values")
    for name, (typ, default, _required) in keys.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=typ, default=None, help=f"default: {default!r}")


def cmd_simulate(config: dict, out_dir: Path) -> int:
    methods = tuple(m.strip() for m in config["methods"].split(",") if m.strip())
    metrics = tuple(m.strip() for m in config["metrics"].split(",") if m.strip())
    jobs = config["jobs"] if config["jobs"] > 0 else (os.cpu_count() or 1)
    spec = DgpSpec(
        p=config["p"],
        t_len=config["t_len"],
        k=config["k"],
        link=config["model"],
        sigma=config["sigma"],
        seed=config["seed"],
        fixed_loadings=bool(config["fixed_loadings"]),
    )
    study = StudyConfig(
        methods=methods,
        metrics=metrics,
        n_reps=config["n_reps"],
        n_test=config["n_test"],
        l=config["l"],
        h_slices=config["h_slices"],
        variance_mode=config["variance_mode"],
        k_max=config["k_max"],
        ct_multiplier=config["ct_multiplier"],
        bandwidth_scale=config["bandwidth_scale"],
        jobs=jobs,
    )
    started = time.time()
    result = monte_carlo_study(spec, study)
    save_study(result, out_dir, extra_metadata={"runtime_seconds": time.time() - started})
    for row in result.summary_rows():
        print(
            f"{row['method']} {row['metric']}: median={row['median']:.3g} "
            f"sd={row['sd']:.3g} n_ok={row['n_ok']} n_fail={row['n_fail']}"
        )
    return EXIT_OK


def cmd_forecast(config: dict, out_dir: Path) -> int:
    panel = load_csv(config["input"], config["target_column"], config["delimiter"])
    rolling = RollingConfig(
        window=config["window"],
        horizon=config["horizon"],
        method=config["method"],
        k=config["k"],
        l=config["l"],
        h_slices=config["h_slices"],
        n_eval=config["n_eval"],
        variance_mode=config["variance_mode"],
        standardize=bool(config["standardize"]),
        ct_multiplier=config["ct_multiplier"],
    )
    if panel.t_len < rolling.window + rolling.horizon:
        raise ConfigError(
            f"input too short: window + horizon = {rolling.window + rolling.horizon} "
            f"columns needed, panel has {panel.t_len}"
        )
    report = rolling_evaluate(panel, rolling)
    save_eval_report(report, out_dir, rolling)
    print(
        f"method={report.method} h={report.horizon} window={report.window} "
        f"n={report.n_eval} mse={report.mse:.3g} rmse_pc={report.rmse_vs_pc:.3g} "
        f"r2={report.r2_oos:.3g}"
    )
    return EXIT_OK


def cmd_select(config: dict, out_dir: Path) -> int:
    if config["method"] not in SELECT_METHODS:
        raise ConfigError(
            f"unknown method {config['method']!r} for select; expected one of {SELECT_METHODS}"
        )
    panel = load_csv(config["input"], config["target_column"], config["delimiter"])
    if bool(config["standardize"]):
        panel, _ = standardize(panel)
    selection, fit = select_and_fit_factors(panel.x, min(config["k_max"], panel.p, panel.t_len))
    slices = sdr.slice_target(panel.y, config["h_slices"])
    kernel = sdr.build_kernel(config["method"], fit.factors, slices, config["variance_mode"])
    c_t = config["ct_multiplier"] * sdr.default_ct(kernel.method, fit.k, panel.p, panel.t_len)
    dim = sdr.select_dimension(kernel, panel.t_len, config["c_censor"], c_t)

    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["k,log_resid,penalty,criterion"]
    for k in range(selection.k_max + 1):
        lines.append(
            f"{k},{float(selection.log_resid[k])!r},{float(selection.penalties[k])!r},"
            f"{float(selection.criterion[k])!r}"
        )
    (out_dir / "k_criterion.csv").write_text("\n".join(lines) + "\n")
    lines = ["l,objective"]
    for i, g in enumerate(dim.objective):
        lines.append(f"{i + 1},{float(g)!r}")
    (out_dir / "l_objective.csv").write_text("\n".join(lines) + "\n")
    summary = {"k_hat": selection.k_hat, "l_hat": dim.l_hat, "tau": dim.tau, "c_t": dim.c_t}
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"k_hat={selection.k_hat} l_hat={dim.l_hat}")
    return EXIT_OK


def cmd_factors(config: dict, out_dir: Path) -> int:
    panel = load_csv(config["input"], config["target_column"], config["delimiter"])
    if bool(config["standardize"]):
        panel, _ = standardize(panel)
    if config["k"] == "auto":
        _, fit = select_and_fit_factors(panel.x, min(config["k_max"], panel.p, panel.t_len))
    else:
        fit = fit_factors(panel.x, int(config["k"]))
    save_factor_estimate(fit, out_dir)
    print(f"k={fit.k} eigenvalues={[float(f'{v:.3g}') for v in fit.eigenvalues]}")
    return EXIT_OK


_COMMANDS = {
    "simulate": (_SIMULATE_KEYS, cmd_simulate),
    "forecast": (_FORECAST_KEYS, cmd_forecast),
    "select": (_SELECT_KEYS, cmd_select),
    "factors": (_FACTORS_KEYS, cmd_factors),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffcast",
        description="Sufficient forecasting: simulation studies, rolling forecasts "
        "and order selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (keys, _fn) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        _add_key_flags(p, keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    keys, fn = _COMMANDS[args.command]
    try:
        config = _resolve_config(args, keys)
        out_dir = Path(config["out_dir"] or _default_out_dir())
        config["out_dir"] = str(out_dir)
        _write_resolved(config, args.command, out_dir)
        return fn(config, out_dir)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TypeError) as e:
        if isinstance(e, DataError):
            print(f"data error: {e}", file=sys.stderr)
            return EXIT_DATA
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
