"""Command-line entry point: simulate | forecast | select | factors.

Each option is a field of a config dataclass, which declares its name, type
and default: ``simulate`` exposes :class:`DgpSpec` (``link`` as ``model``) and
:class:`StudyConfig`, and ``forecast``, ``select`` and ``factors`` the
:class:`RollingConfig` fields they use, next to string I/O keys.
``_DEFAULT_OVERRIDES`` lists the two CLI defaults that differ from the field's.

A subcommand reads an optional flat JSON config file, overridden by explicit
flags.  Every value is checked against its field's type (``_CONVERTERS``),
then by the config dataclasses themselves and by the command's cross-field
check in ``_COMMANDS``; a wrong one exits 2 before anything is written.  The
resolved configuration is written next to the outputs as
``config_resolved.json``; passed back as ``--config`` to the same subcommand,
it reproduces the run.  This module is the only one that writes files: the
library returns results, and each command writes its outputs through
``_write_csv`` (floats as ``repr(float(v))``) and ``_write_json`` (indent 2
and a final newline).  Exit codes:
0 success, 2 usage or config error, 3 data error, 4 numerical failure.

The default output directory is taken from the ``SUFFCAST_OUT_DIR``
environment variable when set, else the current directory.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import typing
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, sdr
from .factor_analysis import select_and_fit_factors
from .forecaster import RollingConfig, rolling_evaluate
from .panel_data import DataError, load_csv, standardize
from .simulation import DgpSpec, StudyConfig, monte_carlo_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

#: kernels `select` can build; the index count is chosen on their spectrum
SELECT_METHODS = sdr.KERNEL_METHODS


class ConfigError(ValueError):
    pass


def _checked(v, ok: bool):
    if not ok:
        raise TypeError
    return v


# A converter takes a flag's text (text=True) or a decoded JSON value and
# returns the typed value, or raises TypeError, ValueError or KeyError.
def _to_int(v, text):
    return int(v) if text else _checked(v, type(v) is int)


def _to_float(v, text):
    x = float(v) if text else float(_checked(v, type(v) in (int, float)))
    return _checked(x, math.isfinite(x))


def _to_str(v, text):
    return _checked(v, isinstance(v, str))


def _to_bool(v, text):
    if text:
        return {"0": False, "1": True}[v]
    return bool(_checked(v, type(v) in (bool, int) and v in (0, 1)))


def _to_names(v, text):
    items = v.split(",") if isinstance(v, str) else v
    _checked(items, isinstance(items, list) and all(isinstance(i, str) for i in items))
    return tuple(i.strip() for i in items if i.strip())


def _to_int_or_auto(v, text):
    return v if v == "auto" else _to_int(v, text)


#: field type -> (converter, what the type accepts)
_CONVERTERS = {
    int: (_to_int, "an integer"),
    float: (_to_float, "a finite number"),
    str: (_to_str, "a string"),
    bool: (_to_bool, "0 or 1 (or JSON true/false)"),
    tuple[str, ...]: (_to_names, "a comma list or a JSON list of strings"),
    int | str: (_to_int_or_auto, 'an integer or "auto"'),
}
#: the CLI key of a field whose name differs
_ALIASES = {"link": "model"}
#: the only CLI defaults that differ from their field's default (jobs 0: all cores)
_DEFAULT_OVERRIDES = {"simulate": {"jobs": 0}, "factors": {"k": "auto"}}
#: I/O keys of the panel subcommands; None means required
_PANEL_IO = {"input": None, "target_column": None, "delimiter": ","}


def _key(field_name: str) -> str:
    return _ALIASES.get(field_name, field_name)


def _command_keys(command: str) -> dict:
    """CLI key -> (type, default) for ``command``: input keys, fields, ``out_dir``."""
    _, classes, names, panel, _ = _COMMANDS[command]
    keys = {key: (str, default) for key, default in (_PANEL_IO if panel else {}).items()}
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if hints[f.name] in _CONVERTERS and (names is None or f.name in names):
                keys[_key(f.name)] = (hints[f.name], f.default)
    for key, default in _DEFAULT_OVERRIDES.get(command, {}).items():
        keys[key] = (keys[key][0], default)
    keys["out_dir"] = (str, None)
    return keys


def _convert(key: str, typ, value, text: bool):
    convert, accepts = _CONVERTERS[typ]
    try:
        return convert(value, text)
    except (TypeError, ValueError, KeyError):
        raise ConfigError(f"{key} must be {accepts}, got {value!r}") from None


def _resolve_config(args: argparse.Namespace, keys: dict) -> dict:
    """Merge defaults, the JSON config file and explicit CLI flags, checking each value."""
    config = {key: default for key, (_, default) in keys.items()}
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}") from e
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        command = loaded.pop("command", args.command)
        if command != args.command:
            raise ConfigError(f"config file is for command {command!r}, not {args.command!r}")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            config[key] = _convert(key, keys[key][0], value, text=False)
    for key, (typ, _) in keys.items():
        value = getattr(args, key)
        if value is not None:
            config[key] = _convert(key, typ, value, text=True)
    missing = [key for key in keys if key in _PANEL_IO and config[key] is None]
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    return config


def _fields_of(cls, config: dict) -> dict:
    """The keyword arguments of ``cls`` that ``config`` sets."""
    return {f.name: config[_key(f.name)] for f in fields(cls) if _key(f.name) in config}


def _write_csv(path: Path, rows, header=None) -> None:
    """Write ``rows`` as CSV: floats as ``repr(float(v))``, other cells as written."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def cmd_simulate(config: dict, out_dir: Path, spec: DgpSpec, study: StudyConfig) -> int:
    if study.jobs <= 0:
        study = replace(study, jobs=os.cpu_count() or 1)
    started = time.time()
    result = monte_carlo_study(spec, study)
    runtime = time.time() - started
    rows = result.summary_rows()
    _write_csv(
        out_dir / "study.csv",
        [(spec.link, spec.p, spec.t_len, *row.values()) for row in rows],
        ["link", "p", "t_len", "method", "metric", "median", "sd", "n_ok", "n_fail"],
    )
    _write_csv(
        out_dir / "replications.csv",
        [
            (r, method, metric, v)
            for (method, metric), vals in sorted(result.values.items())
            for r, v in enumerate(vals)
        ],
        ["replicate", "method", "metric", "value"],
    )
    metadata = {
        "suffcast_version": __version__,
        "numpy_version": np.__version__,
        "seed": spec.seed,
        "link": spec.link,
        "p": spec.p,
        "t_len": spec.t_len,
        "k": spec.k,
        "n_reps": study.n_reps,
        "methods": list(study.methods),
        "metrics": list(study.metrics),
        "n_failed": len(result.failures),
        "failures": [{"replicate": r, "error": msg} for r, msg in result.failures],
        "runtime_seconds": runtime,
    }
    _write_json(out_dir / "metadata.json", metadata)
    for row in rows:
        print(
            f"{row['method']} {row['metric']}: median={row['median']:.3g} "
            f"sd={row['sd']:.3g} n_ok={row['n_ok']} n_fail={row['n_fail']}"
        )
    if result.failures:
        # each failure message starts with its exception type
        by_type = dict(Counter(message.split(":", 1)[0] for _, message in result.failures))
        print(f"warning: n_failed={len(result.failures)} by error type {by_type}", file=sys.stderr)
    return EXIT_OK


def cmd_forecast(config: dict, out_dir: Path, rolling: RollingConfig) -> int:
    panel = load_csv(config["input"], config["target_column"], config["delimiter"])
    report = rolling_evaluate(panel, rolling)
    _write_csv(
        out_dir / "origins.csv",
        zip(report.origins, report.forecasts, report.realized, report.benchmarks,
            report.selected_k, report.selected_l),
        ["origin", "forecast", "realized", "benchmark", "selected_k", "selected_l"],
    )
    summary = {
        "method": rolling.method,
        "horizon": rolling.horizon,
        "window": rolling.window,
        "n_eval": report.n_eval,
        "mse": report.mse,
        "mse_pc": report.mse_pc,
        "rmse_vs_pc": report.rmse_vs_pc,
        "r2_oos": report.r2_oos,
        "backfit_not_converged": report.backfit_not_converged,
        "config": asdict(rolling),
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"method={rolling.method} h={rolling.horizon} window={rolling.window} "
        f"n={report.n_eval} mse={report.mse:.3g} mse_ratio_pc={report.rmse_vs_pc:.3g} "
        f"r2={report.r2_oos:.3g}"
    )
    return EXIT_OK


def cmd_select(config: dict, out_dir: Path, rolling: RollingConfig) -> int:
    panel = load_csv(config["input"], config["target_column"], config["delimiter"])
    if rolling.standardize:
        panel = standardize(panel)
    selection, fit = select_and_fit_factors(panel.x, rolling.k_max)
    slices = sdr.slice_target(panel.y, rolling.h_slices)
    kernel = sdr.build_kernel(rolling.method, fit.factors, slices, rolling.variance_mode)
    dim = sdr.select_dimension(kernel, panel.p, panel.t_len, rolling.ct_multiplier)
    _write_csv(
        out_dir / "k_criterion.csv",
        zip(range(selection.k_max + 1), selection.log_resid, selection.penalties,
            selection.criterion),
        ["k", "log_resid", "penalty", "criterion"],
    )
    _write_csv(
        out_dir / "l_objective.csv", enumerate(dim.objective, start=1), ["l", "objective"]
    )
    summary = {"k_hat": selection.k_hat, "l_hat": dim.l_hat, "tau": dim.tau, "c_t": dim.c_t}
    _write_json(out_dir / "summary.json", summary)
    print(f"k_hat={selection.k_hat} l_hat={dim.l_hat}")
    return EXIT_OK


def cmd_factors(config: dict, out_dir: Path, rolling: RollingConfig) -> int:
    panel = load_csv(config["input"], config["target_column"], config["delimiter"])
    if rolling.standardize:
        panel = standardize(panel)
    _, fit = select_and_fit_factors(panel.x, rolling.k_max, rolling.k)
    _write_csv(out_dir / "loadings.csv", fit.loadings)
    _write_csv(out_dir / "factors.csv", fit.factors)
    _write_csv(out_dir / "eigenvalues.csv", fit.eigenvalues[:, None])
    print(f"k={fit.k} eigenvalues={[float(f'{v:.3g}') for v in fit.eigenvalues]}")
    return EXIT_OK


def _check_simulate(spec: DgpSpec, study: StudyConfig) -> None:
    if study.l > spec.k:
        raise ConfigError(f"l={study.l} must be <= k={spec.k}")
    if study.h_slices > spec.t_len:
        raise ConfigError(f"h_slices={study.h_slices} must be <= t_len={spec.t_len}")


def _check_forecast(rolling: RollingConfig) -> None:
    # select and factors read h_slices and k without a window, so these
    # bounds are not RollingConfig's
    n_train = rolling.window - rolling.horizon
    if rolling.h_slices > n_train:
        raise ConfigError(f"h_slices={rolling.h_slices} must be <= window - horizon = {n_train}")
    # the PC baseline fit on every window needs T > K
    if rolling.k != "auto" and rolling.k >= n_train:
        raise ConfigError(f"k={rolling.k} must be < window - horizon = {n_train}")


def _check_select(rolling: RollingConfig) -> None:
    if rolling.method not in SELECT_METHODS:
        raise ConfigError(
            f"unknown method {rolling.method!r} for select; expected one of {SELECT_METHODS}"
        )


#: command -> (runner, config classes, exposed fields (None: all), reads a panel,
#: cross-field check of the built configs)
_COMMANDS = {
    "simulate": (cmd_simulate, (DgpSpec, StudyConfig), None, False, _check_simulate),
    "forecast": (
        cmd_forecast,
        (RollingConfig,),
        ("window", "horizon", "method", "k", "l", "h_slices", "n_eval", "variance_mode",
         "standardize", "ct_multiplier"),
        True,
        _check_forecast,
    ),
    "select": (
        cmd_select,
        (RollingConfig,),
        ("k_max", "method", "h_slices", "variance_mode", "ct_multiplier", "standardize"),
        True,
        _check_select,
    ),
    "factors": (cmd_factors, (RollingConfig,), ("k", "k_max", "standardize"), True, None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffcast",
        description="Sufficient forecasting: simulation studies, rolling forecasts "
        "and order selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="JSON config file; flags override file values")
        for key, (_, default) in _command_keys(name).items():
            p.add_argument("--" + key.replace("_", "-"), help=f"default: {default!r}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, classes, _, _, check = _COMMANDS[args.command]
    try:
        config = _resolve_config(args, _command_keys(args.command))
        # the config dataclasses check their values before anything is written
        built = [cls(**_fields_of(cls, config)) for cls in classes]
        if check is not None:
            check(*built)
        out_dir = Path(config["out_dir"] or os.environ.get("SUFFCAST_OUT_DIR", "."))
        config["out_dir"] = str(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "config_resolved.json", {"command": args.command, **config})
        return runner(config, out_dir, *built)
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    # LinAlgError subclasses ValueError, so it is caught first
    except (np.linalg.LinAlgError, FloatingPointError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    # ConfigError and the configs' own checks
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
