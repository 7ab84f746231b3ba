"""Command-line entry point: simulate | forecast | select | factors.

Each option is a field of a config dataclass, which declares its name, type
and default, and every field of a subcommand's classes is an option:
``simulate`` exposes :class:`DgpSpec` and :class:`StudyConfig`, ``forecast``
:class:`RollingConfig`, ``select`` :class:`SelectConfig` and ``factors``
:class:`FactorsConfig`, next to string I/O keys.  The factor-count ceiling is
the constant :data:`suffcast.factor_analysis.K_MAX`, no key.

A subcommand reads an optional flat JSON config file, overridden by explicit
flags.  A flag's text gets its field's type (``_CONVERTERS``); the config
dataclasses check every value, integers by the one rule ``_check_count``
(``simulate``'s cross-field checks are :func:`monte_carlo_study`'s own, made
before it draws), and a wrong one exits 2 before anything is written.
``select`` checks the panel's length against the slice rules once it is read.

:func:`main` sets up every run once: it builds the configs, checks
``out_dir`` (else the current directory; a file, or a path under one, exits
2), reads the panel of a panel command, and calls the command's runner
``cmd_x(out_dir, [panel,] *configs)`` on one BLAS thread.  A runner computes
before it writes, the output directory is made by its first write, and the
resolved configuration is written next to the outputs as
``config_resolved.json`` once the runner returned, so an error raised at any
point of a run leaves nothing behind; passed back as ``--config`` to the
same subcommand, it reproduces the run.  This module is the only one that
writes files, through ``_write_csv`` (floats as ``repr(float(v))``) and
``_write_json`` (indent 2 and a final newline).  Exit codes: 0 success, 2
usage or config error, 3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
import typing
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__, sdr
from ._parallel import blas_threads, one_blas_thread
from .factor_analysis import K_MAX, select_and_fit_factors
from .forecaster import RollingConfig, rolling_evaluate
from .panel_data import DataError, PanelData, _check_count, _check_target_varies
from .panel_data import _standardize_array, load_csv
from .simulation import N_FACTORS, DgpSpec, StudyConfig, monte_carlo_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


def _checked(v, ok: bool):
    if not ok:
        raise TypeError
    return v


# A converter takes a flag's text (text=True) or a decoded JSON value and
# returns the typed value (a JSON integer as it is), or raises TypeError,
# ValueError or KeyError.
def _to_int(v, text):
    return int(v) if text else v


def _to_str(v, text):
    return _checked(v, isinstance(v, str))


def _to_names(v, text):
    items = v.split(",") if isinstance(v, str) else v
    _checked(items, isinstance(items, list) and all(isinstance(i, str) for i in items))
    return tuple(i.strip() for i in items if i.strip())


def _to_int_or_auto(v, text):
    return v if v == "auto" else _to_int(v, text)


#: field type -> (converter, what the type accepts)
_CONVERTERS = {
    int: (_to_int, "an integer"),
    str: (_to_str, "a string"),
    tuple[str, ...]: (_to_names, "a comma list or a JSON list of strings"),
    int | str: (_to_int_or_auto, 'an integer or "auto"'),
}
#: the required string keys of the panel subcommands
_PANEL_IO = ("input", "target_column")


def _command_keys(command: str) -> dict:
    """CLI key -> (type, default) for ``command``: input keys, fields, ``out_dir``."""
    _, classes, panel = _COMMANDS[command]
    keys = {key: (str, None) for key in (_PANEL_IO if panel else ())}
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            keys[f.name] = (hints[f.name], f.default)
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
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config file {path}: {e}") from e
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


def _write_csv(path: Path, rows, header=None) -> None:
    """Write ``rows`` as CSV: floats as ``repr(float(v))``, other cells as written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def cmd_simulate(out_dir: Path, spec: DgpSpec, study: StudyConfig) -> None:
    started = time.perf_counter()
    result = monte_carlo_study(spec, study)
    runtime = time.perf_counter() - started
    rows = result.summary_rows()
    _write_csv(
        out_dir / "study.csv",
        [(spec.model, spec.p, spec.t_len, *row.values()) for row in rows],
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
        "link": spec.model,
        "p": spec.p,
        "t_len": spec.t_len,
        "k": N_FACTORS,
        "n_reps": study.n_reps,
        "methods": list(study.methods),
        "metrics": list(study.metrics),
        "n_failed": len(result.failures),
        "failures": [{"replicate": r, "error": msg} for r, msg in result.failures],
        "runtime_seconds": runtime,
        "blas_threads": blas_threads(),
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


def cmd_forecast(out_dir: Path, panel: PanelData, rolling: RollingConfig) -> None:
    report = rolling_evaluate(panel, rolling)
    _write_csv(
        out_dir / "origins.csv",
        zip(report.origins, report.forecasts, report.realized, report.benchmarks,
            report.selected_k, report.selected_l, report.baseline),
        ["origin", "forecast", "realized", "benchmark", "selected_k", "selected_l", "baseline"],
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
        "n_dropped": panel.n_dropped,
        "blas_threads": blas_threads(),
        "config": asdict(rolling),
    }
    _write_json(out_dir / "summary.json", summary)
    print(
        f"method={rolling.method} h={rolling.horizon} window={rolling.window} "
        f"n={report.n_eval} mse={report.mse:.3g} mse_ratio_pc={report.rmse_vs_pc:.3g} "
        f"r2={report.r2_oos:.3g}"
    )


@dataclass(frozen=True)
class SelectConfig:
    """Settings of ``select``: the kernel method whose index count is selected."""

    method: str = "dr"

    def __post_init__(self):
        if self.method not in sdr.KERNEL_METHODS:
            raise ValueError(
                f"unknown method {self.method!r} for select; expected one of {sdr.KERNEL_METHODS}"
            )


@dataclass(frozen=True)
class FactorsConfig:
    """Settings of ``factors``: the factor count, or ``"auto"`` for the selected one."""

    k: int | str = "auto"

    def __post_init__(self):
        _check_count("k", self.k, auto=True)


def cmd_select(out_dir: Path, panel: PanelData, select: SelectConfig) -> None:
    sdr.check_slice_rules([select.method], panel.t_len, f"panel length T={panel.t_len}")
    _check_target_varies(panel.y, "the panel")
    x = _standardize_array(panel.x, panel.series_names)
    selection, fit = select_and_fit_factors(x, K_MAX)
    indices = sdr.fit_indices([select.method], fit.factors, panel.y, panel.p, "auto")
    dim, _ = indices[select.method]
    _write_csv(
        out_dir / "k_criterion.csv",
        zip(range(selection.k_max + 1), selection.log_resid, selection.penalties,
            selection.criterion),
        ["k", "log_resid", "penalty", "criterion"],
    )
    _write_csv(
        out_dir / "l_objective.csv", enumerate(dim.objective, start=1), ["l", "objective"]
    )
    summary = {
        "k_hat": selection.k_hat,
        "l_hat": dim.l_hat,
        "tau": dim.tau,
        "c_t": dim.c_t,
        "n_dropped": panel.n_dropped,
        "blas_threads": blas_threads(),
    }
    _write_json(out_dir / "summary.json", summary)
    print(f"k_hat={selection.k_hat} l_hat={dim.l_hat}")


def cmd_factors(out_dir: Path, panel: PanelData, factors: FactorsConfig) -> None:
    x = _standardize_array(panel.x, panel.series_names)
    _, fit = select_and_fit_factors(x, K_MAX, factors.k)
    _write_csv(out_dir / "loadings.csv", fit.loadings)
    _write_csv(out_dir / "factors.csv", fit.factors)
    _write_csv(out_dir / "eigenvalues.csv", fit.eigenvalues[:, None])
    print(f"k={fit.k} eigenvalues={[float(f'{v:.3g}') for v in fit.eigenvalues]}")


#: command -> (runner, config classes, reads a panel); a runner is called as
#: ``runner(out_dir, [panel,] *configs)``, the panel only where it reads one
_COMMANDS = {
    "simulate": (cmd_simulate, (DgpSpec, StudyConfig), False),
    "forecast": (cmd_forecast, (RollingConfig,), True),
    "select": (cmd_select, (SelectConfig,), True),
    "factors": (cmd_factors, (FactorsConfig,), True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suffcast",
        description="Sufficient forecasting: simulation studies, rolling forecasts "
        "and order selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        # no prefix matching: an abbreviation would turn ambiguous, or change
        # meaning, once a key sharing its prefix is added
        p = sub.add_parser(name, help=f"run the {name} pipeline", allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override file values")
        for key, (_, default) in _command_keys(name).items():
            p.add_argument("--" + key.replace("_", "-"), help=f"default: {default!r}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, classes, reads_panel = _COMMANDS[args.command]
    try:
        config = _resolve_config(args, _command_keys(args.command))
        # the config dataclasses check their values before anything is written
        built = [cls(**{f.name: config[f.name] for f in fields(cls)}) for cls in classes]
        out_dir = Path(config["out_dir"] or ".")
        config["out_dir"] = str(out_dir)
        # the nearest existing path at or above out_dir ("." or "/" at worst)
        found = next(d for d in (out_dir, *out_dir.parents) if d.exists() or d.is_symlink())
        if not found.is_dir():
            raise ConfigError(f"out_dir {str(out_dir)!r}: {str(found)!r} is not a directory")
        if reads_panel:
            built.insert(0, load_csv(config["input"], config["target_column"]))
        with one_blas_thread():
            runner(out_dir, *built)
        # written only once the run succeeded, so that it always reproduces one
        _write_json(out_dir / "config_resolved.json", {"command": args.command, **config})
        return EXIT_OK
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
