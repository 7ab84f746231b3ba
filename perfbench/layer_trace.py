"""Per-layer tracing of suffcast from outside the package.

Each listed function is wrapped on every ``suffcast`` module that binds it,
because the package imports across modules with ``from .x import f``: a
wrapper installed only on the defining module would miss those callers.
Every wrapped call is a span; a span stack gives each function's self time
(its duration minus the time covered by the traced calls it made).  Counts
and self times accumulate in memory until :meth:`LayerTracer.take`.

A listed name that the package no longer defines is reported as absent and
skipped, so refactors that delete or merge functions do not break the trace.
"""
from __future__ import annotations

import functools
import sys
import time

#: ``module.function`` within ``suffcast``; ``PanelData`` is its constructor
TRACED = (
    "cli.main",
    "simulation.monte_carlo_study",
    "simulation.sample_dgp",
    "simulation.identifiability_rotation",
    "simulation.save_study",
    "panel_data.load_csv",
    "panel_data.standardize",
    "panel_data.PanelData",
    "factor_analysis.fit_factors",
    "factor_analysis.select_num_factors",
    "factor_analysis.estimated_factors_known_loadings",
    "sdr.slice_target",
    "sdr.sir_kernel",
    "sdr.dr_kernel",
    "sdr.tm_kernel",
    "sdr.ensemble_kernel",
    "sdr.extract_directions",
    "sdr.select_dimension",
    "forecaster.rolling_evaluate",
    "forecaster.fit_additive",
    "forecaster.fit_pc_baseline",
    "forecaster._predict_batch",
    "forecaster.save_eval_report",
    "_eigen.sym_eig_desc",
)

#: the function whose argument sizes are summed as n^3 (its LAPACK cost scale)
EIGEN = "_eigen.sym_eig_desc"


def metric_prefix(name: str) -> str:
    """Metric names must start with a letter or digit: ``_eigen`` -> ``eigen``."""
    return name.lstrip("_")


class LayerTracer:
    """Install wrappers with :meth:`install`, read per-pass totals with :meth:`take`."""

    def __init__(self):
        self.names = TRACED
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._reset()

    def _reset(self) -> None:
        self.calls = {name: 0 for name in self.names}
        self.self_s = {name: 0.0 for name in self.names}
        self.eigen_n3 = 0

    def _wrap(self, name: str, fn):
        stack = self._stack
        sizes = name == EIGEN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if sizes:
                m = args[0] if args else kwargs["m"]
                self.eigen_n3 += len(m) ** 3
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self) -> None:
        self.absent = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "suffcast" or key.startswith("suffcast."))
        ]
        for name in self.names:
            module_name, attr = name.rsplit(".", 1)
            home = sys.modules.get(f"suffcast.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if isinstance(original, type):
                # a class: trace its constructor, shared by every binding
                self._patch(original, "__init__", self._wrap(name, original.__init__))
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def take(self) -> dict:
        """Return and clear the totals since the last call."""
        out = {"calls": self.calls, "self_s": self.self_s, "eigen_n3": self.eigen_n3}
        self._reset()
        return out
