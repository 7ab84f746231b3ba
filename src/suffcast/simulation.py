"""Synthetic data generation and the Monte Carlo study driver.

K = ``N_FACTORS`` = 6 factors and the idiosyncratic errors follow AR(1)
processes with coefficients drawn once per study and held fixed; the loadings
are uniform on [-1, 2], also drawn once per study; the target is a nonlinear
function of the factors along two fixed unit index directions, ``PHI1`` and
``PHI2``, plus Gaussian noise.  Every random quantity is a deterministic
function of ``(master seed, replicate index)``, so studies are reproducible
bit-for-bit and replications can run in parallel.  The study draws
``CHUNK_SIZE`` consecutive replicates at once: each draws its shocks from its
own stream, and one in-place AR(1) pass runs over all of them, which gives
each replicate the same bits as :func:`sample_dgp` alone.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import sdr
from ._eigen import column_signs, sym_eig_desc
from ._parallel import chunked_map
from .factor_analysis import (
    K_MAX,
    estimated_factors_known_loadings,
    select_and_fit_factors,
)
from .forecaster import METHODS, fit_forecast_model, predict
from .panel_data import _check_count

LINKS = ("I", "II", "III", "IV")

#: number of factors K of every study
N_FACTORS = 6
#: the two unit index directions of the target, in the factor space
PHI1 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / np.sqrt(3.0)
PHI2 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 3.0]) / np.sqrt(11.0)
#: index count L of every study link: the directions PHI1 and PHI2
N_INDICES = 2
#: standard deviation of the Gaussian target noise
SIGMA = 0.2
#: range of the study-level AR(1) coefficients of factors and errors
AR_LOW, AR_HIGH = 0.2, 0.8
#: range of the uniform loadings
LOADING_LOW, LOADING_HIGH = -1.0, 2.0
#: AR(1) steps drawn and discarded before the first kept period
BURN_IN = 100
#: bandwidth of the held-out forecast fits, as a fraction of the
#: normal-reference rule.  This undersmoothing scale puts SIR below PC: on
#: seed-420 Model I replicates 0-29 SIR's median r2_oos is 0.128 here, against
#: PC's 0.253, and 0.300 at the scale leave-one-out CV picks.  DR leads at
#: every scale from 0.05 to 1.0.
OOS_BANDWIDTH_SCALE = 0.1
#: replicates drawn in one AR(1) pass and run as one task, in-process or in a
#: worker; a chunk's shocks take CHUNK_SIZE x (BURN_IN + T) x (K + p) x 8 bytes
CHUNK_SIZE = 4


def link_function(tag: str, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Evaluate one of the four study links at index values ``(v1, v2)``."""
    if tag == "I":
        return 0.4 * v1**2 + 3.0 * np.sin(v2 / 4.0)
    if tag == "II":
        return 3.0 * np.sin(v1 / 4.0) + 3.0 * np.sin(v2 / 4.0)
    if tag == "III":
        return 0.4 * v1**2 + np.sqrt(np.abs(v2))
    if tag == "IV":
        return v1 * (v2 + 1.0)
    raise ValueError(f"unknown link tag {tag!r}; expected one of {LINKS}")


@dataclass(frozen=True, eq=False)
class DgpSpec:
    """Parameters of the synthetic data-generating process."""

    p: int = 100
    t_len: int = 500
    model: str = "I"  # a tag of LINKS
    seed: int = 0

    def __post_init__(self):
        if self.model not in LINKS:
            raise ValueError(f"unknown link tag {self.model!r}")
        _check_count("p", self.p)
        _check_count("t_len", self.t_len)
        _check_count("seed", self.seed, minimum=0)
        if N_FACTORS > min(self.p, self.t_len):
            raise ValueError(f"the study's K={N_FACTORS} factors need p >= {N_FACTORS} and "
                             f"t_len >= {N_FACTORS}, got p={self.p}, t_len={self.t_len}")

    def ar_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Study-level AR coefficients, drawn once from the master seed."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))
        alpha = rng.uniform(AR_LOW, AR_HIGH, size=N_FACTORS)
        rho = rng.uniform(AR_LOW, AR_HIGH, size=self.p)
        return alpha, rho


@dataclass(frozen=True, eq=False)
class SimDraw:
    """One simulated panel with its generating quantities."""

    x: np.ndarray  # p x T
    y: np.ndarray  # length T, y[t] observed one period after x[:, t]
    factors: np.ndarray  # T x K true factors
    loadings: np.ndarray  # p x K true loadings


def _ar1_panel(coef: np.ndarray, buf: np.ndarray) -> None:
    """Run ``x_t = coef * x_{t-1} + e_t`` in place over the leading axis of ``buf``.

    ``buf`` holds the shocks ``e_t``, one row ``buf[t]`` per period, and
    ``coef`` has a row's shape.  The recursion starts from ``x_{-1} = 0`` and
    makes one numpy call per step for every column of the row at once: in a
    chunk's ``(BURN_IN + T, R, K + p)`` buffer, every factor and error series
    of its R replicates.  Each element gets the same two IEEE operations in
    any layout, so a replicate's panel has the same bits alone or in a chunk.
    """
    rows = list(buf)
    step = np.empty_like(rows[0])
    for prev, cur in zip(rows, rows[1:]):
        np.multiply(coef, prev, out=step)
        cur += step


def _loadings(spec: DgpSpec) -> np.ndarray:
    """The study's ``p x K`` loadings, drawn once from the master seed."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(1, 0)))
    return rng.uniform(LOADING_LOW, LOADING_HIGH, size=(spec.p, N_FACTORS))


def _chunk_panels(spec: DgpSpec, replicates) -> tuple[np.ndarray, np.ndarray]:
    """The factor and error panels of several replicates, from one AR(1) pass.

    Replicate ``replicates[i]`` draws its shocks from its own stream
    ``(spec.seed, (2, r))``: the factor shocks, the error shocks, then the
    target noise.  Returns the ``(T, R, K + p)`` panels after the burn-in, with
    the factors in the first K columns, and the ``(R, T)`` target noise.
    """
    alpha, rho = spec.ar_coefficients()
    total = BURN_IN + spec.t_len
    buf = np.empty((total, len(replicates), N_FACTORS + spec.p))
    eps = np.empty((len(replicates), spec.t_len))
    for i, r in enumerate(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(2, r)))
        buf[:, i, :N_FACTORS] = rng.standard_normal((total, N_FACTORS))
        buf[:, i, N_FACTORS:] = rng.standard_normal((total, spec.p))
        rng.standard_normal(out=eps[i])
    _ar1_panel(np.tile(np.concatenate([alpha, rho]), (len(replicates), 1)), buf)
    return buf[BURN_IN:], eps


def _build_draw(
    spec: DgpSpec, loadings: np.ndarray, panel: np.ndarray, eps: np.ndarray
) -> SimDraw:
    """One replicate's draw from its ``T x (K + p)`` panel and its target noise."""
    factors = np.ascontiguousarray(panel[:, :N_FACTORS])
    x = loadings @ factors.T
    x += panel[:, N_FACTORS:].T
    y = link_function(spec.model, factors @ PHI1, factors @ PHI2) + SIGMA * eps
    return SimDraw(x=x, y=y, factors=factors, loadings=loadings)


def sample_dgp(spec: DgpSpec, replicate: int) -> SimDraw:
    """Draw one panel; deterministic given ``(spec.seed, replicate)``.

    This is the study's chunk draw for a chunk of one replicate.
    """
    panels, eps = _chunk_panels(spec, [replicate])
    return _build_draw(spec, _loadings(spec), panels[:, 0], eps[0])


def identifiability_rotation(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation aligning true factors and loadings with the estimation basis.

    Returns the ``K x K`` matrix ``H`` that makes the rotated factors ``F H'``
    satisfy ``(FH')'(FH') / T = I`` and gives the rotated loadings
    ``B H^{-1}`` a diagonal Gram matrix with descending entries.  Column order
    and signs follow the same conventions as the factor fit
    :func:`suffcast.factor_analysis.select_and_fit_factors`, so on a noiseless
    panel the fitted factors coincide with ``F H'``.
    """
    f = np.asarray(f, dtype=float)
    b = np.asarray(b, dtype=float)
    t_len, k = f.shape
    if b.shape[1] != k:
        raise ValueError("factor and loading dimensions differ")
    sigma_f = f.T @ f / t_len
    vals_f, vecs_f = np.linalg.eigh(sigma_f)
    if vals_f[0] <= vals_f[-1] * 1e-12 or vals_f[0] <= 0:
        raise ValueError("rank-deficient factors: F'F is singular")
    if np.linalg.matrix_rank(b) < k:
        raise ValueError("rank-deficient loadings: B'B is singular")
    root = vecs_f @ np.diag(np.sqrt(vals_f)) @ vecs_f.T
    inv_root = vecs_f @ np.diag(1.0 / np.sqrt(vals_f)) @ vecs_f.T
    w = root @ (b.T @ b) @ root
    _, e = sym_eig_desc(w)
    h = e.T @ inv_root
    # the fitted factors' sign convention, applied to the rotated factor columns
    return column_signs(f @ h.T)[:, None] * h


def subspace_r2(phi_hat: np.ndarray, true_span: np.ndarray) -> float:
    """Squared norm of the projection of a unit direction onto a subspace.

    ``true_span`` must have orthonormal columns; the result equals the
    squared multiple correlation between ``phi_hat`` and the subspace.
    """
    phi_hat = np.asarray(phi_hat, dtype=float)
    true_span = np.asarray(true_span, dtype=float)
    norm = np.linalg.norm(phi_hat)
    if norm == 0:
        raise ValueError("zero direction vector")
    gram = true_span.T @ true_span
    # written so that a NaN entry fails the check too
    if not np.max(np.abs(gram - np.eye(true_span.shape[1]))) <= 1e-8:
        raise ValueError("true_span columns are not orthonormal")
    u = phi_hat / norm
    return float(np.clip(np.sum((true_span.T @ u) ** 2), 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """What to run per replication and how to aggregate it.

    Kernels slice the target into ``sdr.N_SLICES``; :func:`monte_carlo_study`
    checks the rules this sets on the ``DgpSpec``'s ``t_len``.
    """

    methods: tuple[str, ...] = ("sir", "dr")
    metrics: tuple[str, ...] = ("directions",)  # directions | oos | k_selection | l_selection
    n_reps: int = 200
    n_test: int = 100
    jobs: int = 0  # worker processes, at most the usable CPUs; 0 for one per usable CPU

    def __post_init__(self):
        known = {"directions", "oos", "k_selection", "l_selection"}
        for name, names in (("methods", self.methods), ("metrics", self.metrics)):
            if len(set(names)) < len(names):
                raise ValueError(f"repeated {name} in {names}")
        if not self.metrics:
            raise ValueError(f"metrics must name at least one of {sorted(known)}")
        bad = set(self.metrics) - known
        if bad:
            raise ValueError(f"unknown metrics {sorted(bad)}; expected subset of {sorted(known)}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        # k_selection comes from the factor fit and reads no method
        producers = {
            "directions": sdr.KERNEL_METHODS,
            "l_selection": sdr.KERNEL_METHODS,
            "oos": METHODS,
        }
        for metric in self.metrics:
            if metric in producers and not set(self.methods) & set(producers[metric]):
                raise ValueError(
                    f"metric {metric!r} needs one of the methods {producers[metric]}, "
                    f"got {self.methods}"
                )
        read = {m for metric in self.metrics for m in producers.get(metric, ())}
        unread = [m for m in self.methods if m not in read]
        if read and unread:
            raise ValueError(f"no metric in {self.metrics} reads the methods {unread}")
        for name in ("n_reps", "n_test"):
            _check_count(name, getattr(self, name))
        _check_count("jobs", self.jobs, minimum=0)


@dataclass(eq=False)
class StudyResult:
    """Per-replication metric values plus summary rows."""

    values: dict  # (method, metric) -> array of per-replication values
    failures: list  # (replicate, message)

    def summary_rows(self) -> list[dict]:
        rows = []
        for (method, metric), vals in sorted(self.values.items()):
            vals = np.asarray(vals, dtype=float)
            ok = vals[np.isfinite(vals)]
            median = float(np.median(ok)) if ok.size else float("nan")
            sd = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
            rows.append(
                {
                    "method": method,
                    "metric": metric,
                    "median": median,
                    "sd": sd,
                    "n_ok": int(ok.size),
                    "n_fail": int(vals.size - ok.size),
                }
            )
        return rows


def _run_replicate(spec: DgpSpec, config: StudyConfig, draw: SimDraw) -> dict:
    """Compute every requested (method, metric) cell for one replication's draw."""
    want_oos = "oos" in config.metrics
    t_train = spec.t_len
    x_train = draw.x[:, :t_train]
    y_train = draw.y[:t_train]
    out: dict = {}

    # one Gram eigendecomposition serves the criterion and the true-K fit
    sel, fit = select_and_fit_factors(x_train, K_MAX, N_FACTORS)
    if "k_selection" in config.metrics:
        out[("factors", "k_selection")] = sel.k_hat
    if not set(config.metrics) - {"k_selection"}:  # no per-method metric
        return out

    if "directions" in config.metrics:
        h_id = identifiability_rotation(draw.factors[:t_train], draw.loadings)
        basis, _ = np.linalg.qr(np.linalg.solve(h_id.T, np.column_stack([PHI1, PHI2])))

    if want_oos:
        f_test = estimated_factors_known_loadings(draw.x[:, t_train:], fit.loadings)
        y_test = draw.y[t_train:]
        denom = float(np.sum((y_test - y_train.mean()) ** 2))
    indices = sdr.fit_indices(config.methods, fit.factors, y_train, spec.p, N_INDICES)
    for method in config.methods:
        selection, phi_hat = indices.get(method, (None, None))
        if "directions" in config.metrics and phi_hat is not None:
            out[(method, "r2_phi1")] = subspace_r2(phi_hat[:, 0], basis)
            out[(method, "r2_phi2")] = subspace_r2(phi_hat[:, 1], basis)
        if "l_selection" in config.metrics and selection is not None:
            out[(method, "l_selection")] = selection.l_hat
        if want_oos:
            model = fit_forecast_model(method, fit.factors, y_train, phi_hat, OOS_BANDWIDTH_SCALE)
            pred = predict(model, f_test)
            out[(method, "r2_oos")] = 1.0 - float(np.sum((y_test - pred) ** 2)) / denom
            if model.kind == "additive":
                out[(method, "backfit_sweeps")] = model.sweeps
    return out


def _run_chunk(spec, config, replicates) -> list[tuple[dict | None, str | None]]:
    """Run a chunk of consecutive replicates, drawn together, of the study ``(spec, config)``.

    Returns ``(cells, None)`` for each replicate that ran and
    ``(None, "Type: message")`` for each one that failed; a failure while
    building or running one replicate's draw fails that replicate alone.
    """
    # the held-out periods are drawn after the training periods
    n_test = config.n_test if "oos" in config.metrics else 0
    draw_spec = replace(spec, t_len=spec.t_len + n_test)
    try:
        loadings = _loadings(draw_spec)
        panels, eps = _chunk_panels(draw_spec, replicates)
    except Exception as e:
        return [(None, f"{type(e).__name__}: {e}")] * len(replicates)
    out = []
    for i in range(len(replicates)):
        try:
            draw = _build_draw(draw_spec, loadings, panels[:, i], eps[i])
            out.append((_run_replicate(spec, config, draw), None))
        except Exception as e:
            out.append((None, f"{type(e).__name__}: {e}"))
    return out


def _check_study(spec: DgpSpec, config: StudyConfig) -> None:
    """Reject a design whose every replicate would fail on the training length ``t_len``.

    The kernels need :func:`suffcast.sdr.check_slice_rules`, except in a study
    whose only metric, ``k_selection``, builds none; the linear PC baseline of
    the ``oos`` metric needs T > K.
    """
    if set(config.metrics) - {"k_selection"}:
        sdr.check_slice_rules(config.methods, spec.t_len, f"t_len={spec.t_len}")
    if "pc" in config.methods and "oos" in config.metrics and spec.t_len <= N_FACTORS:
        raise ValueError(f"t_len={spec.t_len} must be > the study's K={N_FACTORS} factors "
                         "for pc with the oos metric")


def monte_carlo_study(spec: DgpSpec, config: StudyConfig) -> StudyResult:
    """Run the requested replications and collect per-cell metric values.

    A design every replicate would fail on is rejected before anything is
    drawn (see :func:`_check_study`).  Replication ``r`` uses the seed stream
    ``(spec.seed, r)``; failures are recorded with their replicate index and
    excluded from the medians rather than silently dropped.  One task is a
    chunk of ``CHUNK_SIZE`` consecutive replicates, which share one AR(1)
    pass.  The chunks run on one BLAS thread, in ``config.jobs`` worker
    processes where that starts more than one (see
    :func:`suffcast._parallel.chunked_map`).  Results do not depend on
    ``config.jobs``, ``CHUNK_SIZE`` or the user's BLAS thread setting.
    """
    _check_study(spec, config)
    chunks = [
        range(start, min(start + CHUNK_SIZE, config.n_reps))
        for start in range(0, config.n_reps, CHUNK_SIZE)
    ]
    raw = chunked_map(functools.partial(_run_chunk, spec, config), chunks, config.jobs)
    results = [cells for cells, _ in raw]
    failures = [(r, error) for r, (_, error) in enumerate(raw) if error is not None]

    keys = sorted({key for res in results if res for key in res})
    values = {
        key: np.array(
            [res[key] if res is not None and key in res else np.nan for res in results],
            dtype=float,
        )
        for key in keys
    }
    return StudyResult(values=values, failures=failures)

