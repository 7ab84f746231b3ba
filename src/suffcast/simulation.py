"""Synthetic data generation and the Monte Carlo study driver.

Factors and idiosyncratic errors follow AR(1) processes with coefficients
drawn once per study and held fixed; loadings are uniform on [-1, 2]; the
target is a nonlinear function of two fixed unit-norm index directions plus
Gaussian noise.  Every random quantity is a deterministic function of
``(master seed, replicate index)``, so studies are reproducible bit-for-bit
and replications can run in parallel.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import sdr
from ._eigen import column_signs, sym_eig_desc
from .factor_analysis import estimated_factors_known_loadings, select_and_fit_factors
from .forecaster import (
    METHODS,
    _check_bandwidth_scale,
    _check_count,
    _check_variance_mode,
    fit_forecast_model,
    predict,
)

LINKS = ("I", "II", "III", "IV")

DEFAULT_PHI1 = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]) / np.sqrt(3.0)
DEFAULT_PHI2 = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 3.0]) / np.sqrt(11.0)
#: range of the study-level AR(1) coefficients of factors and errors
AR_LOW, AR_HIGH = 0.2, 0.8
#: range of the uniform loadings
LOADING_LOW, LOADING_HIGH = -1.0, 2.0
#: AR(1) steps drawn and discarded before the first kept period
BURN_IN = 100


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
    k: int = 6
    link: str = "I"
    sigma: float = 0.2
    seed: int = 0
    phi1: np.ndarray = field(default_factory=lambda: DEFAULT_PHI1.copy())
    phi2: np.ndarray = field(default_factory=lambda: DEFAULT_PHI2.copy())
    fixed_loadings: bool = True

    def __post_init__(self):
        object.__setattr__(self, "phi1", np.asarray(self.phi1, dtype=float))
        object.__setattr__(self, "phi2", np.asarray(self.phi2, dtype=float))
        if self.link not in LINKS:
            raise ValueError(f"unknown link tag {self.link!r}")
        _check_count("p", self.p)
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            if phi.shape != (self.k,):
                raise ValueError(f"{name} must have length k={self.k}")
            if abs(np.linalg.norm(phi) - 1.0) > 1e-8:
                raise ValueError(f"{name} must have unit norm")
        if self.k > min(self.p, self.t_len):
            raise ValueError(f"k={self.k} out of range 1..min(p={self.p}, T={self.t_len})")

    def ar_coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Study-level AR coefficients, drawn once from the master seed."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(0,)))
        alpha = rng.uniform(AR_LOW, AR_HIGH, size=self.k)
        rho = rng.uniform(AR_LOW, AR_HIGH, size=self.p)
        return alpha, rho


@dataclass(frozen=True, eq=False)
class SimDraw:
    """One simulated panel with its generating quantities."""

    x: np.ndarray  # p x T
    y: np.ndarray  # length T, y[t] observed one period after x[:, t]
    factors: np.ndarray  # T x K true factors
    loadings: np.ndarray  # p x K true loadings
    phi: np.ndarray  # K x 2 true directions


def _ar1_panel(coef: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Run ``x_t = coef * x_{t-1} + e_t`` per column and drop the burn-in."""
    total = shocks.shape[0]
    out = np.empty_like(shocks)
    prev = np.zeros(shocks.shape[1])
    for t in range(total):
        prev = coef * prev + shocks[t]
        out[t] = prev
    return out[BURN_IN:]


def sample_dgp(spec: DgpSpec, replicate: int) -> SimDraw:
    """Draw one panel; deterministic given ``(spec.seed, replicate)``."""
    alpha, rho = spec.ar_coefficients()
    loading_key = (1, 0) if spec.fixed_loadings else (1, 1 + replicate)
    rng_b = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=loading_key))
    b = rng_b.uniform(LOADING_LOW, LOADING_HIGH, size=(spec.p, spec.k))

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(2, replicate)))
    total = BURN_IN + spec.t_len
    e = rng.standard_normal((total, spec.k))
    nu = rng.standard_normal((total, spec.p))
    eps = rng.standard_normal(spec.t_len)

    factors = _ar1_panel(alpha, e)
    u = _ar1_panel(rho, nu)
    x = b @ factors.T + u.T
    v1 = factors @ spec.phi1
    v2 = factors @ spec.phi2
    y = link_function(spec.link, v1, v2) + spec.sigma * eps
    return SimDraw(
        x=x,
        y=y,
        factors=factors,
        loadings=b,
        phi=np.column_stack([spec.phi1, spec.phi2]),
    )


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
    if not np.allclose(gram, np.eye(true_span.shape[1]), atol=1e-8):
        raise ValueError("true_span columns are not orthonormal")
    u = phi_hat / norm
    return float(np.clip(np.sum((true_span.T @ u) ** 2), 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class StudyConfig:
    """What to run per replication and how to aggregate it."""

    methods: tuple[str, ...] = ("sir", "dr")
    metrics: tuple[str, ...] = ("directions",)  # directions | oos | k_selection | l_selection
    n_reps: int = 200
    n_test: int = 100
    l: int = 2
    h_slices: int = 10
    variance_mode: str = "identity"
    k_max: int = 8
    ct_multiplier: float = 1.0
    jobs: int = 1
    #: bandwidth policy for the held-out forecast fits, as a fraction of the
    #: normal-reference rule.  The held-out studies emulate a flexible
    #: smoother; 0.1 reproduces the published accuracy ordering.
    bandwidth_scale: float = 0.1

    def __post_init__(self):
        known = {"directions", "oos", "k_selection", "l_selection"}
        bad = set(self.metrics) - known
        if bad:
            raise ValueError(f"unknown metrics {sorted(bad)}; expected subset of {sorted(known)}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        for name in ("n_reps", "n_test", "l", "h_slices", "k_max"):
            _check_count(name, getattr(self, name))
        _check_variance_mode(self.variance_mode)
        _check_bandwidth_scale(self.bandwidth_scale)


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


def _run_replicate(spec: DgpSpec, config: StudyConfig, replicate: int) -> dict:
    """Compute every requested (method, metric) cell for one replication."""
    want_oos = "oos" in config.metrics
    draw_spec = replace(spec, t_len=spec.t_len + (config.n_test if want_oos else 0))
    draw = sample_dgp(draw_spec, replicate)
    t_train = spec.t_len
    x_train = draw.x[:, :t_train]
    y_train = draw.y[:t_train]
    out: dict = {}

    # one Gram eigendecomposition serves the criterion and the true-K fit
    sel, fit = select_and_fit_factors(x_train, config.k_max, spec.k)
    if "k_selection" in config.metrics:
        out[("factors", "k_selection")] = sel.k_hat
    if not set(config.metrics) - {"k_selection"}:  # no per-method metric
        return out

    slices = sdr.slice_target(y_train, config.h_slices)
    if "directions" in config.metrics:
        h_id = identifiability_rotation(draw.factors[:t_train], draw.loadings)
        basis, _ = np.linalg.qr(np.linalg.solve(h_id.T, draw.phi))

    for method in config.methods:
        kernel = None
        phi_hat = None
        if method in sdr.KERNEL_METHODS:
            kernel = sdr.build_kernel(method, fit.factors, slices, config.variance_mode)
            phi_hat = sdr.extract_directions(kernel, config.l)
        if "directions" in config.metrics and phi_hat is not None:
            out[(method, "r2_phi1")] = subspace_r2(phi_hat[:, 0], basis)
            if config.l >= 2:
                out[(method, "r2_phi2")] = subspace_r2(phi_hat[:, 1], basis)
        if "l_selection" in config.metrics and kernel is not None:
            out[(method, "l_selection")] = sdr.select_dimension(
                kernel, spec.p, t_train, config.ct_multiplier
            ).l_hat
        if want_oos:
            model = fit_forecast_model(
                method, fit.factors, y_train, phi_hat, config.bandwidth_scale
            )
            x_test = draw.x[:, t_train:]
            f_test = estimated_factors_known_loadings(x_test, fit.loadings)
            pred = predict(model, f_test)
            y_test = draw.y[t_train:]
            denom = float(np.sum((y_test - y_train.mean()) ** 2))
            out[(method, "r2_oos")] = 1.0 - float(np.sum((y_test - pred) ** 2)) / denom
            if model.kind == "additive":
                out[(method, "backfit_sweeps")] = model.sweeps
    return out


def _run_replicate_guarded(args) -> tuple[dict | None, str | None]:
    """``(cells, None)`` for a replicate that ran, ``(None, "Type: message")`` for one that failed."""
    spec, config, r = args
    try:
        return _run_replicate(spec, config, r), None
    except Exception as e:
        return None, f"{type(e).__name__}: {e}"


def monte_carlo_study(spec: DgpSpec, config: StudyConfig) -> StudyResult:
    """Run the requested replications and collect per-cell metric values.

    Replication ``r`` uses the seed stream ``(spec.seed, r)``; failures are
    recorded with their replicate index and excluded from the medians rather
    than silently dropped.  Results do not depend on ``config.jobs``.
    """
    args = [(spec, config, r) for r in range(config.n_reps)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            raw = list(pool.map(_run_replicate_guarded, args, chunksize=8))
    else:
        raw = [_run_replicate_guarded(a) for a in args]
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

