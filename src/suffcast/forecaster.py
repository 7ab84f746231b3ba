"""Nonparametric forecasting on extracted indices and rolling evaluation.

The forecast is ``y_hat = mean(y_train) + sum_j s_j(index_j)`` where each
``s_j`` is a univariate local-constant (Nadaraya-Watson, Gaussian weight)
smoother and the components are fit jointly by backfitting.  The rolling
evaluator re-runs the whole pipeline (standardize, factor fit, slice, kernel,
directions, additive fit) inside each moving window and scores forecasts
against a linear principal-components baseline fit on identical windows.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import sdr
from .factor_analysis import select_and_fit_factors
from .panel_data import PanelData, _standardize_array

BACKFIT_TOL = 1e-8
BACKFIT_MAX_SWEEPS = 100
#: shifted Gaussian exponents below this give a weight of exactly 0
NW_EXPONENT_FLOOR = -700.0

METHODS = sdr.KERNEL_METHODS + ("pc", "nlpc")


def reference_bandwidth(values: np.ndarray) -> float:
    """Normal-reference rule: ``1.06 * sd * T^(-1/5)`` (sample sd)."""
    t_len = values.shape[0]
    return 1.06 * float(np.std(values, ddof=1)) * t_len ** (-0.2)


def _nw_weights(train_x: np.ndarray, query_x: np.ndarray, bandwidth: float) -> np.ndarray:
    """Row-normalized Gaussian weights of each query point over the training points.

    Exponents are shifted by their row maximum before exponentiation, so
    queries far outside the training range keep finite weights concentrated
    on the nearest observations.  Shifted exponents below
    ``NW_EXPONENT_FLOOR`` give a weight of exactly 0 (they are below 1e-304,
    against a largest weight of 1 in each row).  Without the floor, numpy's
    ``exp`` leaves its vectorized path for inputs below about -708, and the
    subnormal weights it returns slow every BLAS product with the weight
    matrix several-fold.  The array is built and normalized in place.
    """
    # squaring before scaling gives the bits of -0.5 * d * d, as scaling by
    # -0.5 is exact
    e = query_x[:, None] - train_x[None, :]
    e /= bandwidth
    e *= e
    e *= -0.5
    e -= e.max(axis=1, keepdims=True)
    keep = e >= NW_EXPONENT_FLOOR
    np.maximum(e, NW_EXPONENT_FLOOR, out=e)
    np.exp(e, out=e)
    e *= keep
    e /= e.sum(axis=1, keepdims=True)
    return e


@dataclass(eq=False)
class _Smoother:
    """State of one fitted univariate component."""

    train_x: np.ndarray
    partial_residuals: np.ndarray
    bandwidth: float
    active: bool = True

    def __call__(self, query_x: np.ndarray) -> np.ndarray:
        if not self.active:
            return np.zeros_like(query_x, dtype=float)
        w = _nw_weights(self.train_x, np.asarray(query_x, dtype=float), self.bandwidth)
        return w @ self.partial_residuals


@dataclass(eq=False)
class ForecastModel:
    """A fitted forecast rule: either additive-in-indices or linear.

    ``directions`` maps a length-``K`` factor vector to the ``L`` fitted
    indices; for models fit directly on raw inputs it is the identity.
    Additive models record how many backfitting sweeps ran and whether the
    fitted values settled within ``BACKFIT_TOL`` before ``BACKFIT_MAX_SWEEPS``.
    """

    kind: str  # "additive" | "linear"
    intercept: float
    directions: np.ndarray | None = None
    smoothers: list[_Smoother] = field(default_factory=list)
    coefficients: np.ndarray | None = None
    sweeps: int = 0
    converged: bool = True


def fit_additive(
    indices: np.ndarray,
    targets: np.ndarray,
    bandwidths: np.ndarray,
    directions: np.ndarray,
) -> ForecastModel:
    """Backfit univariate kernel smoothers on the columns of the ``T x L`` ``indices``.

    ``bandwidths`` holds one bandwidth per index and ``directions`` is the
    ``K x L`` map from a factor vector to the indices.  Targets are centered
    at their mean (the model intercept) and components are updated in turn
    until the fitted values move less than ``BACKFIT_TOL`` or
    ``BACKFIT_MAX_SWEEPS`` is reached.  A zero-variance index column is fixed
    at zero with a warning, and its bandwidth is not used.
    """
    indices = np.asarray(indices, dtype=float)
    if indices.ndim != 2:
        raise ValueError("indices must be T x L")
    targets = np.asarray(targets, dtype=float)
    t_len, n_idx = indices.shape
    if t_len < 3:
        raise ValueError(f"need at least 3 observations to fit, got {t_len}")
    if n_idx < 1:
        raise ValueError("need at least one index")
    if targets.shape != (t_len,):
        raise ValueError(f"targets have shape {targets.shape}, expected ({t_len},)")
    if not (np.all(np.isfinite(indices)) and np.all(np.isfinite(targets))):
        raise ValueError("non-finite inputs")
    degenerate = np.ptp(indices, axis=0) == 0.0
    bandwidths = np.asarray(bandwidths, dtype=float)
    if bandwidths.shape != (n_idx,):
        raise ValueError(f"bandwidths have shape {bandwidths.shape}, expected ({n_idx},)")
    used = bandwidths[~degenerate]
    if not np.all(np.isfinite(used) & (used > 0)):
        raise ValueError("bandwidths must be finite and strictly positive")

    intercept = float(targets.mean())
    centered = targets - intercept

    active = np.ones(n_idx, dtype=bool)
    weight_mats: list[np.ndarray | None] = []
    for j in range(n_idx):
        if degenerate[j]:
            warnings.warn(f"index {j} is degenerate (zero variance); component fixed at 0",
                          stacklevel=2)
            active[j] = False
            weight_mats.append(None)
            continue
        weight_mats.append(_nw_weights(indices[:, j], indices[:, j], bandwidths[j]))

    fitted = np.zeros((n_idx, t_len))
    total_prev = np.zeros(t_len)
    sweeps, converged = 0, False
    while sweeps < BACKFIT_MAX_SWEEPS and not converged:
        sweeps += 1
        for j in range(n_idx):
            if not active[j]:
                continue
            partial = centered - (fitted.sum(axis=0) - fitted[j])
            fitted[j] = weight_mats[j] @ partial
        total = fitted.sum(axis=0)
        converged = bool(np.max(np.abs(total - total_prev)) < BACKFIT_TOL)
        total_prev = total

    smoothers = []
    total = fitted.sum(axis=0)
    for j in range(n_idx):
        if active[j]:
            partial = centered - (total - fitted[j])
            smoothers.append(_Smoother(indices[:, j].copy(), partial, float(bandwidths[j])))
        else:
            smoothers.append(_Smoother(indices[:, j].copy(), np.zeros(t_len), 1.0, active=False))

    return ForecastModel(
        kind="additive",
        intercept=intercept,
        directions=np.asarray(directions, dtype=float),
        smoothers=smoothers,
        sweeps=sweeps,
        converged=converged,
    )


def fit_pc_baseline(factors: np.ndarray, targets: np.ndarray) -> ForecastModel:
    """Linear baseline: OLS of the targets on an intercept plus every factor.

    Errors out on a rank-deficient design.
    """
    factors = np.asarray(factors, dtype=float)
    targets = np.asarray(targets, dtype=float)
    t_len, k = factors.shape
    if t_len <= k:
        raise ValueError(f"linear baseline needs T > K, got T={t_len}, K={k}")
    design = np.column_stack([np.ones(t_len), factors])
    beta, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < k + 1:
        raise ValueError("rank-deficient design in linear baseline")
    return ForecastModel(kind="linear", intercept=float(beta[0]), coefficients=beta[1:])


def _check_count(name: str, value, auto: bool = False) -> None:
    """A count must be an integer >= 1, or ``"auto"`` where ``auto`` allows it."""
    if auto and value == "auto":
        return
    if isinstance(value, str) or value < 1:
        allowed = ' or "auto"' if auto else ""
        raise ValueError(f"{name} must be >= 1{allowed}, got {value!r}")


def fit_forecast_model(
    method: str,
    factors: np.ndarray,
    targets: np.ndarray,
    phi: np.ndarray | None,
    bandwidth_scale: float,
) -> ForecastModel:
    """Fit the forecast rule ``method`` names on training factors.

    ``"pc"`` is the linear baseline on every factor, ``"nlpc"`` the additive
    fit on every factor (identity directions), and a kernel method the
    additive fit on the indices ``factors @ phi``.  Every additive fit smooths
    index ``j`` with ``bandwidth_scale`` times its normal-reference bandwidth.
    """
    if method == "pc":
        return fit_pc_baseline(factors, targets)
    if method == "nlpc":
        indices, directions = factors, np.eye(factors.shape[1])
    else:
        indices, directions = factors @ phi, phi
    bandwidths = bandwidth_scale * np.array(
        [reference_bandwidth(indices[:, j]) for j in range(indices.shape[1])]
    )
    return fit_additive(indices, targets, bandwidths, directions)


def predict(model: ForecastModel, f_new: np.ndarray) -> np.ndarray:
    """Evaluate the fitted forecast rule at each row of the ``n x K`` ``f_new``."""
    f_new = np.asarray(f_new, dtype=float)
    if f_new.ndim != 2:
        raise ValueError("f_new must be n x K")
    if not np.all(np.isfinite(f_new)):
        raise ValueError("non-finite input to predict")
    if model.kind == "linear":
        return model.intercept + f_new @ model.coefficients
    idx = f_new @ model.directions
    out = np.full(f_new.shape[0], model.intercept)
    for j, smoother in enumerate(model.smoothers):
        out += smoother(idx[:, j])
    return out


@dataclass(frozen=True)
class RollingConfig:
    """Settings for the rolling out-of-sample evaluation."""

    window: int = 120
    horizon: int = 1
    method: str = "dr"
    k: int | str = 8  # factor count, or "auto"
    l: int | str = 1  # index count for SDR methods, or "auto"
    h_slices: int = 10
    n_eval: int = 240
    standardize: bool = True
    k_max: int = 8

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.window - self.horizon < 10:
            raise ValueError(
                f"window too short: window - horizon = {self.window - self.horizon} "
                "leaves fewer than 10 training points"
            )
        for name in ("n_eval", "h_slices", "k_max"):
            _check_count(name, getattr(self, name))
        _check_count("k", self.k, auto=True)
        _check_count("l", self.l, auto=True)
        # with k="auto" the fitted K is at most k_max
        bound, name = (self.k_max, "k_max") if self.k == "auto" else (self.k, "k")
        if self.l != "auto" and self.l > bound:
            raise ValueError(f"l={self.l} must be <= {name}={bound}")


@dataclass(eq=False)
class EvalReport:
    """Per-origin forecasts plus the aggregate accuracy measures."""

    origins: np.ndarray  # column indices of the forecast origins
    forecasts: np.ndarray
    realized: np.ndarray
    benchmarks: np.ndarray  # per-origin training-window target means, the R^2 benchmark
    mse: float
    mse_pc: float
    rmse_vs_pc: float  # mse / mse_pc, the MSE ratio to the PC baseline
    r2_oos: float
    selected_k: np.ndarray
    selected_l: np.ndarray
    backfit_not_converged: int = 0  # origins whose backfit stopped at the sweep cap

    @property
    def n_eval(self) -> int:
        return self.origins.shape[0]


def _forward_mean(y: np.ndarray, h: int) -> np.ndarray:
    """Aligned multi-step targets: ``out[t] = mean(y[t], ..., y[t+h-1])``.

    ``y`` follows the panel alignment (``y[t]`` observed one period after the
    column-``t`` predictors), so ``out[t]`` is the average outcome over the
    ``h`` periods following time ``t``.
    """
    if h == 1:
        return y.astype(float, copy=True)
    return np.lib.stride_tricks.sliding_window_view(y, h).mean(axis=1)


def _fit_window_model(x_win, targets_train, config: RollingConfig):
    """Fit the configured forecaster inside one window.

    ``x_win`` holds the window's predictor columns (already standardized if
    requested); the last column is the forecast origin and the first
    ``len(targets_train)`` columns are the training times.  An integer ``l``
    above the window's factor count is capped at that count, and the index
    count used is returned.  Smoothers use the normal-reference bandwidth.
    """
    _, fit = select_and_fit_factors(x_win, config.k_max, config.k)
    train_factors = fit.factors[: targets_train.shape[0]]
    if config.method not in sdr.KERNEL_METHODS:
        phi, l_use = None, (fit.k if config.method == "nlpc" else 0)
    else:
        slices = sdr.slice_target(targets_train, config.h_slices)
        kernel = sdr.build_kernel(config.method, train_factors, slices)
        if config.l == "auto":
            l_use = sdr.select_dimension(kernel, x_win.shape[0], slices.t_len).l_hat
        else:
            # with k="auto" the selected K can fall below l
            l_use = min(config.l, fit.k)
        phi = sdr.extract_directions(kernel, l_use)
    model = fit_forecast_model(config.method, train_factors, targets_train, phi, 1.0)
    return model, fit, l_use


def rolling_evaluate(panel: PanelData, config: RollingConfig) -> EvalReport:
    """Roll a fixed-length window through the panel and score the forecasts.

    At each origin ``t`` the pipeline sees only columns up to ``t`` and target
    values observed by time ``t``; the realized value ``mean(y[t..t+h-1])``
    is used for scoring only.  A linear principal-components baseline is fit
    on identical windows; ``rmse_vs_pc`` is the ratio ``mse / mse_pc`` of the
    two mean squared errors, exactly one for the baseline itself.
    """
    t_w, h = config.window, config.horizon
    t_len = panel.t_len
    aligned = _forward_mean(panel.y, h)  # defined for t = 0 .. T-h
    first = t_w - 1
    last = t_len - h
    if last < first:
        raise ValueError(
            f"insufficient data: need at least window + horizon = {t_w + h} columns, "
            f"panel has {t_len}"
        )
    origins = np.arange(first, last + 1)
    if config.n_eval < len(origins):
        origins = origins[-config.n_eval :]

    forecasts = np.empty(origins.shape[0])
    baseline = np.empty(origins.shape[0])
    realized = aligned[origins]
    benchmarks = np.empty(origins.shape[0])
    selected_k = np.empty(origins.shape[0], dtype=int)
    selected_l = np.empty(origins.shape[0], dtype=int)
    not_converged = 0

    for i, t in enumerate(origins):
        try:
            lo = t - t_w + 1
            x_win = panel.x[:, lo : t + 1]
            if config.standardize:
                x_win = _standardize_array(x_win, panel.series_names)
            targets_train = aligned[lo : t - h + 1]
            model, fit, l_use = _fit_window_model(x_win, targets_train, config)
            not_converged += not model.converged
            f_origin = fit.factors[-1:]
            forecasts[i] = predict(model, f_origin)[0]
            if config.method == "pc":
                baseline[i] = forecasts[i]
            else:
                pc_model = fit_pc_baseline(fit.factors[: targets_train.shape[0]], targets_train)
                baseline[i] = predict(pc_model, f_origin)[0]
            benchmarks[i] = targets_train.mean()
            selected_k[i] = fit.k
            selected_l[i] = l_use
        except Exception as e:
            # prefix the origin in place: rebuilding the exception would
            # call constructors that take other arguments
            e.args = (f"forecast origin {t}: {e}",)
            raise

    err = realized - forecasts
    err_pc = realized - baseline
    mse = float(np.mean(err**2))
    mse_pc = float(np.mean(err_pc**2))
    rmse_vs_pc = 1.0 if config.method == "pc" else mse / mse_pc
    denom = float(np.sum((realized - benchmarks) ** 2))
    r2 = 1.0 - float(np.sum(err**2)) / denom if denom > 0 else float("-inf")
    return EvalReport(
        origins=origins,
        forecasts=forecasts,
        realized=realized,
        benchmarks=benchmarks,
        mse=mse,
        mse_pc=mse_pc,
        rmse_vs_pc=rmse_vs_pc,
        r2_oos=r2,
        selected_k=selected_k,
        selected_l=selected_l,
        backfit_not_converged=not_converged,
    )

