"""Nonparametric forecasting on extracted indices and rolling evaluation.

The forecast is ``y_hat = mean(y_train) + sum_j s_j(index_j)`` where each
``s_j`` is a univariate local-constant (Nadaraya-Watson, Gaussian weight)
smoother and the components are fit jointly by backfitting.  A fitted model
stacks its ``L`` components as arrays, so the dense fit weights of every
index, ``L x m x m``, and the prediction weights of every index for a block
of ``NW_BLOCK_ROWS`` queries, ``L x NW_BLOCK_ROWS x m``, are each built by one
:func:`_nw_weights` call, with each index's bits of its own call.  The rolling
evaluator re-runs the whole pipeline (standardize, factor fit, slice, kernel,
directions, additive fit) inside each moving window and scores forecasts
against a linear principal-components baseline fit on identical windows.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import sdr
from ._parallel import chunked_map, usable_cpus
from .factor_analysis import K_MAX, select_and_fit_factors
from .panel_data import PanelData, _check_count, _check_target_varies, _standardize_array

BACKFIT_TOL = 1e-8
BACKFIT_MAX_SWEEPS = 100
#: query rows whose dense prediction weights are built at once, for every index
NW_BLOCK_ROWS = 64
#: sorted training points that share one stored window of banded fit weights
NW_FIT_ROWS = 32
#: fit weights stay one dense matrix when a band would skip fewer weights per
#: row, a timed crossover (see ``_fit_weights``)
NW_MIN_SKIPPED_PER_ROW = 300

METHODS = sdr.KERNEL_METHODS + ("pc", "nlpc")


def reference_bandwidth(values: np.ndarray):
    """Normal-reference rule: ``1.06 * sd * T^(-1/5)`` (sample sd) of each column of ``values``.

    ``values`` is one series of ``T`` points or a ``T x L`` array of ``L``
    series.  The sds are one ``np.std`` over the contiguous transposed
    columns, which gives each the bits of its own 1-D ``np.std``.
    """
    t_len = values.shape[0]
    sds = np.std(np.ascontiguousarray(values.T), axis=-1, ddof=1)
    return 1.06 * sds * t_len ** (-0.2)


def _nw_exponent_floor(m: int) -> float:
    """Shifted Gaussian exponents below this give a weight of exactly 0, for ``m`` training points.

    The floor is ``-(53 ln 2 + ln m)``, rounded down by one ulp so that
    ``m * exp(floor) <= 2**-53`` holds in floating point too: the ``m``
    weights below it sum to under ``2**-53`` of a row's largest weight, 1, so
    dropping them cannot move a row sum by half an ulp.  It is -42.95 at
    ``m = 500``.  The floor also keeps numpy's ``exp`` off its subnormal path.
    """
    return math.nextafter(-(53.0 * math.log(2.0) + math.log(m)), -math.inf)


def _nw_weights(
    train_x: np.ndarray,
    query_x: np.ndarray,
    bandwidth,
    floor: float,
    queries_are_train: bool = False,
) -> np.ndarray:
    """Dense row-normalized Gaussian weights of each query point over the training points.

    Exponents are shifted by their row maximum before exponentiation, so
    queries far outside the training range keep finite weights concentrated
    on the nearest observations.  With ``queries_are_train`` each query is a
    training point, so its row maximum is its own -0 exponent and the shift,
    which would change no bit, is skipped.  Shifted exponents below ``floor``
    (see :func:`_nw_exponent_floor`) give a weight of exactly 0.  A row whose
    every squared scaled distance overflows (a query about 1e154 bandwidths
    from every point) weighs the training points at its least distance
    equally, the Gaussian limit.  A query past an end of the training range
    gets the Gaussian limit there too, see :func:`_weigh_the_ends`.  The array
    is built and normalized in place.

    Stacks of queries ``(..., n)`` over stacks of training points ``(..., m)``
    give ``(..., n, m)`` weights, with one ``bandwidth`` for every slice or
    one per slice, shape ``(...)``.  Every step is elementwise or runs along
    the last axis, so each slice has the bits of its own 2-D call: the
    banded fit weights are a stack of blocks, the dense fit weights a stack of
    indices, and a prediction block a stack of indices too.
    """
    # squaring before scaling gives the bits of -0.5 * d * d, as scaling by
    # -0.5 is exact; an overflow gives an exponent of -inf
    with np.errstate(over="ignore"):
        e = query_x[..., :, None] - train_x[..., None, :]
        e /= np.asarray(bandwidth)[..., None, None]
        e *= e
    e *= -0.5
    if not queries_are_train:
        top = e.max(axis=-1, keepdims=True)
        far = np.nonzero(top[..., 0] == -np.inf)  # the far rows, one index array per axis
        top[far] = 0.0
        e -= top
    keep = e >= floor
    np.maximum(e, floor, out=e)
    np.exp(e, out=e)
    e *= keep
    if not queries_are_train:
        if far[0].size:
            with np.errstate(over="ignore"):
                d = np.abs(query_x[far][:, None] - train_x[far[:-1]])
            e[far] = d == d.min(axis=1, keepdims=True)
        _weigh_the_ends(e, train_x, query_x, bandwidth, floor)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _weigh_the_ends(
    e: np.ndarray, train_x: np.ndarray, query_x: np.ndarray, bandwidth, floor: float
) -> None:
    """Give the rows of queries past an end of the training range their Gaussian limit.

    A query ``reach`` past the largest point, whose nearest neighbour below is
    ``gap`` away, gives that neighbour the exact shifted exponent
    ``-gap (gap + 2 reach) / (2 bandwidth^2)``.  Where that is below ``floor``,
    every weight but the end's is 0, which the computed exponents miss once
    the distances ``q - x`` round alike (about 2^53 spreads out).  Those rows
    are set to the points at the end, and likewise below the least point.
    ``train_x`` is one index's points ``(m,)`` or a stack of indices
    ``(L, m)``, with one ``bandwidth`` or one per index.  Only a range check
    of every index at once is paid when every query is in range; an index
    with a query out of its range is then handled alone.
    """
    if train_x.ndim == 1:
        e, train_x, query_x = e[None], train_x[None], query_x[None]
    lo, hi = train_x.min(axis=1), train_x.max(axis=1)
    q_lo, q_hi = query_x.min(axis=1), query_x.max(axis=1)
    for j in np.flatnonzero((q_lo < lo) | (q_hi > hi)):
        x, q, h = train_x[j], query_x[j], float(bandwidth[j] if np.ndim(bandwidth) else bandwidth)
        sides = []  # (points at the end, reach past it, gap to its nearest neighbour)
        if q_hi[j] > hi[j]:
            gap = hi[j] - x.max(where=x < hi[j], initial=-np.inf)
            sides.append((x == hi[j], q - hi[j], gap))
        if q_lo[j] < lo[j]:
            gap = x.min(where=x > lo[j], initial=np.inf) - lo[j]
            sides.append((x == lo[j], lo[j] - q, gap))
        for at_end, reach, gap in sides:
            # solved for reach in Python floats, which give inf on overflow, not a warning
            gap = float(gap)
            least_reach = -floor * h / gap * h - gap / 2.0
            e[j][reach > max(least_reach, 0.0)] = at_end


@dataclass(eq=False)
class _BandedWeights:
    """Gaussian weights of the training points over themselves, stored only inside windows.

    Rows are taken in sorted order, ``NW_FIT_ROWS`` at a time, and the last
    block is padded by repeating the largest point.  ``weights[b]`` holds the
    :func:`_nw_weights` of block ``b``'s rows over the ``W`` training points
    ``cols[b]``, a window of consecutive sorted points that holds every weight
    of those rows above the floor.  ``self @ v`` is one gather ``v[cols]``,
    one batched product and one scatter back through ``order``.
    """

    order: np.ndarray  # the sorting permutation of the training points
    cols: np.ndarray  # (blocks, W): each block's window, as unsorted positions
    weights: np.ndarray  # (blocks, NW_FIT_ROWS, W)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        m = self.order.shape[0]
        out = np.empty(m)
        out[self.order] = (self.weights @ v[self.cols][..., None]).ravel()[:m]
        return out


def _fit_weights(train_x: np.ndarray, bandwidth: float) -> _BandedWeights | None:
    """The banded weights of the training points over themselves, or ``None`` where a band costs.

    A training point keeps the points within ``reach = sqrt(2 |floor|)``
    bandwidths of it, so a band over the sorted points skips about
    ``m (1 - 2 reach / span)`` of each row's ``m`` weights, where ``span`` is
    the range of ``train_x``.  Where that estimate is below
    ``NW_MIN_SKIPPED_PER_ROW`` this returns ``None`` before any sort, and the
    caller builds the dense matrix instead.  Every row has the same reach,
    widened by a relative 1e-9 against rounding (points in it below the floor
    are still 0), so a block's window runs from its first point's reach to
    its last's, two vectorized ``searchsorted`` calls.  Every window is then
    widened to the widest, ``W`` points, and one that would run past the
    largest point slides back to end there: the points it gains lie beyond
    every row's reach, so their weights are exactly 0.  At the study's
    held-out bandwidth (0.1x the reference rule, T = 500) the padded windows
    hold about 34% of the matrix.  Row sums add those exact zeros in another
    order and the batched product rounds its wider rows differently, so
    weights and products can differ by an ulp from those over each block's
    own window.

    The padding and an uneven density (say an outlier that stretches
    ``span``) make the padded array skip fewer weights per row than the
    estimate.  Where it skips fewer than ``NW_MIN_SKIPPED_PER_ROW / 2``, near
    the timed crossover of its product (below), and so wherever it would hold
    more than ``m^2`` weights, this returns ``None`` too.

    Timed on one BLAS thread, medians over 5 sets of N(0, 1) points at
    m = 200-500 and 0.1-0.3x the reference bandwidth: the batched product
    beats the dense one from about 220-320 estimated (150-190 padded)
    skipped weights per row.  A band is also cheaper to build, as it
    exponentiates fewer weights, so a fit of 20 sweeps gains from about
    150-270.  At the rolling evaluator's 119 points and bandwidth scale 1,
    a forced band builds 1.5x and multiplies 1.9x slower than the dense
    matrix.
    """
    m = train_x.shape[0]
    floor = _nw_exponent_floor(m)
    reach = bandwidth * math.sqrt(-2.0 * floor)
    if m * (1.0 - 2.0 * reach / np.ptp(train_x)) < NW_MIN_SKIPPED_PER_ROW:
        return None
    order = np.argsort(train_x, kind="stable")
    x_sorted = train_x[order]
    reach *= 1.0 + 1e-9
    n_blocks = -(-m // NW_FIT_ROWS)
    rows = np.minimum(np.arange(n_blocks * NW_FIT_ROWS), m - 1).reshape(n_blocks, NW_FIT_ROWS)
    c0 = np.searchsorted(x_sorted, x_sorted[rows[:, 0]] - reach, "left")
    c1 = np.searchsorted(x_sorted, x_sorted[rows[:, -1]] + reach, "right")
    width = int((c1 - c0).max())
    if m - rows.size * width / m < NW_MIN_SKIPPED_PER_ROW / 2:
        return None
    cols = np.minimum(c0, m - width)[:, None] + np.arange(width)
    weights = _nw_weights(x_sorted[cols], x_sorted[rows], bandwidth, floor, True)
    return _BandedWeights(order, order[cols], weights)


@dataclass(eq=False)
class ForecastModel:
    """A fitted forecast rule: either additive-in-indices or linear.

    ``directions`` maps a length-``K`` factor vector to the ``L`` fitted
    indices; for models fit directly on raw inputs it is the identity.  An
    additive model's component ``j`` is the univariate smoother
    ``s_j(x) = sum_i w_i(x) partial_residuals[j, i]``, whose Nadaraya-Watson
    weights ``w(x)`` are over ``train_x[j]`` with ``bandwidths[j]``: the
    components are stacked arrays, ``(L, m)``, ``(L, m)`` and ``(L,)``, so that
    :func:`predict` weighs every index in one pass.  Additive models also
    record how many backfitting sweeps ran and whether the fitted values
    settled within ``BACKFIT_TOL`` before ``BACKFIT_MAX_SWEEPS``.
    """

    kind: str  # "additive" | "linear"
    intercept: float
    directions: np.ndarray | None = None
    train_x: np.ndarray | None = None
    partial_residuals: np.ndarray | None = None
    bandwidths: np.ndarray | None = None
    coefficients: np.ndarray | None = None
    sweeps: int = 0
    converged: bool = True


def _backfit(weights: list, centered: np.ndarray):
    """Backfitting sweeps: returns ``(fitted, total, sweeps, converged)``.

    A sweep sets each component in turn to its weights ``@`` the residual of
    the others, until the total moves less than ``BACKFIT_TOL`` or after
    ``BACKFIT_MAX_SWEEPS`` sweeps.  Only the total converges: every weight
    row sums to 1, so the components are fixed only up to constants that sum
    to zero and move no prediction, and their levels drift with the sweeps.
    """
    fitted = np.zeros((len(weights), centered.shape[0]))
    total = np.zeros(centered.shape[0])
    sweeps, converged = 0, False
    while sweeps < BACKFIT_MAX_SWEEPS and not converged:
        sweeps += 1
        previous = total
        for j, w in enumerate(weights):
            fitted[j] = w @ (centered - (fitted.sum(axis=0) - fitted[j]))
        total = fitted.sum(axis=0)
        converged = bool(np.abs(total - previous).max() < BACKFIT_TOL)
    return fitted, total, sweeps, converged


def fit_additive(
    indices: np.ndarray,
    targets: np.ndarray,
    bandwidths: np.ndarray,
    directions: np.ndarray,
) -> ForecastModel:
    """Backfit univariate kernel smoothers on the columns of the ``T x L`` ``indices``.

    ``bandwidths`` holds one bandwidth per index and ``directions`` is the
    ``K x L`` map from a factor vector to the indices.  Targets are centered
    at their mean (the model intercept) and the components are fit by
    :func:`_backfit`.  Each index's weights are built once: banded where
    :func:`_fit_weights` finds a band pays, and otherwise as one stack of
    dense matrices by one :func:`_nw_weights` call, ``L x m x m`` (the
    matrices the sweeps keep anyway, plus a boolean mask of their shape while
    they are built); with no dense index there is no call.  The sweeps see
    the components in index order either way.  A zero-variance index column
    is dropped from the model, with its direction and a warning, and its
    bandwidth is not used; with every column dropped the model predicts its
    intercept.
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
    keep = np.ptp(indices, axis=0) != 0.0
    bandwidths = np.asarray(bandwidths, dtype=float)
    if bandwidths.shape != (n_idx,):
        raise ValueError(f"bandwidths have shape {bandwidths.shape}, expected ({n_idx},)")
    used = bandwidths[keep]
    if not np.all(np.isfinite(used) & (used > 0)):
        raise ValueError("bandwidths must be finite and strictly positive")
    for j in np.flatnonzero(~keep):
        warnings.warn(f"index {j} is degenerate (zero variance); component fixed at 0",
                      stacklevel=2)

    intercept = float(targets.mean())
    centered = targets - intercept
    train_x = indices.T[keep]  # (L, m)
    bandwidths = bandwidths[keep]
    weights = [_fit_weights(x, h) for x, h in zip(train_x, bandwidths)]
    dense = [j for j, w in enumerate(weights) if w is None]
    if dense:
        stacked = _nw_weights(train_x[dense], train_x[dense], bandwidths[dense],
                              _nw_exponent_floor(t_len), queries_are_train=True)
        for j, w in zip(dense, stacked):
            weights[j] = w

    fitted, total, sweeps, converged = _backfit(weights, centered)
    return ForecastModel(
        kind="additive",
        intercept=intercept,
        # a C-ordered copy: boolean column indexing gives an F-ordered one,
        # and ``predict``'s ``f_new @ directions`` would round differently
        directions=np.compress(keep, np.asarray(directions, dtype=float), axis=1),
        train_x=train_x,
        partial_residuals=centered - (total - fitted),
        bandwidths=bandwidths,
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
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "pc":
        return fit_pc_baseline(factors, targets)
    if method == "nlpc":
        indices, directions = factors, np.eye(factors.shape[1])
    elif phi is None:
        raise ValueError(f"method {method!r} needs its directions phi, got None")
    else:
        indices, directions = factors @ phi, phi
    bandwidths = bandwidth_scale * reference_bandwidth(indices)
    return fit_additive(indices, targets, bandwidths, directions)


def predict(model: ForecastModel, f_new: np.ndarray) -> np.ndarray:
    """Evaluate the fitted forecast rule at each row of the ``n x K`` ``f_new``.

    An additive model's weights are dense :func:`_nw_weights` rows, built for
    every index at once ``NW_BLOCK_ROWS`` queries at a time, so they hold at
    most ``L x NW_BLOCK_ROWS x m`` weights.  Each index's rows times its
    partial residuals are added onto the intercept in index order.
    """
    f_new = np.asarray(f_new, dtype=float)
    if f_new.ndim != 2:
        raise ValueError("f_new must be n x K")
    if not np.all(np.isfinite(f_new)):
        raise ValueError("non-finite input to predict")
    if model.kind == "linear":
        return model.intercept + f_new @ model.coefficients
    idx = f_new @ model.directions
    out = np.full(f_new.shape[0], model.intercept)
    floor = _nw_exponent_floor(model.train_x.shape[1])
    for r0 in range(0, idx.shape[0], NW_BLOCK_ROWS):
        rows = slice(r0, r0 + NW_BLOCK_ROWS)
        w = _nw_weights(model.train_x, idx[rows].T, model.bandwidths, floor)
        for w_j, residuals in zip(w, model.partial_residuals):
            out[rows] += w_j @ residuals
    return out


@dataclass(frozen=True)
class RollingConfig:
    """Settings for the rolling out-of-sample evaluation.

    Every window's predictors are standardized over that window before the
    factor fit, as ``select`` and ``factors`` standardize the whole panel.
    Kernels slice the training targets into ``sdr.N_SLICES``: ``tm`` and
    ``ens`` need two a slice, ``window - horizon >= 2 * N_SLICES``, and SIR's
    kernel has rank at most ``N_SLICES - 1`` (its weighted slice means sum to
    zero), so ``sir`` with an integer ``l`` needs ``l <= N_SLICES - 1``.  The
    PC baseline fits every window's training points on ``k`` factors, so an
    integer ``k`` needs ``k < window - horizon``; ``k="auto"`` selects at most
    ``factor_analysis.K_MAX``.
    """

    window: int = 120
    horizon: int = 1
    method: str = "dr"
    k: int | str = 8  # factor count, or "auto"
    l: int | str = 1  # index count for SDR methods, or "auto"
    n_eval: int = 240

    def __post_init__(self):
        for name in ("window", "horizon", "n_eval", "k", "l"):
            _check_count(name, getattr(self, name), auto=name in ("k", "l"))
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        n_train = self.window - self.horizon
        if n_train < 10:
            raise ValueError(
                f"window too short: window - horizon = {n_train} leaves fewer than 10 "
                "training points"
            )
        sdr.check_slice_rules([self.method], n_train, f"window - horizon = {n_train}")
        # with k="auto" the fitted K is at most K_MAX
        bound, name = (K_MAX, "K_MAX") if self.k == "auto" else (self.k, "k")
        if self.l != "auto" and self.l > bound:
            raise ValueError(f"l={self.l} must be <= {name}={bound}")
        if self.method == "sir" and self.l != "auto" and self.l > sdr.N_SLICES - 1:
            raise ValueError(f"l={self.l} must be <= N_SLICES - 1 = {sdr.N_SLICES - 1} for sir")
        if self.k != "auto" and self.k >= n_train:
            raise ValueError(f"k={self.k} must be < window - horizon = {n_train}")


@dataclass(eq=False)
class EvalReport:
    """Per-origin forecasts plus the aggregate accuracy measures."""

    origins: np.ndarray  # column indices of the forecast origins
    forecasts: np.ndarray
    baseline: np.ndarray  # the PC baseline's forecasts on the same windows
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
    return np.lib.stride_tricks.sliding_window_view(y, h).mean(axis=1)


def _fit_window_model(x_win, targets_train, config: RollingConfig):
    """Fit the configured forecaster inside one window: ``(model, factor fit)``.

    ``x_win`` holds the window's predictor columns, standardized over the
    window; the last column is the forecast origin and the first
    ``len(targets_train)`` columns are the training times.  Directions come
    from :func:`suffcast.sdr.fit_indices`, which caps an integer ``l`` at the
    window's factor count (with ``k="auto"`` it can fall below ``l``).
    Smoothers use the normal-reference bandwidth.
    """
    _, fit = select_and_fit_factors(x_win, K_MAX, config.k)
    train_factors = fit.factors[: targets_train.shape[0]]
    p = x_win.shape[0]
    indices = sdr.fit_indices([config.method], train_factors, targets_train, p, config.l)
    _, phi = indices.get(config.method, (None, None))
    return fit_forecast_model(config.method, train_factors, targets_train, phi, 1.0), fit


def _rolling_chunk(panel, aligned, config, origins) -> list[tuple]:
    """Fit and forecast at each of ``origins``; ``aligned`` holds the panel's h-step targets.

    Returns one row per origin: its forecast, PC baseline, training-target
    mean, selected K, the model's index count (0 for the linear model) and
    whether its backfit stopped at the sweep cap.  A constant training target
    is a :class:`DataError`; an origin that fails raises, its message
    prefixed with the origin.
    """
    t_w, h = config.window, config.horizon
    rows = []
    for t in origins:
        try:
            lo = t - t_w + 1
            x_win = _standardize_array(panel.x[:, lo : t + 1], panel.series_names)
            targets_train = aligned[lo : t - h + 1]
            _check_target_varies(targets_train, "the training window")
            model, fit = _fit_window_model(x_win, targets_train, config)
            train_factors = fit.factors[: targets_train.shape[0]]
            pc_model = fit_forecast_model("pc", train_factors, targets_train, None, 1.0)
            f_origin = fit.factors[-1:]
            n_idx = 0 if model.directions is None else model.directions.shape[1]
            rows.append((predict(model, f_origin)[0], predict(pc_model, f_origin)[0],
                         targets_train.mean(), fit.k, n_idx, not model.converged))
        except Exception as e:
            # prefix the origin in place: rebuilding the exception would
            # call constructors that take other arguments
            e.args = (f"forecast origin {t}: {e}",)
            raise
    return rows


def rolling_evaluate(panel: PanelData, config: RollingConfig) -> EvalReport:
    """Roll a fixed-length window through the panel and score the forecasts.

    At each origin ``t`` the pipeline sees only columns up to ``t`` and target
    values observed by time ``t``; the realized value ``mean(y[t..t+h-1])``
    is used for scoring only.  The linear principal-components baseline of
    :func:`fit_forecast_model` is fit on identical windows for every method;
    ``rmse_vs_pc`` is the ratio ``mse / mse_pc`` of the two mean squared
    errors, exactly one for ``"pc"`` itself.  The
    origins are split into one chunk of consecutive ones per usable CPU, each
    computed on one BLAS thread in its own worker process, or in-process where
    there is one chunk (see :func:`suffcast._parallel.chunked_map`); no result
    depends on the split.  A failing origin raises, the earliest one if several
    fail.
    """
    t_w, h = config.window, config.horizon
    t_len = panel.t_len
    aligned = _forward_mean(panel.y, h)  # defined for t = 0 .. T-h
    first = t_w - 1
    last = t_len - h
    if last < first:
        raise ValueError(
            f"insufficient data: need at least window + horizon - 1 = {t_w + h - 1} columns, "
            f"panel has {t_len}"
        )
    origins = np.arange(first, last + 1)
    if config.n_eval < len(origins):
        origins = origins[-config.n_eval :]

    chunks = np.array_split(origins, min(usable_cpus(), len(origins)))
    rows = chunked_map(
        functools.partial(_rolling_chunk, panel, aligned, config), chunks, len(chunks)
    )
    forecasts, baseline, benchmarks, selected_k, selected_l, not_converged = map(
        np.array, zip(*rows)
    )
    realized = aligned[origins]

    err = realized - forecasts
    err_pc = realized - baseline
    mse = float(np.mean(err**2))
    mse_pc = float(np.mean(err_pc**2))
    denom = float(np.sum((realized - benchmarks) ** 2))
    r2 = 1.0 - float(np.sum(err**2)) / denom if denom > 0 else float("-inf")
    return EvalReport(
        origins=origins,
        forecasts=forecasts,
        baseline=baseline,
        realized=realized,
        benchmarks=benchmarks,
        mse=mse,
        mse_pc=mse_pc,
        rmse_vs_pc=mse / mse_pc,
        r2_oos=r2,
        selected_k=selected_k,
        selected_l=selected_l,
        backfit_not_converged=int(np.count_nonzero(not_converged)),
    )

