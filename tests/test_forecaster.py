import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suffcast import (
    DataError,
    PanelData,
    RollingConfig,
    fit_additive,
    fit_forecast_model,
    fit_pc_baseline,
    predict,
    rolling_evaluate,
)
from suffcast import forecaster as fc, sdr


def nlpc_fit(indices, targets):
    """The additive fit on every column, at the normal-reference bandwidths."""
    return fit_forecast_model("nlpc", indices, targets, None, 1.0)


class TestFitAdditive:
    def test_constant_targets(self):
        rng = np.random.default_rng(0)
        model = nlpc_fit(rng.standard_normal((10, 2)), np.full(10, 3.5))
        assert np.allclose(predict(model, rng.standard_normal((5, 2))), 3.5, rtol=0, atol=1e-12)

    def test_interpolation_limit(self):
        # bandwidth -> 0: prediction at a training point returns its target
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([5.0, -1.0, 2.0, 7.0])
        model = fit_additive(x, y, np.array([1e-4]), np.eye(1))
        assert np.allclose(predict(model, x), y, rtol=0, atol=1e-10)

    def test_hand_computed_gaussian_weights(self):
        model = fit_additive(
            np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]), np.array([1.0]), np.eye(1)
        )
        expected = 1.0 / (1.0 + 2.0 * np.exp(-0.5))
        assert predict(model, np.array([[1.0]]))[0] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_index_warns_and_contributes_zero(self):
        rng = np.random.default_rng(1)
        idx = np.column_stack([rng.standard_normal(12), np.ones(12)])
        y = idx[:, 0] + 2.0
        with pytest.warns(UserWarning, match="degenerate"):
            model = nlpc_fit(idx, y)
        assert len(model.train_x) == 1
        assert np.array_equal(model.directions, [[1.0], [0.0]])
        assert np.isfinite(predict(model, np.array([[0.3, 1.0]]))).all()

    def test_degenerate_column_leaves_the_model(self):
        rng = np.random.default_rng(28)
        directions = np.linalg.qr(rng.standard_normal((4, 3)))[0].copy()
        idx = rng.standard_normal((80, 3))
        idx[:, 1] = -0.7
        y = np.sin(idx[:, 0]) + idx[:, 2] ** 2 + 0.1 * rng.standard_normal(80)
        bws = np.array([0.4, 0.0, 0.5])
        with pytest.warns(UserWarning, match="index 1 is degenerate"):
            model = fit_additive(idx, y, bws, directions)
        kept = [0, 2]
        alone = fit_additive(idx[:, kept], y, bws[kept], directions[:, kept].copy())
        assert len(model.train_x) == 2
        assert np.array_equal(model.directions, directions[:, kept])
        assert model.directions.flags["C_CONTIGUOUS"]
        assert model.sweeps == alone.sweeps
        f_new = rng.standard_normal((70, 4))
        assert predict(model, f_new).tobytes() == predict(alone, f_new).tobytes()

    def test_finite_far_outside_training_range(self):
        rng = np.random.default_rng(2)
        model = nlpc_fit(rng.standard_normal((20, 2)), rng.standard_normal(20))
        assert np.isfinite(predict(model, np.array([[1e6, -1e6]]))).all()

    def test_reports_capped_backfit(self, monkeypatch):
        rng = np.random.default_rng(15)
        idx = rng.standard_normal((60, 2))
        y = np.sin(idx[:, 0]) + idx[:, 1] ** 2
        model = nlpc_fit(idx, y)
        assert model.converged and 1 < model.sweeps < fc.BACKFIT_MAX_SWEEPS
        monkeypatch.setattr(fc, "BACKFIT_MAX_SWEEPS", 1)
        capped = nlpc_fit(idx, y)
        assert capped.sweeps == 1
        assert not capped.converged

    def test_predictions_ignore_shifts_of_the_components_that_sum_to_zero(self):
        # every weight row sums to 1, so backfitting pins each component only
        # up to a constant, and constants that sum to zero leave every forecast
        rng = np.random.default_rng(1)
        f = rng.standard_normal((119, 3))
        y = np.sin(f[:, 0]) + f[:, 1] * f[:, 2] + 0.3 * rng.standard_normal(119)
        model = nlpc_fit(f, y)
        f_new = np.vstack([f, 3.0 * rng.standard_normal((40, 3))])
        before = predict(model, f_new)
        model.partial_residuals = model.partial_residuals + np.array([[2.5], [-80.0], [77.5]])
        assert np.allclose(predict(model, f_new), before, rtol=0, atol=1e-12)

    def test_input_checks(self):
        one, ramp = np.ones(1), np.zeros((4, 1)) + np.arange(4)[:, None]
        with pytest.raises(ValueError, match="T x L"):
            fit_additive(np.arange(5.0), np.zeros(5), one, np.eye(1))
        # a 1 x n input is one observation of n indices, not transposed
        with pytest.raises(ValueError, match="at least 3"):
            fit_additive(np.arange(5.0)[None, :], np.zeros(1), np.ones(5), np.eye(5))
        with pytest.raises(ValueError, match="at least 3"):
            fit_additive(np.zeros((2, 1)), np.zeros(2), one, np.eye(1))
        with pytest.raises(ValueError, match="non-finite"):
            fit_additive(np.array([[np.inf], [0.0], [1.0]]), np.zeros(3), one, np.eye(1))
        with pytest.raises(ValueError, match="strictly positive"):
            fit_additive(ramp, np.zeros(4), [0.0], np.eye(1))
        with pytest.raises(ValueError, match="finite and strictly positive"):
            fit_additive(ramp, np.zeros(4), [np.nan], np.eye(1))
        with pytest.raises(ValueError, match="at least one index"):
            fit_additive(np.zeros((4, 0)), np.zeros(4), np.ones(0), np.zeros((1, 0)))
        with pytest.raises(ValueError, match=r"targets have shape \(3,\), expected \(4,\)"):
            fit_additive(ramp, np.zeros(3), one, np.eye(1))
        with pytest.raises(ValueError, match=r"targets have shape \(4, 1\)"):
            fit_additive(ramp, np.zeros((4, 1)), one, np.eye(1))
        with pytest.raises(ValueError, match=r"bandwidths have shape \(2,\), expected \(1,\)"):
            fit_additive(ramp, np.zeros(4), np.ones(2), np.eye(1))
        with pytest.raises(ValueError, match=r"bandwidths have shape \(\), expected \(1,\)"):
            fit_additive(ramp, np.zeros(4), 1.0, np.eye(1))


def _reference_exponents(train_x, query_x, bandwidth):
    d = (query_x[:, None] - train_x[None, :]) / bandwidth
    e = -0.5 * d * d
    return e - e.max(axis=1, keepdims=True)


def _reference_weights(train_x, query_x, bandwidth):
    w = np.exp(_reference_exponents(train_x, query_x, bandwidth))
    return w / w.sum(axis=1, keepdims=True)


class TestWeightFloor:
    """Weights at the study's narrow bandwidth (0.1x the reference rule, T=500)."""

    @pytest.fixture
    def narrow(self):
        rng = np.random.default_rng(16)
        idx = rng.standard_normal((500, 2))
        y = 0.4 * idx[:, 0] ** 2 + 3.0 * np.sin(idx[:, 1] / 4.0) + 0.2 * rng.standard_normal(500)
        bws = 0.1 * np.array([fc.reference_bandwidth(idx[:, j]) for j in range(2)])
        return idx, y, bws

    def test_weights_match_formula_above_floor_and_are_zero_below(self, narrow):
        idx, _, bws = narrow
        x, h = idx[:, 0], bws[0]
        floor = fc._nw_exponent_floor(500)
        w = fc._nw_weights(x, x, h, floor)
        ref = _reference_weights(x, x, h)
        floored = _reference_exponents(x, x, h) < floor
        # the floored weights together cannot move a row sum by half an ulp
        assert 500 * np.exp(floor) <= 2.0**-53
        # the fixture reaches both numpy's underflow range and the subnormals
        assert floored.mean() > 0.3
        assert np.any((ref > 0) & (ref < np.finfo(float).tiny))
        assert not np.any((w > 0) & (w < np.finfo(float).tiny))
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(w[~floored], ref[~floored])
        assert np.all(w[floored] == 0.0)
        assert np.all(ref[floored] < np.exp(floor))

    def test_backfit_matches_reference_weights(self, narrow):
        idx, y, bws = narrow
        model = fit_additive(idx, y, bws, np.eye(2))
        mats = [_reference_weights(idx[:, j], idx[:, j], bws[j]) for j in range(2)]
        centered = y - y.mean()
        fitted = np.zeros((2, 500))
        total_prev = np.zeros(500)
        for sweep in range(1, fc.BACKFIT_MAX_SWEEPS + 1):
            for j in range(2):
                fitted[j] = mats[j] @ (centered - (fitted.sum(axis=0) - fitted[j]))
            total = fitted.sum(axis=0)
            if np.max(np.abs(total - total_prev)) < fc.BACKFIT_TOL:
                break
            total_prev = total
        assert model.sweeps == sweep
        # the banded products sum in sorted order, so bits may differ
        for j in range(2):
            expected = centered - (total - fitted[j])
            assert np.allclose(model.partial_residuals[j], expected, rtol=0, atol=1e-12)


def _floored_reference_weights(train_x, query_x, bandwidth, floor):
    """The dense weights with every shifted exponent below ``floor`` set to 0."""
    e = _reference_exponents(train_x, query_x, bandwidth)
    w = np.where(e >= floor, np.exp(np.maximum(e, floor)), 0.0)
    return w / w.sum(axis=1, keepdims=True)


class TestBandedWeights:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 600),
        scale=st.floats(0.02, 2.0),
        tied=st.booleans(),
        block=st.integers(1, 80),
    )
    def test_banded_product_matches_dense(self, seed, m, scale, tied, block):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        if tied:  # few distinct values: duplicates and ties at window edges
            x = np.round(x, 1)
        if np.ptp(x) == 0.0:
            return
        h = scale * fc.reference_bandwidth(x)
        # the fit weights are banded whatever the block size and bandwidth
        with mock.patch.object(fc, "NW_MIN_SKIPPED_PER_ROW", -np.inf), \
                mock.patch.object(fc, "NW_FIT_ROWS", block):
            w = fc._fit_weights(x, h)
        assert isinstance(w, fc._BandedWeights)
        dense = fc._nw_weights(x, x, h, fc._nw_exponent_floor(m))
        v = rng.standard_normal(m)
        assert np.allclose(w @ v, dense @ v, rtol=0, atol=1e-12)
        assert np.allclose(w @ np.ones(m), 1.0, rtol=0, atol=1e-12)

    def test_wide_band_is_the_dense_floored_matrix(self):
        # the rolling evaluator's bandwidth (scale 1) on a 119-point window
        rng = np.random.default_rng(17)
        x = rng.standard_normal(119)
        h = fc.reference_bandwidth(x)
        floor = fc._nw_exponent_floor(119)
        (w,) = _fit_operators(x[:, None], np.array([h]))
        assert isinstance(w, np.ndarray)
        assert np.array_equal(w, _floored_reference_weights(x, x, h, floor))
        # prediction weights, dense at every query count
        for q in (rng.normal(0.0, 2.0, 1), rng.normal(0.0, 2.0, 200)):
            expected = _floored_reference_weights(x, q, h, floor)
            assert np.array_equal(fc._nw_weights(x, q, h, floor), expected)
        # the floor is reached, so it is the new floor that is checked
        assert np.any(_reference_exponents(x, x, h) < floor)

    @pytest.mark.parametrize(
        "m,scale,banded",
        [(119, 1.0, False), (250, 0.05, False), (500, 0.1, True), (500, 1.0, False)],
    )
    def test_banded_only_where_the_band_skips_enough(self, m, scale, banded):
        # the rolling window (119 points) and small samples stay dense at any
        # bandwidth; the study's held-out fit (0.1x, T = 500) is banded
        x = np.random.default_rng(19).standard_normal(m)
        h = scale * fc.reference_bandwidth(x)
        reach = h * np.sqrt(-2.0 * fc._nw_exponent_floor(m))
        skipped = m * (1.0 - 2.0 * reach / np.ptp(x))
        assert (skipped >= fc.NW_MIN_SKIPPED_PER_ROW) == banded
        (w,) = _fit_operators(x[:, None], np.array([h]))
        assert isinstance(w, fc._BandedWeights) == banded
        if banded:
            assert np.array_equal(w.order, np.argsort(x, kind="stable"))

    def test_narrow_band_stores_a_fraction_of_the_matrix(self):
        # the study's held-out bandwidth (scale 0.1) at T = 500
        rng = np.random.default_rng(18)
        x = rng.standard_normal(500)
        h = 0.1 * fc.reference_bandwidth(x)
        w = fc._fit_weights(x, h)
        assert w.weights.size < 0.4 * 500 * 500

    def test_padded_windows_store_zeros_beyond_each_rows_reach(self):
        # 500 points are 15 full blocks of 32 rows and one of 20, padded
        rng = np.random.default_rng(26)
        x = rng.standard_normal(500)
        h = 0.1 * fc.reference_bandwidth(x)
        floor = fc._nw_exponent_floor(500)
        w = fc._fit_weights(x, h)
        assert 500 % fc.NW_FIT_ROWS != 0
        assert w.weights.shape == (-(-500 // fc.NW_FIT_ROWS), fc.NW_FIT_ROWS, w.cols.shape[1])
        rank = np.empty(500, dtype=int)
        rank[w.order] = np.arange(500)
        x_sorted = x[w.order]
        rows = np.minimum(np.arange(w.weights.shape[0] * fc.NW_FIT_ROWS), 499)
        rows = rows.reshape(w.weights.shape[:2])
        # each window is consecutive sorted points; the first starts at the
        # least point and the last ends at the largest
        starts = rank[w.cols[:, 0]]
        assert np.all(rank[w.cols] == starts[:, None] + np.arange(w.cols.shape[1]))
        assert starts[0] == 0 and rank[w.cols[-1, -1]] == 499
        distance = np.abs(x_sorted[rows][:, :, None] - x[w.cols][:, None, :])
        beyond = distance > h * np.sqrt(-2.0 * floor) * (1.0 + 1e-9)
        # the first window is widened past its last row's reach, and the last
        # slid back below its first row's reach
        assert beyond[0, -1].any() and beyond[-1, 0].any()
        assert np.all(w.weights[beyond] == 0.0)
        v = rng.standard_normal(500)
        dense = _floored_reference_weights(x, x, h, floor)
        assert np.allclose(w @ v, dense @ v, rtol=0, atol=1e-12)

    def test_outlier_that_fools_the_estimate_leaves_the_weights_dense(self):
        # one far point stretches the range, so the estimate skips nearly
        # every weight, but the other 499 points share one window
        x = np.append(np.random.default_rng(28).standard_normal(499), 1e3)
        h = 0.1 * fc.reference_bandwidth(x)
        floor = fc._nw_exponent_floor(500)
        reach = h * np.sqrt(-2.0 * floor)
        assert 500 * (1.0 - 2.0 * reach / np.ptp(x)) >= fc.NW_MIN_SKIPPED_PER_ROW
        assert fc._fit_weights(x, h) is None
        (w,) = _fit_operators(x[:, None], np.array([h]))
        assert isinstance(w, np.ndarray)
        assert np.array_equal(w, fc._nw_weights(x, x, h, floor, queries_are_train=True))


def test_held_out_study_does_not_depend_on_the_band():
    from suffcast.simulation import DgpSpec, StudyConfig, monte_carlo_study

    spec = DgpSpec(p=60, t_len=500, seed=27)
    config = StudyConfig(methods=("sir", "dr"), metrics=("oos",), n_reps=3)
    calls = []
    fit_weights = fc._fit_weights

    def recorded(*args):
        calls.append(fit_weights(*args))
        return calls[-1]

    with mock.patch.object(fc, "_fit_weights", recorded):
        banded = monte_carlo_study(spec, config)
    assert calls and all(isinstance(w, fc._BandedWeights) for w in calls)
    with mock.patch.object(fc, "NW_MIN_SKIPPED_PER_ROW", np.inf):
        dense = monte_carlo_study(spec, config)
    assert not banded.failures and not dense.failures
    for method in config.methods:
        assert np.array_equal(banded.values[(method, "backfit_sweeps")],
                              dense.values[(method, "backfit_sweeps")])
        assert np.allclose(banded.values[(method, "r2_oos")], dense.values[(method, "r2_oos")],
                           rtol=0, atol=1e-12)


def test_a_fit_with_every_index_banded_makes_no_dense_call():
    # the study's held-out fit: 0.1x the reference rule at T = 500 bands both indices
    rng = np.random.default_rng(29)
    f = rng.standard_normal((500, 2))
    y = np.sin(f[:, 0]) + 0.3 * rng.standard_normal(500)
    bws = 0.1 * fc.reference_bandwidth(f)
    assert all(isinstance(fc._fit_weights(x, h), fc._BandedWeights) for x, h in zip(f.T, bws))
    nw_weights = fc._nw_weights

    def no_empty_stack(x, *args, **kwargs):
        assert len(x), "weights built for no index"
        return nw_weights(x, *args, **kwargs)

    with mock.patch.object(fc, "_nw_weights", no_empty_stack):
        fit_additive(f, y, bws, np.eye(2))


def _fit_operators(indices, bandwidths):
    """Each column's fit weights, built as :func:`fit_additive` builds them, one at a time."""
    m = indices.shape[0]
    out = []
    for x, h in zip(indices.T, bandwidths):
        w = fc._fit_weights(x, h)
        if w is None:
            w = fc._nw_weights(x, x, h, fc._nw_exponent_floor(m), queries_are_train=True)
        out.append(w)
    return out


def _reference_backfit(indices, targets, bandwidths):
    """The backfitting sweeps written out: every sum recomputed from the fitted rows.

    Uses the fit's own weight operators, so its sweep count and partial
    residuals must equal the model's bit for bit.
    """
    t_len, n_idx = indices.shape
    mats = _fit_operators(indices, bandwidths)
    centered = targets - targets.mean()
    fitted = np.zeros((n_idx, t_len))
    total_prev = np.zeros(t_len)
    for sweep in range(1, fc.BACKFIT_MAX_SWEEPS + 1):
        for j in range(n_idx):
            fitted[j] = mats[j] @ (centered - (fitted.sum(axis=0) - fitted[j]))
        total = fitted.sum(axis=0)
        if np.max(np.abs(total - total_prev)) < fc.BACKFIT_TOL:
            break
        total_prev = total
    return sweep, [centered - (total - fitted[j]) for j in range(n_idx)]


class TestSweepExactness:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_dense_eight_component_fit_is_the_reference_sweep(self, seed):
        # the rolling evaluator's nlpc fit: 8 factors on a 119-point window
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((119, 8))
        y = np.sin(f[:, 0]) + 0.5 * f[:, 1] * f[:, 2] + 0.3 * rng.standard_normal(119)
        bws = np.array([fc.reference_bandwidth(f[:, j]) for j in range(8)])
        model = fit_additive(f, y, bws, np.eye(8))
        assert all(isinstance(w, np.ndarray) for w in _fit_operators(f, bws))
        sweeps, partials = _reference_backfit(f, y, bws)
        assert model.sweeps == sweeps > 2
        for row, expected in zip(model.partial_residuals, partials, strict=True):
            assert np.array_equal(row, expected)

    def test_banded_two_component_fit_is_the_reference_sweep(self):
        # the study's held-out fit: 0.1x the reference bandwidth at T = 500
        rng = np.random.default_rng(24)
        idx = rng.standard_normal((500, 2))
        y = 0.4 * idx[:, 0] ** 2 + np.sin(idx[:, 1]) + 0.2 * rng.standard_normal(500)
        bws = 0.1 * np.array([fc.reference_bandwidth(idx[:, j]) for j in range(2)])
        model = fit_additive(idx, y, bws, np.eye(2))
        assert all(isinstance(w, fc._BandedWeights) for w in _fit_operators(idx, bws))
        sweeps, partials = _reference_backfit(idx, y, bws)
        assert model.sweeps == sweeps > 2
        for row, expected in zip(model.partial_residuals, partials, strict=True):
            assert np.array_equal(row, expected)

    def test_degenerate_component_keeps_the_reference_sums(self):
        # the constant column leaves the model: the sweeps run on the others alone
        rng = np.random.default_rng(25)
        f = rng.standard_normal((60, 3))
        f[:, 1] = 2.0
        y = np.cos(f[:, 0]) + f[:, 2] + 0.1 * rng.standard_normal(60)
        bws = np.array([fc.reference_bandwidth(f[:, 0]), 1.0, fc.reference_bandwidth(f[:, 2])])
        with pytest.warns(UserWarning, match="index 1 is degenerate"):
            model = fit_additive(f, y, bws, np.eye(3))
        kept = [0, 2]
        sweeps, partials = _reference_backfit(f[:, kept], y, bws[kept])
        assert model.sweeps == sweeps
        assert len(model.train_x) == 2
        for row, expected in zip(model.partial_residuals, partials, strict=True):
            assert np.array_equal(row, expected)

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), st.floats(0.05, 2.0), st.booleans())
    def test_training_weights_skip_a_shift_that_changes_no_bit(self, seed, m, scale, tied):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(m)
        if tied:  # duplicates put several -0 exponents in a row
            x = np.round(x, 1)
        if np.ptp(x) == 0.0:
            return
        h = scale * fc.reference_bandwidth(x)
        floor = fc._nw_exponent_floor(m)
        skipped = fc._nw_weights(x, x, h, floor, queries_are_train=True)
        shifted = fc._nw_weights(x, x, h, floor)
        assert skipped.tobytes() == shifted.tobytes()


class TestFarQueries:
    """Queries past an end of the training points, up to where every squared distance overflows."""

    def test_prediction_past_the_overflow_is_the_one_short_of_it(self):
        rng = np.random.default_rng(26)
        f = rng.standard_normal((20, 2))
        model = nlpc_fit(f, f[:, 0] ** 2 + 0.1 * rng.standard_normal(20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near, far = predict(model, np.array([[1e150, 0.0], [1e200, 0.0]]))
            below, above = predict(model, np.array([[-1e150, 0.0], [-1e300, 0.0]]))
        assert np.isfinite(far) and far == near
        assert np.isfinite(above) and above == below

    def test_query_past_an_end_weighs_that_end_however_far(self):
        # past about 2^53 spreads every distance q - x rounds alike; the row
        # must still be the Gaussian limit that a query at 1e6 already reaches
        rng = np.random.default_rng(1)
        f = rng.standard_normal((20, 2))
        model = nlpc_fit(f, f[:, 0] ** 2 + 0.1 * rng.standard_normal(20))
        for sign in (1.0, -1.0):
            q = np.array([[1e6, 0.0], [1e17, 0.0], [1e150, 0.0]]) * [sign, 1.0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                near, far, farther = predict(model, q)
            assert far == near and farther == near

    def test_query_past_an_end_keeps_the_weights_above_the_floor(self):
        # past the largest point by reach r, the neighbour 1 below it has the
        # shifted exponent -(1 + 2r) / 2: above the floor at r = 25, below it at 40
        x = np.array([0.0, 1.0, 2.0])
        floor = fc._nw_exponent_floor(3)
        assert -(1 + 2 * 25) / 2 > floor > -(1 + 2 * 40) / 2
        w = fc._nw_weights(x, np.array([27.0, 42.0, -25.0]), 1.0, floor)
        shifted = -0.5 * ((27.0 - x) ** 2 - 25.0**2)
        near = np.where(shifted >= floor, np.exp(shifted), 0.0)
        assert w[0, 1] > 0
        assert np.allclose(w[0], near / near.sum(), rtol=1e-12, atol=0)
        assert np.array_equal(w[1], [0.0, 0.0, 1.0])
        assert np.array_equal(w[2], w[0][::-1])

    def test_far_row_weighs_the_nearest_points_alone(self):
        # points spread widely enough that the distances from 1e200 differ
        x = np.array([-1e199, 0.0, 5e199, 6e199])
        floor = fc._nw_exponent_floor(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = fc._nw_weights(x, np.array([1e200, -1e200, 0.5]), 1.0, floor)
        assert np.array_equal(w[0], [0.0, 0.0, 0.0, 1.0])
        assert np.array_equal(w[1], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(w[2], [0.0, 1.0, 0.0, 0.0])

    def test_banded_fit_predicts_finite_far_out(self):
        # the study's held-out fit: 0.1x the reference bandwidth at T = 500
        rng = np.random.default_rng(27)
        f = rng.standard_normal((500, 2))
        y = f[:, 0] ** 2 + np.sin(f[:, 1]) + 0.2 * rng.standard_normal(500)
        bws = 0.1 * np.array([fc.reference_bandwidth(f[:, j]) for j in range(2)])
        model = fit_additive(f, y, bws, np.eye(2))
        assert all(isinstance(w, fc._BandedWeights) for w in _fit_operators(f, bws))
        q = rng.normal(0.0, 1.0, (100, 2))
        q[[0, 1], 0] = 1e150, 1e200
        q[1, 1] = q[0, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = predict(model, q)
        assert np.all(np.isfinite(out))
        assert out[1] == out[0]


class TestPredict:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_blocked_prediction_is_one_dense_product(self, n):
        # a model with banded fits: 0.1x the reference bandwidth at T = 500
        rng = np.random.default_rng(29)
        f = rng.standard_normal((500, 2))
        y = 0.4 * f[:, 0] ** 2 + np.sin(f[:, 1]) + 0.2 * rng.standard_normal(500)
        bws = 0.1 * np.array([fc.reference_bandwidth(f[:, j]) for j in range(2)])
        model = fit_additive(f, y, bws, np.eye(2))
        assert all(isinstance(w, fc._BandedWeights) for w in _fit_operators(f, bws))
        q = rng.normal(0.0, 1.5, (n, 2))
        expected = np.full(n, model.intercept)
        floor = fc._nw_exponent_floor(500)
        for j in range(2):
            w = fc._nw_weights(model.train_x[j], q[:, j], model.bandwidths[j], floor)
            expected += w @ model.partial_residuals[j]
        # a block of one row takes another BLAS kernel than the whole
        # product, so the match is not bitwise at every n
        assert np.allclose(predict(model, q), expected, rtol=0, atol=1e-12)

    def test_intercept_only_when_smoothers_flat(self):
        model = nlpc_fit(np.arange(6.0)[:, None], np.full(6, 2.0))
        assert predict(model, np.array([[9.9]]))[0] == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError, match="n x K"):
            predict(model, np.array([9.9]))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite input to predict"):
                predict(model, np.array([[1.0], [bad]]))

    def test_projection_through_directions(self):
        # direction (1, 0): second factor coordinate is ignored
        rng = np.random.default_rng(3)
        f = rng.standard_normal((30, 2))
        y = np.sin(f[:, 0])
        bws = np.array([fc.reference_bandwidth(f[:, 0])])
        model = fit_additive(f[:, :1], y, bws, np.array([[1.0], [0.0]]))
        a, b = predict(model, np.array([[0.5, -3.0], [0.5, 4.0]]))
        assert a == b


class TestBasisInvariance:
    """Forecasts do not depend on the basis of the factor space.

    PC factors are fit only up to a rotation, so fitting on ``(F Q, Q' phi)``
    must reproduce the forecasts of ``(F, phi)``: the indices ``F phi`` are
    the same numbers.  ``nlpc`` is left out, since it is additive in the
    factor coordinates themselves, so a rotation changes its model.
    """

    def data(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((200, 4))
        y = 0.4 * f[:, 0] ** 2 + np.sin(f[:, 1] + f[:, 2]) + 0.2 * rng.standard_normal(200)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        return f, y, q, rng.standard_normal((50, 4))

    @pytest.mark.parametrize("scale", [0.1, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kernel_methods(self, seed, scale):
        f, y, q, f_new = self.data(seed)
        for method, (_, phi) in sdr.fit_indices(sdr.KERNEL_METHODS, f, y, 50, 2).items():
            pred = predict(fit_forecast_model(method, f, y, phi, scale), f_new)
            rotated = fit_forecast_model(method, f @ q, y, q.T @ phi, scale)
            moved = predict(rotated, f_new @ q) - pred
            assert np.linalg.norm(moved) <= 1e-12 * np.linalg.norm(pred), method

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pc(self, seed):
        f, y, q, f_new = self.data(seed)
        pred = predict(fit_forecast_model("pc", f, y, None, 1.0), f_new)
        moved = predict(fit_forecast_model("pc", f @ q, y, None, 1.0), f_new @ q) - pred
        assert np.linalg.norm(moved) <= 1e-12 * np.linalg.norm(pred)


def _per_index_prediction(model, f_new):
    """The additive prediction written out one index at a time.

    Each index's 2-D :func:`_nw_weights` rows times its partial residuals are
    added onto the intercept in index order.  The rows are taken in the same
    ``NW_BLOCK_ROWS`` query blocks as :func:`predict`: a block's product goes
    through a BLAS kernel chosen by its row count (one row is a dot product),
    so only the same blocks give the same bits.
    """
    idx = f_new @ model.directions
    out = np.full(f_new.shape[0], model.intercept)
    floor = fc._nw_exponent_floor(model.train_x.shape[1])
    for x, residuals, h, q in zip(model.train_x, model.partial_residuals, model.bandwidths, idx.T):
        for r0 in range(0, q.shape[0], fc.NW_BLOCK_ROWS):
            rows = slice(r0, r0 + fc.NW_BLOCK_ROWS)
            out[rows] += fc._nw_weights(x, q[rows], h, floor) @ residuals
    return out


class TestStackedIndices:
    """Every index of an additive model weighed in one stacked pass, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_idx=st.sampled_from([1, 2, 3, 8]),
        n=st.sampled_from([1, 63, 64, 65, 200]),
        banded=st.booleans(),
        tied=st.booleans(),
        far_share=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_stacked_predictions_are_the_per_index_rows(
        self, seed, n_idx, n, banded, tied, far_share
    ):
        rng = np.random.default_rng(seed)
        # the study's held-out fit (0.1x the reference rule at T = 500) bands
        # every index; the rolling evaluator's (scale 1 at 119 points) is dense
        m, scale = (500, 0.1) if banded else (int(rng.integers(3, 150)), 1.0)
        f = rng.standard_normal((m, n_idx))
        if tied:  # duplicates, also at the ends
            f = np.round(f, 1)
        f[:2] = [[-2.5], [2.5]]  # no index is constant
        y = np.sin(f[:, 0]) + 0.3 * rng.standard_normal(m)
        bws = scale * fc.reference_bandwidth(f)
        assert all(isinstance(fc._fit_weights(x, h), fc._BandedWeights) == banded
                   for x, h in zip(f.T, bws))
        with mock.patch.object(fc, "BACKFIT_MAX_SWEEPS", 2):
            model = fit_additive(f, y, bws, np.eye(n_idx))
        q = rng.normal(0.0, 1.5, (n, n_idx))
        # queries past an end, in some indices' columns only: half of them
        # near where an end's neighbours fall below the floor, half out to and
        # beyond where every squared distance overflows (about 1e154 bandwidths)
        rows, cols = np.nonzero((rng.random((n, n_idx)) < far_share) & (rng.random(n_idx) < 0.5))
        near = rng.random(rows.size) < 0.5
        reach = 10.0 ** np.where(near, rng.uniform(-2.0, 5.0, rows.size),
                                 rng.uniform(5.0, 300.0, rows.size))
        above = rng.random(rows.size) < 0.5
        q[rows, cols] = np.where(above, f.max(axis=0)[cols] + reach, f.min(axis=0)[cols] - reach)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = predict(model, q)
            expected = _per_index_prediction(model, q)
        assert out.tobytes() == expected.tobytes()

    def test_stacked_fit_weights_are_each_index_weights(self):
        # T = 500 with narrow (banded) and wide (dense) indices and a constant
        # one, which leaves the model
        rng = np.random.default_rng(30)
        f = rng.standard_normal((500, 5))
        f[:, 2] = 0.25
        y = np.sin(f[:, 0]) + f[:, 1] * f[:, 3] + 0.2 * rng.standard_normal(500)
        bws = np.array([0.1, 1.0, 0.0, 1.0, 0.1]) * fc.reference_bandwidth(f)
        bws[2] = 1.0
        kept = [0, 1, 3, 4]
        seen = []
        backfit = fc._backfit

        def recorded(weights, centered):
            seen.append(weights)
            return backfit(weights, centered)

        with mock.patch.object(fc, "_backfit", recorded), \
                pytest.warns(UserWarning, match="index 2 is degenerate"):
            model = fit_additive(f, y, bws, np.eye(5))
        (weights,) = seen
        floor = fc._nw_exponent_floor(500)
        assert [isinstance(w, fc._BandedWeights) for w in weights] == [True, False, False, True]
        for w, j in zip(weights, kept, strict=True):
            x = f[:, j]
            if isinstance(w, fc._BandedWeights):
                alone = fc._fit_weights(x, bws[j])
                for name in ("order", "cols", "weights"):
                    assert getattr(w, name).tobytes() == getattr(alone, name).tobytes()
            else:
                alone = fc._nw_weights(x, x, bws[j], floor, queries_are_train=True)
                assert w.tobytes() == alone.tobytes()
        # the sweeps take the components in index order
        sweeps, partials = _reference_backfit(f[:, kept], y, bws[kept])
        assert model.sweeps == sweeps > 2
        for row, expected in zip(model.partial_residuals, partials, strict=True):
            assert row.tobytes() == expected.tobytes()
        assert np.array_equal(model.train_x, f[:, kept].T)
        assert np.array_equal(model.bandwidths, bws[kept])

    def test_every_index_constant_predicts_the_intercept(self):
        f = np.column_stack([np.full(20, 1.5), np.full(20, -3.0)])
        y = np.random.default_rng(31).standard_normal(20)
        with pytest.warns(UserWarning, match="degenerate") as record:
            model = nlpc_fit(f, y)
        assert [str(w.message)[:7] for w in record] == ["index 0", "index 1"]
        assert model.train_x.shape == model.partial_residuals.shape == (0, 20)
        assert model.sweeps == 1 and model.converged
        q = np.array([[1.5, -3.0], [1e200, 0.0], [-7.0, 1e-300]])
        assert np.array_equal(predict(model, q), np.full(3, y.mean()))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_reference_bandwidths_are_each_columns_bits(self, order):
        f = np.asarray(np.random.default_rng(32).standard_normal((119, 8)) * 3.0, order=order)
        each = [fc.reference_bandwidth(f[:, j]) for j in range(8)]
        assert fc.reference_bandwidth(f).tobytes() == np.array(each).tobytes()


class TestPcBaseline:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((40, 3))
        y = 1.5 + f @ np.array([2.0, -1.0, 0.5])
        model = fit_pc_baseline(f, y)
        assert model.intercept == pytest.approx(1.5, abs=1e-10)
        assert np.allclose(model.coefficients, [2.0, -1.0, 0.5], atol=1e-10)

    def test_two_point_line(self):
        f = np.array([[0.0], [1.0]])
        y = np.array([1.0, 3.0])
        model = fit_pc_baseline(f, y)
        assert predict(model, np.array([[2.0]]))[0] == pytest.approx(5.0, abs=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((25, 4))
        y = rng.standard_normal(25)
        model = fit_pc_baseline(f, y)
        design = np.column_stack([np.ones(25), f])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        assert model.intercept == pytest.approx(beta[0], rel=1e-10)
        assert np.allclose(model.coefficients, beta[1:], rtol=1e-10)

    @pytest.mark.parametrize("t_len", [1, 2, 3])
    def test_needs_more_observations_than_factors(self, t_len):
        f = np.arange(3.0 * t_len).reshape(t_len, 3)
        with pytest.raises(ValueError, match=f"needs T > K, got T={t_len}, K=3"):
            fit_pc_baseline(f, np.zeros(t_len))

    def test_rank_deficiency(self):
        f = np.ones((10, 2))
        with pytest.raises(ValueError, match="rank-deficient"):
            fit_pc_baseline(f, np.zeros(10))

    def test_additive_mode_tag(self):
        rng = np.random.default_rng(6)
        model = fit_forecast_model(
            "nlpc", rng.standard_normal((20, 2)), rng.standard_normal(20), None, 1.0
        )
        assert model.kind == "additive"
        assert np.array_equal(model.directions, np.eye(2))

    def test_unknown_method_is_named(self):
        rng = np.random.default_rng(6)
        f, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
        message = re.escape(f"unknown method 'bogus'; expected one of {fc.METHODS}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_forecast_model("bogus", f, y, None, 1.0)

    @pytest.mark.parametrize("method", sdr.KERNEL_METHODS)
    def test_kernel_method_needs_its_directions(self, method):
        rng = np.random.default_rng(6)
        f, y = rng.standard_normal((20, 2)), rng.standard_normal(20)
        with pytest.raises(ValueError, match=f"^method '{method}' needs its directions phi"):
            fit_forecast_model(method, f, y, None, 1.0)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_constant_factor_fixed_at_zero_at_any_scale(self, scale):
        # the constant column's scaled reference bandwidth is 0 and goes unused
        rng = np.random.default_rng(19)
        f = np.column_stack([rng.standard_normal(30), np.ones(30)])
        with pytest.warns(UserWarning, match="degenerate"):
            model = fit_forecast_model("nlpc", f, np.sin(f[:, 0]), None, scale)
        assert len(model.train_x) == 1
        assert np.array_equal(model.directions, [[1.0], [0.0]])
        assert model.bandwidths[0] == scale * fc.reference_bandwidth(f[:, 0])


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU: rolling_evaluate computes every origin in this process,
    where a test's patches and recordings live."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def make_panel(x, y):
    p, t_len = x.shape
    return PanelData(
        x=x,
        series_names=tuple(f"s{i}" for i in range(p)),
        time_labels=tuple(f"t{i:04d}" for i in range(t_len)),
        y=y,
    )


def linear_panel(p=2, t_len=60, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((p, t_len))
    y = 3.0 + x.sum(axis=0)
    return make_panel(x, y)


class TestRollingEvaluate:
    def test_linear_target_is_forecast_perfectly_by_pc(self):
        panel = linear_panel()
        config = RollingConfig(window=30, horizon=1, method="pc", k=2, n_eval=10)
        report = rolling_evaluate(panel, config)
        assert report.mse < 1e-16
        assert report.r2_oos > 1 - 1e-10
        assert report.rmse_vs_pc == 1.0

    def test_mean_forecast_stub_scores_zero(self, monkeypatch, one_cpu):
        # a stub that always forecasts the training-window mean has R^2 = 0
        from suffcast.factor_analysis import select_and_fit_factors
        from suffcast.forecaster import ForecastModel

        def stub(x_win, targets_train, config):
            model = ForecastModel(
                kind="linear", intercept=float(targets_train.mean()), coefficients=np.zeros(1)
            )
            return model, select_and_fit_factors(x_win, 1, 1)[1]

        monkeypatch.setattr(fc, "_fit_window_model", stub)
        rng = np.random.default_rng(8)
        panel = make_panel(rng.standard_normal((2, 50)), rng.standard_normal(50))
        report = rolling_evaluate(panel, RollingConfig(window=20, method="dr", k=1, n_eval=8))
        assert report.r2_oos == pytest.approx(0.0, abs=1e-12)

    def test_two_origin_scalar_oracle(self):
        # independent replication of the pipeline for a single-series panel
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 20))
        y = 0.8 * x[0] + 0.1 * rng.standard_normal(20)
        panel = make_panel(x, y)
        config = RollingConfig(window=15, horizon=1, method="pc", k=1, n_eval=2)
        report = rolling_evaluate(panel, config)
        errors = []
        for t in (18, 19):
            window = x[0, t - 14 : t + 1]
            z = (window - window.mean()) / window.std(ddof=1)
            f = np.sqrt(15) * z / np.linalg.norm(z)
            f = f * np.sign(f[np.abs(f).argmax()])
            design = np.column_stack([np.ones(14), f[:14]])
            beta = np.linalg.solve(design.T @ design, design.T @ y[t - 14 : t])
            forecast = beta[0] + beta[1] * f[-1]
            errors.append((y[t] - forecast) ** 2)
        assert report.mse == pytest.approx(np.mean(errors), rel=1e-10)

    def test_leakage_freedom(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 60))
        y = rng.standard_normal(60)
        panel = make_panel(x, y)
        config = RollingConfig(window=30, horizon=2, method="dr", k=2, l=1, n_eval=1)
        report = rolling_evaluate(panel, config)
        origin = report.origins[0]
        x2, y2 = x.copy(), y.copy()
        x2[:, origin + 1 :] += 77.0
        y2[origin:] -= 13.0  # y[t] is observed after time t, so it is future
        report2 = rolling_evaluate(make_panel(x2, y2), config)
        assert report.forecasts[0] == report2.forecasts[0]

    def test_r2_mse_consistency(self):
        rng = np.random.default_rng(11)
        panel = make_panel(rng.standard_normal((2, 70)), rng.standard_normal(70))
        report = rolling_evaluate(panel, RollingConfig(window=25, method="sir", k=2, l=1, n_eval=12))
        denom = np.sum((report.realized - report.benchmarks) ** 2)
        assert report.r2_oos == pytest.approx(1 - report.mse * report.n_eval / denom, rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        panel = make_panel(rng.standard_normal((3, 60)), rng.standard_normal(60))
        config = RollingConfig(window=30, method="ens", k=2, l=1, n_eval=5)
        a = rolling_evaluate(panel, config)
        b = rolling_evaluate(panel, config)
        assert np.array_equal(a.forecasts, b.forecasts)
        assert a.mse == b.mse

    def test_insufficient_data(self):
        panel = linear_panel(t_len=40)
        with pytest.raises(ValueError, match="insufficient data"):
            rolling_evaluate(panel, RollingConfig(window=60, method="pc", k=1))

    @pytest.mark.parametrize("method,k,l", [("nlpc", 3, 1), ("ens", "auto", "auto")])
    def test_worker_processes_change_no_result(self, monkeypatch, one_cpu, method, k, l):
        # one chunk of origins in-process on one CPU, two in two workers on two
        rng = np.random.default_rng(14)
        f = rng.standard_normal((100, 3))
        x = rng.uniform(-1, 2, (10, 3)) @ f.T + 0.3 * rng.standard_normal((10, 100))
        panel = make_panel(x, f[:, 0] + np.sin(f[:, 1]) + 0.1 * rng.standard_normal(100))
        config = RollingConfig(window=40, method=method, k=k, l=l, n_eval=45)
        serial = rolling_evaluate(panel, config)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parallel = rolling_evaluate(panel, config)
        for name in ("origins", "forecasts", "baseline", "selected_k", "selected_l"):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name
        assert serial.backfit_not_converged == parallel.backfit_not_converged
        assert serial.selected_l.max() > 1

    def test_pc_forecast_is_its_baseline_with_no_index(self, monkeypatch, one_cpu):
        # the baseline is fit at every origin, for pc too: in-process on one
        # CPU and in two workers on two, its rows are the forecast's bits
        rng = np.random.default_rng(14)
        f = rng.standard_normal((100, 3))
        x = rng.uniform(-1, 2, (10, 3)) @ f.T + 0.3 * rng.standard_normal((10, 100))
        panel = make_panel(x, f[:, 0] + np.sin(f[:, 1]) + 0.1 * rng.standard_normal(100))
        config = RollingConfig(window=40, method="pc", k=3, n_eval=45)
        reports = [rolling_evaluate(panel, config)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        reports.append(rolling_evaluate(panel, config))
        for report in reports:
            assert report.forecasts.tobytes() == report.baseline.tobytes()
            assert report.selected_l.tolist() == [0] * 45
            assert report.rmse_vs_pc == 1.0
        assert reports[0].forecasts.tobytes() == reports[1].forecasts.tobytes()

    @pytest.mark.parametrize("method", ["dr", "nlpc", "pc"])
    def test_constant_training_target_names_its_origin(self, method):
        # y[10:29] is every training target of origin 29 (window 20, h = 1)
        # and of no other; a constant target leaves the MSE ratio 0 / 0
        rng = np.random.default_rng(22)
        y = rng.standard_normal(60)
        y[10:29] = 0.5
        panel = make_panel(rng.standard_normal((3, 60)), y)
        config = RollingConfig(window=20, method=method, k=2, n_eval=40)
        with pytest.raises(DataError) as raised:
            rolling_evaluate(panel, config)
        assert str(raised.value) == (
            "forecast origin 29: the target is constant over the training window"
        )
        y[10] = 0.25
        rolling_evaluate(make_panel(panel.x, y), config)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_earliest_failing_origin_raised(self, monkeypatch, cpus):
        # on four CPUs, four chunks of ten origins, 20..59; series s1 is flat
        # over the one window of origin 33, in the second chunk, and of origin
        # 55, in the last
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 60))
        x[1, 22:34] = 2.0
        x[1, 44:56] = -1.0
        panel = make_panel(x, rng.standard_normal(60))
        config = RollingConfig(window=12, method="pc", k=1, n_eval=40)
        with pytest.raises(DataError) as raised:
            rolling_evaluate(panel, config)
        assert str(raised.value) == "forecast origin 33: zero-variance series over window: 's1'"

    def test_origin_attached_to_errors(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 40))
        x[:, 28:] = 4.2  # constant tail spans the last window, breaking standardization
        panel = make_panel(x, rng.standard_normal(40))
        with pytest.raises(ValueError, match="forecast origin"):
            rolling_evaluate(
                panel, RollingConfig(window=12, method="pc", k=1, n_eval=1)
            )

    def test_origin_attached_to_multi_argument_errors(self, monkeypatch):
        class FitFailure(RuntimeError):
            def __init__(self, stage, code):
                super().__init__(f"{stage} failed with code {code}")
                self.code = code

        def failing(x_win, targets_train, config):
            raise FitFailure("kernel", 7)

        monkeypatch.setattr(fc, "_fit_window_model", failing)
        panel = linear_panel()
        with pytest.raises(FitFailure, match="forecast origin 59: kernel failed") as info:
            rolling_evaluate(panel, RollingConfig(window=30, method="dr", k=1, n_eval=1))
        assert info.value.code == 7

    def test_auto_selection_paths(self):
        rng = np.random.default_rng(14)
        f = rng.standard_normal((80, 2))
        b = rng.uniform(-1, 2, (20, 2))
        x = b @ f.T + 0.2 * rng.standard_normal((20, 80))
        y = f[:, 0] + f[:, 1] ** 2 + 0.1 * rng.standard_normal(80)
        panel = make_panel(x, y)
        config = RollingConfig(window=50, method="dr", k="auto", l="auto", n_eval=3)
        report = rolling_evaluate(panel, config)
        assert np.all(report.selected_k >= 1)
        assert np.all(report.selected_l >= 1)

    def test_counts_capped_backfits(self, monkeypatch, one_cpu):
        rng = np.random.default_rng(17)
        panel = make_panel(rng.standard_normal((3, 50)), rng.standard_normal(50))
        config = RollingConfig(window=25, method="nlpc", k=2, n_eval=3)
        assert rolling_evaluate(panel, config).backfit_not_converged == 0
        monkeypatch.setattr(fc, "BACKFIT_MAX_SWEEPS", 1)
        assert rolling_evaluate(panel, config).backfit_not_converged == 3

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            RollingConfig(method="zzz")

    def test_nlpc_honours_bandwidth_scale(self, monkeypatch, one_cpu):
        models = []

        def recording(x_win, targets_train, config):
            out = fit_window_model(x_win, targets_train, config)
            models.append(out[0])
            return out

        fit_window_model = fc._fit_window_model
        monkeypatch.setattr(fc, "_fit_window_model", recording)
        rng = np.random.default_rng(18)
        panel = make_panel(rng.standard_normal((3, 50)), rng.standard_normal(50))
        rolling_evaluate(panel, RollingConfig(window=25, method="nlpc", k=2, n_eval=3))
        assert len(models) == 3
        for model in models:
            assert model.kind == "additive"
            assert np.array_equal(model.directions, np.eye(2))
            for x, h in zip(model.train_x, model.bandwidths, strict=True):
                assert h == 1.0 * fc.reference_bandwidth(x)

    def test_integer_l_capped_at_selected_k(self):
        # one strong factor: with k="auto" the selected K falls below l=3
        rng = np.random.default_rng(21)
        f = rng.standard_normal(80)
        x = rng.uniform(1.0, 2.0, (30, 1)) * f + 0.3 * rng.standard_normal((30, 80))
        panel = make_panel(x, f + 0.1 * rng.standard_normal(80))
        config = RollingConfig(window=50, method="dr", k="auto", l=3, n_eval=4)
        report = rolling_evaluate(panel, config)
        assert np.all(report.selected_k < 3)
        assert np.array_equal(report.selected_l, report.selected_k)

    def test_window_standardized_like_standardize(self, monkeypatch, one_cpu):
        windows = []

        def recording(x_win, targets_train, config):
            windows.append(x_win)
            return fit_window_model(x_win, targets_train, config)

        fit_window_model = fc._fit_window_model
        monkeypatch.setattr(fc, "_fit_window_model", recording)
        rng = np.random.default_rng(19)
        x = rng.standard_normal((4, 45)) * rng.uniform(0.5, 3.0, (4, 1)) + 2.0
        panel = make_panel(x, rng.standard_normal(45))
        report = rolling_evaluate(panel, RollingConfig(window=20, method="pc", k=2, n_eval=5))
        assert len(windows) == 5
        for t, x_win in zip(report.origins, windows):
            sub = panel.x[:, t - 20 + 1 : t + 1]
            expected = (sub - sub.mean(axis=1)[:, None]) / sub.std(axis=1, ddof=1)[:, None]
            assert np.array_equal(x_win, expected)

    def test_too_few_slices_rejected(self):
        # third moments need two of each window's training points a slice
        for method in ("tm", "ens"):
            with pytest.raises(ValueError, match=rf"window - horizon = 19 must be >= 2 \* "
                                                 rf"N_SLICES = 20 for tm and ens"):
                RollingConfig(method=method, window=21, horizon=2)
            RollingConfig(method=method, window=21)
        # SIR's kernel has rank at most N_SLICES - 1
        with pytest.raises(ValueError, match="l=10 must be <= N_SLICES - 1 = 9 for sir"):
            RollingConfig(method="sir", k=10, l=10)
        RollingConfig(method="sir", k=10, l=9)
        # l auto reads the kernel's spectrum, the other methods' ranks are not
        # bounded, and the other methods read no third moments
        RollingConfig(method="sir", k=10, l="auto")
        RollingConfig(method="dr", k=10, l=10, window=20)
        RollingConfig(method="pc", window=11)
        RollingConfig(method="nlpc", window=11)

    def test_integer_k_below_the_training_length(self):
        # the PC baseline fits every window's training points on k factors;
        # k="auto" selects at most K_MAX
        with pytest.raises(ValueError, match="k=39 must be < window - horizon = 39"):
            RollingConfig(window=40, horizon=1, k=39)
        RollingConfig(window=40, horizon=1, k=38)
        RollingConfig(window=40, horizon=1, k="auto")

    def test_flat_series_in_window_is_named(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((3, 40))
        x[1, 28:] = 4.0  # only series s1 is flat over the last window
        panel = make_panel(x, rng.standard_normal(40))
        with pytest.raises(
            ValueError, match="forecast origin 39: zero-variance series over window: 's1'"
        ):
            rolling_evaluate(panel, RollingConfig(window=12, method="pc", k=1, n_eval=1))


def test_save_eval_report(tmp_path):
    import json

    from suffcast.cli import main
    from test_panel_data import save_csv

    save_csv(linear_panel(), tmp_path / "panel.csv")
    assert main([
        "forecast", "--input", str(tmp_path / "panel.csv"), "--target-column", "target",
        "--window", "30", "--horizon", "1", "--method", "pc", "--k", "2", "--n-eval", "4",
        "--out-dir", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["rmse_vs_pc"] == 1.0
    assert summary["n_eval"] == 4
    assert summary["backfit_not_converged"] == 0
    lines = (tmp_path / "origins.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 origins

