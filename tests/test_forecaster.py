import numpy as np
import pytest

from suffcast import (
    PanelData,
    RollingConfig,
    fit_additive,
    fit_forecast_model,
    fit_pc_baseline,
    predict,
    rolling_evaluate,
    standardize,
)
from suffcast import forecaster as fc


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
        assert not model.smoothers[1].active
        assert np.isfinite(predict(model, np.array([[0.3, 1.0]]))).all()

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
        w = fc._nw_weights(x, x, h)
        ref = _reference_weights(x, x, h)
        floored = _reference_exponents(x, x, h) < fc.NW_EXPONENT_FLOOR
        # the fixture reaches both numpy's underflow range and the subnormals
        assert floored.mean() > 0.3
        assert np.any((ref > 0) & (ref < np.finfo(float).tiny))
        assert not np.any((w > 0) & (w < np.finfo(float).tiny))
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.array_equal(w[~floored], ref[~floored])
        assert np.all(w[floored] == 0.0)
        assert np.all(ref[floored] < np.exp(fc.NW_EXPONENT_FLOOR))

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
        for j in range(2):
            expected = centered - (total - fitted[j])
            assert np.array_equal(model.smoothers[j].partial_residuals, expected)


class TestPredict:
    def test_intercept_only_when_smoothers_flat(self):
        model = nlpc_fit(np.arange(6.0)[:, None], np.full(6, 2.0))
        assert predict(model, np.array([[9.9]]))[0] == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ValueError, match="n x K"):
            predict(model, np.array([9.9]))

    def test_projection_through_directions(self):
        # direction (1, 0): second factor coordinate is ignored
        rng = np.random.default_rng(3)
        f = rng.standard_normal((30, 2))
        y = np.sin(f[:, 0])
        bws = np.array([fc.reference_bandwidth(f[:, 0])])
        model = fit_additive(f[:, :1], y, bws, np.array([[1.0], [0.0]]))
        a, b = predict(model, np.array([[0.5, -3.0], [0.5, 4.0]]))
        assert a == b


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

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_constant_factor_fixed_at_zero_at_any_scale(self, scale):
        # the constant column's scaled reference bandwidth is 0 and goes unused
        rng = np.random.default_rng(19)
        f = np.column_stack([rng.standard_normal(30), np.ones(30)])
        with pytest.warns(UserWarning, match="degenerate"):
            model = fit_forecast_model("nlpc", f, np.sin(f[:, 0]), None, scale)
        assert not model.smoothers[1].active
        assert model.smoothers[0].bandwidth == scale * fc.reference_bandwidth(f[:, 0])


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

    def test_mean_forecast_stub_scores_zero(self, monkeypatch):
        # a stub that always forecasts the training-window mean has R^2 = 0
        from suffcast.factor_analysis import select_and_fit_factors
        from suffcast.forecaster import ForecastModel

        def stub(x_win, targets_train, config):
            model = ForecastModel(
                kind="linear", intercept=float(targets_train.mean()), coefficients=np.zeros(1)
            )
            return model, select_and_fit_factors(x_win, 1, 1)[1], 0

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
        config = RollingConfig(window=30, horizon=2, method="dr", k=2, l=1, h_slices=4, n_eval=1)
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
        report = rolling_evaluate(panel, RollingConfig(window=25, method="sir", k=2, l=1, h_slices=4, n_eval=12))
        denom = np.sum((report.realized - report.benchmarks) ** 2)
        assert report.r2_oos == pytest.approx(1 - report.mse * report.n_eval / denom, rel=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(12)
        panel = make_panel(rng.standard_normal((3, 60)), rng.standard_normal(60))
        config = RollingConfig(window=30, method="ens", k=2, l=1, h_slices=4, n_eval=5)
        a = rolling_evaluate(panel, config)
        b = rolling_evaluate(panel, config)
        assert np.array_equal(a.forecasts, b.forecasts)
        assert a.mse == b.mse

    def test_insufficient_data(self):
        panel = linear_panel(t_len=40)
        with pytest.raises(ValueError, match="insufficient data"):
            rolling_evaluate(panel, RollingConfig(window=60, method="pc", k=1))

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
        config = RollingConfig(window=50, method="dr", k="auto", l="auto", h_slices=5, n_eval=3, k_max=4)
        report = rolling_evaluate(panel, config)
        assert np.all(report.selected_k >= 1)
        assert np.all(report.selected_l >= 1)

    def test_counts_capped_backfits(self, monkeypatch):
        rng = np.random.default_rng(17)
        panel = make_panel(rng.standard_normal((3, 50)), rng.standard_normal(50))
        config = RollingConfig(window=25, method="nlpc", k=2, n_eval=3)
        assert rolling_evaluate(panel, config).backfit_not_converged == 0
        monkeypatch.setattr(fc, "BACKFIT_MAX_SWEEPS", 1)
        assert rolling_evaluate(panel, config).backfit_not_converged == 3

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            RollingConfig(method="zzz")

    def test_nlpc_honours_bandwidth_scale(self, monkeypatch):
        models = []

        def recording(x_win, targets_train, config):
            out = fit_window_model(x_win, targets_train, config)
            models.append(out[0])
            return out

        fit_window_model = fc._fit_window_model
        monkeypatch.setattr(fc, "_fit_window_model", recording)
        rng = np.random.default_rng(18)
        panel = make_panel(rng.standard_normal((3, 50)), rng.standard_normal(50))
        config = RollingConfig(window=25, method="nlpc", k=2, n_eval=3, bandwidth_scale=0.5)
        rolling_evaluate(panel, config)
        assert len(models) == 3
        for model in models:
            assert model.kind == "additive"
            assert np.array_equal(model.directions, np.eye(2))
            for smoother in model.smoothers:
                assert smoother.bandwidth == 0.5 * fc.reference_bandwidth(smoother.train_x)

    def test_window_standardized_like_standardize(self, monkeypatch):
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
            lo = t - 20 + 1
            sub = make_panel(x[:, lo : t + 1], panel.y[lo : t + 1])
            assert np.array_equal(x_win, standardize(sub).x)

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


@pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
def test_configs_reject_bad_bandwidth_scale(scale):
    from suffcast import StudyConfig

    with pytest.raises(ValueError, match="bandwidth_scale must be finite and > 0"):
        RollingConfig(bandwidth_scale=scale)
    with pytest.raises(ValueError, match="bandwidth_scale must be finite and > 0"):
        StudyConfig(bandwidth_scale=scale)
