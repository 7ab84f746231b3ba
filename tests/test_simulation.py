import numpy as np
import pytest

from suffcast import (
    DgpSpec,
    StudyConfig,
    identifiability_rotation,
    monte_carlo_study,
    sample_dgp,
    subspace_r2,
)
from suffcast import cli
from suffcast.simulation import link_function
from suffcast._eigen import sym_eig_desc


class TestLinks:
    def test_scalar_references(self):
        one = np.array([1.0])
        zero = np.array([0.0])
        assert link_function("I", one, zero)[0] == pytest.approx(0.4)
        assert link_function("II", zero, zero)[0] == 0.0
        assert link_function("III", one, np.array([4.0]))[0] == pytest.approx(0.4 + 2.0)
        assert link_function("IV", np.array([2.0]), np.array([3.0]))[0] == pytest.approx(8.0)
        # independent scalar math check on a random point
        v1, v2 = 0.7, -1.3
        assert link_function("I", np.array([v1]), np.array([v2]))[0] == pytest.approx(
            0.4 * v1**2 + 3 * np.sin(v2 / 4)
        )

    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown link"):
            link_function("V", np.zeros(1), np.zeros(1))


class TestSampleDgp:
    def test_deterministic(self):
        spec = DgpSpec(p=20, t_len=30, seed=5)
        a = sample_dgp(spec, 3)
        b = sample_dgp(spec, 3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.factors, b.factors)

    def test_replicates_differ(self):
        spec = DgpSpec(p=20, t_len=30, seed=5)
        assert not np.array_equal(sample_dgp(spec, 0).x, sample_dgp(spec, 1).x)

    def test_sigma_zero_gives_exact_link(self):
        spec = DgpSpec(p=10, t_len=25, link="IV", sigma=0.0, seed=6)
        draw = sample_dgp(spec, 0)
        v1 = draw.factors @ spec.phi1
        v2 = draw.factors @ spec.phi2
        assert np.array_equal(draw.y, link_function("IV", v1, v2))

    def test_panel_composition(self):
        spec = DgpSpec(p=15, t_len=40, seed=7)
        draw = sample_dgp(spec, 2)
        u = draw.x - draw.loadings @ draw.factors.T
        # idiosyncratic part is AR(1) noise, not tiny, not huge
        assert 0.1 < u.std() < 5.0
        assert draw.x.shape == (15, 40)

    def test_ar_coefficients_fixed_across_replicates(self, monkeypatch):
        # every replicate draws with the study-level coefficients of the spec
        spec = DgpSpec(p=12, t_len=20, seed=8)
        alpha, rho = spec.ar_coefficients()
        used = []
        ar_coefficients = DgpSpec.ar_coefficients

        def recording(self):
            used.append(ar_coefficients(self))
            return used[-1]

        monkeypatch.setattr(DgpSpec, "ar_coefficients", recording)
        sample_dgp(spec, 0)
        sample_dgp(spec, 5)
        assert len(used) == 2
        for a, r in used:
            assert np.array_equal(a, alpha)
            assert np.array_equal(r, rho)

    def test_loadings_fixed_flag(self):
        fixed = DgpSpec(p=12, t_len=20, seed=9, fixed_loadings=True)
        redrawn = DgpSpec(p=12, t_len=20, seed=9, fixed_loadings=False)
        assert np.array_equal(sample_dgp(fixed, 0).loadings, sample_dgp(fixed, 4).loadings)
        assert not np.array_equal(
            sample_dgp(redrawn, 0).loadings, sample_dgp(redrawn, 4).loadings
        )

    def test_stationary_variance_oracle(self):
        spec = DgpSpec(p=8, t_len=50_000, seed=10)
        draw = sample_dgp(spec, 0)
        alpha, _ = spec.ar_coefficients()
        target = 1.0 / (1.0 - alpha**2)
        sample = draw.factors.var(axis=0)
        assert np.all(np.abs(sample / target - 1.0) < 0.05)
        # mean within 5 standard errors of zero
        se = np.sqrt(target / (1 - alpha) ** 2 / 50_000)
        assert np.all(np.abs(draw.factors.mean(axis=0)) < 5 * se)

    def test_unit_norm_phi_required(self):
        with pytest.raises(ValueError, match="unit norm"):
            DgpSpec(p=5, t_len=10, phi1=np.ones(6), seed=0)


class TestIdentifiabilityRotation:
    def test_already_identified(self):
        rng = np.random.default_rng(11)
        t_len, k, p = 50, 3, 12
        q, _ = np.linalg.qr(rng.standard_normal((t_len, k)))
        f = np.sqrt(t_len) * q
        b = rng.standard_normal((p, k))
        _, e = sym_eig_desc(b.T @ b)
        b = b @ e
        h = identifiability_rotation(f, b)
        assert np.allclose(np.abs(h), np.eye(k), atol=1e-8)

    def test_scaled_factors(self):
        rng = np.random.default_rng(12)
        t_len, k, p = 60, 2, 9
        q, _ = np.linalg.qr(rng.standard_normal((t_len, k)))
        f = np.sqrt(t_len) * q
        b = rng.standard_normal((p, k))
        _, e = sym_eig_desc(b.T @ b)
        b = b @ e
        h = identifiability_rotation(2.0 * f, b)
        assert np.allclose(np.abs(h), 0.5 * np.eye(k), atol=1e-8)

    def test_constraints_on_random_input(self):
        rng = np.random.default_rng(13)
        t_len, k, p = 45, 4, 14
        f = rng.standard_normal((t_len, k)) @ rng.standard_normal((k, k))
        b = rng.standard_normal((p, k))
        h = identifiability_rotation(f, b)
        f_rot = f @ h.T
        b_rot = np.linalg.solve(h.T, b.T).T
        assert np.abs(f_rot.T @ f_rot / t_len - np.eye(k)).max() < 1e-8
        gram = b_rot.T @ b_rot
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-8
        assert np.all(np.diff(np.diag(gram)) <= 1e-10)
        # the rotation leaves the common component unchanged
        assert np.allclose(b_rot @ f_rot.T, b @ f.T)

    def test_matches_fitted_factors_on_noiseless_panel(self):
        rng = np.random.default_rng(14)
        f = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 3))
        b = rng.standard_normal((10, 3))
        from suffcast import select_and_fit_factors

        _, fit = select_and_fit_factors(b @ f.T, 1, 3)
        h = identifiability_rotation(f, b)
        assert np.allclose(fit.factors, f @ h.T, atol=1e-8)

    def test_rank_deficiency(self):
        f = np.ones((20, 2))
        b = np.random.default_rng(15).standard_normal((8, 2))
        with pytest.raises(ValueError, match="rank-deficient"):
            identifiability_rotation(f, b)


class TestSubspaceR2:
    def test_inside_span(self):
        basis = np.eye(4)[:, :2]
        assert subspace_r2(np.array([0.6, 0.8, 0.0, 0.0]), basis) == pytest.approx(1.0)

    def test_orthogonal(self):
        basis = np.eye(4)[:, :2]
        assert subspace_r2(np.array([0.0, 0.0, 1.0, 0.0]), basis) == pytest.approx(0.0)

    def test_half_projection(self):
        basis = np.eye(3)[:, :2]
        v = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert subspace_r2(v, basis) == pytest.approx(0.5)

    def test_zero_vector(self):
        with pytest.raises(ValueError, match="zero direction"):
            subspace_r2(np.zeros(3), np.eye(3)[:, :1])

    def test_sign_flip_invariance(self):
        # coordinate sign flips applied to both the direction and the basis
        # leave the metric unchanged
        rng = np.random.default_rng(16)
        basis, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        flips = np.diag([1.0, -1.0, 1.0, -1.0, -1.0])
        assert subspace_r2(flips @ v, flips @ basis) == pytest.approx(subspace_r2(v, basis))


class TestMonteCarloStudy:
    def test_single_replication_zero_sd(self):
        spec = DgpSpec(p=25, t_len=60, seed=17)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=1, h_slices=5)
        result = monte_carlo_study(spec, config)
        rows = result.summary_rows()
        assert all(r["sd"] == 0.0 for r in rows)
        assert all(r["n_ok"] == 1 for r in rows)

    def test_bit_identical_reruns(self, tmp_path):
        spec = DgpSpec(p=25, t_len=60, seed=18)
        config = StudyConfig(methods=("sir", "dr"), metrics=("directions",), n_reps=4, h_slices=5)
        a = monte_carlo_study(spec, config)
        b = monte_carlo_study(spec, config)
        for name, result in (("a.csv", a), ("b.csv", b)):
            cli._write_csv(tmp_path / name, [row.values() for row in result.summary_rows()])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for key in a.values:
            assert np.array_equal(a.values[key], b.values[key])

    def test_parallel_matches_serial(self):
        spec = DgpSpec(p=20, t_len=50, seed=19)
        base = dict(methods=("dr",), metrics=("directions",), n_reps=4, h_slices=5)
        serial = monte_carlo_study(spec, StudyConfig(**base, jobs=1))
        parallel = monte_carlo_study(spec, StudyConfig(**base, jobs=2))
        for key in serial.values:
            assert np.array_equal(serial.values[key], parallel.values[key])

    def test_failures_recorded_not_dropped(self):
        # h_slices > usable training length makes every replication fail
        spec = DgpSpec(p=10, t_len=20, seed=20)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=3, h_slices=21)
        result = monte_carlo_study(spec, config)
        assert len(result.failures) == 3
        assert result.failures[0][0] == 0
        assert result.failures[0][1].startswith("ValueError: h_count=21 exceeds")

    def test_oos_metric_produces_values(self):
        spec = DgpSpec(p=30, t_len=80, seed=21)
        config = StudyConfig(
            methods=("dr", "pc"), metrics=("oos",), n_reps=2, n_test=20, h_slices=5
        )
        result = monte_carlo_study(spec, config)
        assert ("dr", "r2_oos") in result.values
        assert ("pc", "r2_oos") in result.values
        assert np.all(np.isfinite(result.values[("dr", "r2_oos")]))

    def test_oos_reports_backfit_sweeps_for_additive_methods(self):
        from suffcast import forecaster as fc

        spec = DgpSpec(p=30, t_len=80, seed=21)
        config = StudyConfig(
            methods=("dr", "nlpc", "pc"), metrics=("oos",), n_reps=2, n_test=20, h_slices=5
        )
        result = monte_carlo_study(spec, config)
        for method in ("dr", "nlpc"):
            sweeps = result.values[(method, "backfit_sweeps")]
            assert np.all((sweeps >= 1) & (sweeps <= fc.BACKFIT_MAX_SWEEPS))
            assert np.array_equal(sweeps, np.round(sweeps))
        assert ("pc", "backfit_sweeps") not in result.values

    def test_selection_metrics(self):
        spec = DgpSpec(p=40, t_len=60, seed=22)
        config = StudyConfig(
            methods=("dr",), metrics=("k_selection", "l_selection"), n_reps=2, h_slices=5
        )
        result = monte_carlo_study(spec, config)
        assert ("factors", "k_selection") in result.values
        assert ("dr", "l_selection") in result.values

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            StudyConfig(metrics=("bogus",))
