import os
import re

import numpy as np
import pytest

from suffcast import (
    DgpSpec,
    PanelData,
    RollingConfig,
    StudyConfig,
    identifiability_rotation,
    monte_carlo_study,
    rolling_evaluate,
    sample_dgp,
    subspace_r2,
)
from suffcast import _parallel, cli, sdr, simulation
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


def ar1_loop(coef, shocks):
    """The AR(1) recursion of one panel, from zero, one Python step per period."""
    out = np.empty_like(shocks)
    prev = np.zeros(shocks.shape[1])
    for t in range(shocks.shape[0]):
        prev = coef * prev + shocks[t]
        out[t] = prev
    return out[simulation.BURN_IN :]


class TestSampleDgp:
    def test_one_ar1_pass_matches_a_loop_per_panel(self):
        # factors and errors from one pass over their joined columns, bit for
        # bit as from a separate loop over each, with the same shock draws
        spec = DgpSpec(p=30, t_len=80, model="IV", seed=23)
        draw = sample_dgp(spec, 4)
        alpha, rho = spec.ar_coefficients()
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(2, 4)))
        total = simulation.BURN_IN + spec.t_len
        factors = ar1_loop(alpha, rng.standard_normal((total, simulation.N_FACTORS)))
        u = ar1_loop(rho, rng.standard_normal((total, spec.p)))
        assert np.array_equal(draw.factors, factors)
        assert np.array_equal(draw.x, draw.loadings @ factors.T + u.T)

    @pytest.mark.parametrize(
        "replicates",
        [
            range(simulation.CHUNK_SIZE, 2 * simulation.CHUNK_SIZE),
            range(2 * simulation.CHUNK_SIZE, 3 * simulation.CHUNK_SIZE - 1),
            [5],
        ],
        ids=["full", "partial", "one"],
    )
    def test_chunk_draw_is_sample_dgp_per_replicate(self, replicates):
        spec = DgpSpec(p=30, t_len=80, model="IV", seed=23)
        panels, eps = simulation._chunk_panels(spec, replicates)
        loadings = simulation._loadings(spec)
        assert panels.shape == (spec.t_len, len(replicates), simulation.N_FACTORS + spec.p)
        for i, r in enumerate(replicates):
            draw = simulation._build_draw(spec, loadings, panels[:, i], eps[i])
            alone = sample_dgp(spec, r)
            assert np.array_equal(draw.x, alone.x)
            assert np.array_equal(draw.y, alone.y)
            assert np.array_equal(draw.factors, alone.factors)

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

    def test_sigma_zero_gives_exact_link(self, monkeypatch):
        monkeypatch.setattr(simulation, "SIGMA", 0.0)
        spec = DgpSpec(p=10, t_len=25, model="IV", seed=6)
        draw = sample_dgp(spec, 0)
        v1 = draw.factors @ simulation.PHI1
        v2 = draw.factors @ simulation.PHI2
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
        # the loadings are drawn once per study, the same in every replicate
        spec = DgpSpec(p=12, t_len=20, seed=9)
        assert np.array_equal(sample_dgp(spec, 0).loadings, sample_dgp(spec, 4).loadings)

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

    def test_rank_deficient_loadings(self):
        rng = np.random.default_rng(15)
        b = np.outer(rng.standard_normal(8), [1.0, 2.0])
        with pytest.raises(ValueError, match="rank-deficient loadings: B'B is singular"):
            identifiability_rotation(rng.standard_normal((20, 2)), b)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError, match="factor and loading dimensions differ"):
            identifiability_rotation(rng.standard_normal((20, 2)), rng.standard_normal((8, 3)))


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

    @pytest.mark.parametrize(
        "basis",
        [
            [[1.0, 0.0], [0.0, 1.001], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, 1.0 + 1e-6], [0.0, 0.0]],
            [[1.0, 1e-6], [0.0, 1.0], [0.0, 0.0]],
            [[1.0, 0.0], [0.0, np.nan], [0.0, 0.0]],
        ],
    )
    def test_rejects_a_basis_that_is_not_orthonormal(self, basis):
        with pytest.raises(ValueError, match="not orthonormal"):
            subspace_r2(np.array([1.0, 0.0, 0.0]), np.array(basis))

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
    def test_too_few_slices_rejected(self, monkeypatch):
        # rejected before anything is drawn, not returned as all-failed replicates
        def no_draws(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(simulation, "_chunk_panels", no_draws)
        third = r"must be >= 2 \* N_SLICES = 20 for tm and ens"
        cases = [
            (("sir", "dr"), ("directions",), 9, "t_len=9 must be >= N_SLICES = 10 for sir and dr"),
            (("pc", "tm"), ("oos",), 19, "t_len=19 " + third),
            (("ens",), ("directions",), 19, "t_len=19 " + third),
            (("pc",), ("oos",), 6, "t_len=6 must be > the study's K=6 factors for pc with the oos"),
        ]
        for methods, metrics, t_len, message in cases:
            with pytest.raises(ValueError, match=message):
                monte_carlo_study(DgpSpec(p=20, t_len=t_len),
                                  StudyConfig(methods=methods, metrics=metrics, n_reps=2))

    @pytest.mark.parametrize(
        "methods,t_len", [(("sir", "dr"), 10), (("tm",), 20), (("ens",), 20)]
    )
    def test_shortest_slice_study_runs(self, methods, t_len):
        spec = DgpSpec(p=20, t_len=t_len, seed=23)
        result = monte_carlo_study(spec, StudyConfig(methods=methods, n_reps=2))
        assert not result.failures
        assert result.summary_rows()

    def test_pc_study_reads_no_slices(self, monkeypatch):
        # 8 points cannot fill N_SLICES slices, and a pc-only study never slices
        monkeypatch.setattr(sdr, "slice_target", None)
        spec = DgpSpec(p=20, t_len=8, seed=23)
        config = StudyConfig(methods=("pc",), metrics=("oos",), n_reps=2, n_test=5)
        result = monte_carlo_study(spec, config)
        assert not result.failures
        assert np.all(np.isfinite(result.values[("pc", "r2_oos")]))

    def test_single_replication_zero_sd(self):
        spec = DgpSpec(p=25, t_len=60, seed=17)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=1)
        result = monte_carlo_study(spec, config)
        rows = result.summary_rows()
        assert all(r["sd"] == 0.0 for r in rows)
        assert all(r["n_ok"] == 1 for r in rows)

    def test_bit_identical_reruns(self, tmp_path):
        spec = DgpSpec(p=25, t_len=60, seed=18)
        config = StudyConfig(methods=("sir", "dr"), metrics=("directions",), n_reps=4)
        a = monte_carlo_study(spec, config)
        b = monte_carlo_study(spec, config)
        for name, result in (("a.csv", a), ("b.csv", b)):
            cli._write_csv(tmp_path / name, [row.values() for row in result.summary_rows()])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        for key in a.values:
            assert np.array_equal(a.values[key], b.values[key])

    def test_parallel_matches_serial(self):
        spec = DgpSpec(p=20, t_len=50, seed=19)
        # more than one chunk of CHUNK_SIZE replicates, so two workers start
        base = dict(methods=("dr",), metrics=("directions",), n_reps=9)
        serial = monte_carlo_study(spec, StudyConfig(**base, jobs=1))
        parallel = monte_carlo_study(spec, StudyConfig(**base, jobs=2))
        for key in serial.values:
            assert np.array_equal(serial.values[key], parallel.values[key])

    @pytest.mark.parametrize(
        "jobs,n_reps,workers",
        [
            (4, 2 * simulation.CHUNK_SIZE + 1, 3),
            (2, 4 * simulation.CHUNK_SIZE + 1, 2),
            (3, simulation.CHUNK_SIZE, None),
            # jobs 0 is one worker per usable CPU, four here
            (0, 2 * simulation.CHUNK_SIZE + 1, 3),
            # five chunks, but no more workers than the four usable CPUs
            (1000, 4 * simulation.CHUNK_SIZE + 1, 4),
        ],
    )
    def test_pool_never_larger_than_its_chunks(self, monkeypatch, jobs, n_reps, workers):
        # the study runs n_reps replicates in chunks of CHUNK_SIZE; the rolling
        # evaluator splits n_reps origins, then 2, into one chunk per usable
        # CPU, jobs of them or at most four, and so starts 2 workers for 2 origins
        cpus = set(range(min(jobs or 4, 4)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(_parallel, "_worker_fn", None)
        started, tasks = [], []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                tasks.append(chunks)
                return map(fn, chunks)

        # the pool is imported from its module only where one starts
        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", SerialPool)
        spec = DgpSpec(p=20, t_len=50, seed=19)
        config = StudyConfig(
            methods=("dr",), metrics=("directions",), n_reps=n_reps, jobs=jobs
        )
        result = monte_carlo_study(spec, config)
        draw = sample_dgp(DgpSpec(p=20, t_len=40 + n_reps - 1, seed=19), 0)
        panel = PanelData(x=draw.x, series_names=[f"s{i}" for i in range(20)],
                          time_labels=[f"t{i:03d}" for i in range(draw.y.shape[0])], y=draw.y)
        reports = [
            rolling_evaluate(panel, RollingConfig(window=40, method="dr", k=2, l=1, n_eval=n))
            for n in (n_reps, 2)
        ]

        rolling_workers = [min(len(cpus), n_reps), 2]
        assert started == ([] if workers is None else [workers]) + rolling_workers
        *replicates, origins, last_two = tasks
        if workers is not None:
            # each study task is a chunk of at most CHUNK_SIZE consecutive replicates
            assert all(len(chunk) <= simulation.CHUNK_SIZE for chunk in replicates[0])
            assert [r for chunk in replicates[0] for r in chunk] == list(range(n_reps))
        # each rolling task is one worker's run of consecutive origins
        for chunks, n, report in zip((origins, last_two), rolling_workers, reports):
            assert len(chunks) == n
            assert np.array_equal(np.concatenate(chunks), report.origins)
        assert not result.failures
        assert result.values[("dr", "r2_phi1")].shape == (n_reps,)
        assert reports[0].forecasts.shape == (n_reps,)

    @pytest.mark.parametrize(
        "metrics,methods",
        [
            (("oos",), ("sir", "dr", "pc")),
            (("directions", "k_selection", "l_selection"), ("sir", "dr", "tm", "ens")),
        ],
        ids=["oos", "directions"],
    )
    def test_values_do_not_depend_on_the_chunk_size(self, monkeypatch, metrics, methods):
        spec = DgpSpec(p=30, t_len=80, model="IV", seed=25)
        config = StudyConfig(methods=methods, metrics=metrics, n_reps=7, n_test=20)
        base = monte_carlo_study(spec, config)
        for size in (1, 3):
            monkeypatch.setattr(simulation, "CHUNK_SIZE", size)
            result = monte_carlo_study(spec, config)
            assert result.failures == base.failures
            assert result.values.keys() == base.values.keys()
            for key in base.values:
                assert np.array_equal(result.values[key], base.values[key])

    @pytest.mark.parametrize("stage", ["link_function", "select_and_fit_factors"])
    def test_failure_mid_chunk_fails_that_replicate_alone(self, monkeypatch, stage):
        # the second call belongs to replicate 1, in the middle of the first chunk:
        # building its draw (the link) or running its pipeline (the factor fit)
        spec = DgpSpec(p=20, t_len=50, seed=26)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=4)
        base = monte_carlo_study(spec, config)
        calls = []

        def failing_on_the_second_call(*args, _original=getattr(simulation, stage)):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("boom")
            return _original(*args)

        monkeypatch.setattr(simulation, stage, failing_on_the_second_call)
        assert simulation.CHUNK_SIZE >= 3
        result = monte_carlo_study(spec, config)
        assert result.failures == [(1, "RuntimeError: boom")]
        for key, vals in result.values.items():
            assert np.isnan(vals[1])
            assert np.array_equal(np.delete(vals, 1), np.delete(base.values[key], 1))

    def test_failed_chunk_draw_is_recorded_for_each_of_its_replicates(self, monkeypatch):
        # the AR(1) pass a chunk shares fails that chunk's replicates, not the study
        size = simulation.CHUNK_SIZE
        spec = DgpSpec(p=20, t_len=50, seed=26)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=size + 1)
        base = monte_carlo_study(spec, config)

        def failing_first_chunk(spec, replicates, _original=simulation._chunk_panels):
            if replicates[0] == 0:
                raise RuntimeError("boom")
            return _original(spec, replicates)

        monkeypatch.setattr(simulation, "_chunk_panels", failing_first_chunk)
        result = monte_carlo_study(spec, config)
        assert result.failures == [(r, "RuntimeError: boom") for r in range(size)]
        for key, vals in result.values.items():
            assert np.all(np.isnan(vals[:size]))
            assert vals[size] == base.values[key][size]

    def test_chunk_whose_draw_raises_returns_a_failure_per_replicate(self, monkeypatch):
        # in-process: the study above may run its chunks in workers
        def failing_draw(spec, replicates):
            raise RuntimeError("boom")

        monkeypatch.setattr(simulation, "_chunk_panels", failing_draw)
        spec = DgpSpec(p=20, t_len=50, seed=26)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=3)
        assert simulation._run_chunk(spec, config, [4, 5, 6]) == [
            (None, "RuntimeError: boom")
        ] * 3

    def test_failures_recorded_not_dropped(self, monkeypatch):
        # a degenerate draw makes every replication fail at run time
        def degenerate(f, b):
            raise ValueError("rank-deficient factors: F'F is singular")

        monkeypatch.setattr(simulation, "identifiability_rotation", degenerate)
        spec = DgpSpec(p=10, t_len=20, seed=20)
        config = StudyConfig(methods=("dr",), metrics=("directions",), n_reps=3)
        result = monte_carlo_study(spec, config)
        assert [r for r, _ in result.failures] == [0, 1, 2]
        assert result.failures[0][1] == "ValueError: rank-deficient factors: F'F is singular"
        assert result.summary_rows() == []

    def test_oos_metric_produces_values(self):
        spec = DgpSpec(p=30, t_len=80, seed=21)
        config = StudyConfig(
            methods=("dr", "pc"), metrics=("oos",), n_reps=2, n_test=20
        )
        result = monte_carlo_study(spec, config)
        assert ("dr", "r2_oos") in result.values
        assert ("pc", "r2_oos") in result.values
        assert np.all(np.isfinite(result.values[("dr", "r2_oos")]))

    def test_oos_reports_backfit_sweeps_for_additive_methods(self):
        from suffcast import forecaster as fc

        spec = DgpSpec(p=30, t_len=80, seed=21)
        config = StudyConfig(
            methods=("dr", "nlpc", "pc"), metrics=("oos",), n_reps=2, n_test=20
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
            methods=("dr",), metrics=("k_selection", "l_selection"), n_reps=2
        )
        result = monte_carlo_study(spec, config)
        assert ("factors", "k_selection") in result.values
        assert ("dr", "l_selection") in result.values

    def test_each_kernel_matrix_built_once_per_replicate(self, monkeypatch):
        calls = {}
        for name in ("_dr_matrix", "_tm_matrix"):

            def counting(*args, _name=name, _built=getattr(sdr, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _built(*args)

            monkeypatch.setattr(sdr, name, counting)
        spec = DgpSpec(p=30, t_len=80, model="IV", seed=24)
        config = StudyConfig(
            methods=("dr", "tm", "ens"), metrics=("directions", "l_selection")
        )
        cells = simulation._run_replicate(spec, config, sample_dgp(spec, 0))
        assert calls == {"_dr_matrix": 1, "_tm_matrix": 1}
        assert {method for method, _ in cells} == {"dr", "tm", "ens"}

    @pytest.mark.parametrize(
        "methods,metrics",
        [
            ((), ("k_selection",)),
            (("pc",), ("oos", "k_selection")),
            # k_selection alone reads no method, so the methods are ignored
            (("sir", "pc", "nlpc"), ("k_selection",)),
        ],
    )
    def test_metrics_some_method_produces_accepted(self, methods, metrics):
        StudyConfig(methods=methods, metrics=metrics)

    @pytest.mark.parametrize(
        "methods,metrics,unread",
        [
            (("sir", "pc"), ("directions",), ["pc"]),
            (("sir", "pc", "nlpc"), ("directions", "k_selection"), ["pc", "nlpc"]),
            (("dr", "nlpc"), ("l_selection",), ["nlpc"]),
        ],
    )
    def test_methods_no_metric_reads_rejected(self, methods, metrics, unread):
        with pytest.raises(ValueError, match=re.escape(f"reads the methods {unread}")):
            StudyConfig(methods=methods, metrics=metrics)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            StudyConfig(metrics=("bogus",))

    def test_negative_seed_rejected(self):
        # SeedSequence would fail every replicate of the study instead
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            DgpSpec(seed=-1)
