"""Acceptance suite: every criterion prints one pass/fail line.

The synthetic studies fix master seed 420; the AR coefficients drawn once
from that seed give the square-dominant variance split the published tables
reflect.  All runs are deterministic, so each criterion either always passes
or always fails for a given build.
"""
import numpy as np
import pytest

import suffcast as sc
from suffcast import cli

ACCEPTANCE_SEED = 420


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


@pytest.fixture(scope="module")
def model1_directions():
    spec = sc.DgpSpec(p=100, t_len=500, model="I", seed=ACCEPTANCE_SEED)
    config = sc.StudyConfig(methods=("sir", "dr"), metrics=("directions",), n_reps=200)
    return spec, config, sc.monte_carlo_study(spec, config)


@pytest.fixture(scope="module")
def model3_directions():
    spec = sc.DgpSpec(p=100, t_len=500, model="III", seed=ACCEPTANCE_SEED)
    config = sc.StudyConfig(methods=("sir", "dr"), metrics=("directions",), n_reps=200)
    return sc.monte_carlo_study(spec, config)


def med(result, method, metric):
    return 100.0 * float(np.median(result.values[(method, metric)]))


def test_criterion_1_table1_model1(model1_directions):
    _, _, result = model1_directions
    dr1 = med(result, "dr", "r2_phi1")
    dr2 = med(result, "dr", "r2_phi2")
    sir2 = med(result, "sir", "r2_phi2")
    ok = dr1 >= 95.0 and dr2 >= 90.0 and sir2 <= 40.0
    assert report(
        1,
        ok,
        f"Model I direction recovery: DR {dr1:.1f}/{dr2:.1f} (need >=95/>=90), "
        f"SIR phi2 {sir2:.1f} (need <=40)",
    )


def test_criterion_2_table1_model3(model3_directions):
    result = model3_directions
    dr1 = med(result, "dr", "r2_phi1")
    dr2 = med(result, "dr", "r2_phi2")
    sir1 = med(result, "sir", "r2_phi1")
    sir2 = med(result, "sir", "r2_phi2")
    ok = dr1 >= 95.0 and dr2 >= 93.0 and sir1 <= 50.0 and sir2 <= 50.0
    assert report(
        2,
        ok,
        f"Model III direction recovery: DR {dr1:.1f}/{dr2:.1f} (need >=95/>=93), "
        f"SIR {sir1:.1f}/{sir2:.1f} (need <=50 both)",
    )


def test_criterion_3_table2_out_of_sample():
    spec = sc.DgpSpec(p=100, t_len=500, model="I", seed=ACCEPTANCE_SEED)
    config = sc.StudyConfig(
        methods=("sir", "dr", "pc"), metrics=("oos",), n_reps=200, n_test=100
    )
    result = sc.monte_carlo_study(spec, config)
    dr = med(result, "dr", "r2_oos")
    sir = med(result, "sir", "r2_oos")
    pc = med(result, "pc", "r2_oos")
    ok = dr >= 80.0 and sir <= 25.0 and 11.3 <= pc <= 31.3 and sir < pc < dr
    assert report(
        3,
        ok,
        f"Model I held-out R2: DR {dr:.1f} (need >=80), SIR {sir:.1f} (need <=25), "
        f"PC {pc:.1f} (need in [11.3, 31.3] and between SIR and DR)",
    )


def test_criterion_4_dr_pairform_identity():
    from test_sdr import dr_kernel_pairform

    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(50):
        h = int(rng.integers(2, 11))
        k = int(rng.integers(1, 7))
        t_len = int(rng.integers(20, 501))
        if trial % 2 == 0 and t_len % h == 0:
            t_len += 1  # force uneven slice counts on half the trials
        f = rng.standard_normal((t_len, k))
        y = rng.standard_normal(t_len)
        slices = sc.slice_target(y, h)
        a = sc.build_kernels(["dr"], f, slices, "pooled")["dr"].matrix
        b = dr_kernel_pairform(f, slices, "pooled")
        worst = max(worst, np.linalg.norm(a - b) / max(np.linalg.norm(a), 1e-300))
    ok = worst < 1e-10
    assert report(4, ok, f"DR plug-in vs pair-form (pooled), 50 instances: "
                          f"worst relative error {worst:.2e} (need < 1e-10)")


def test_criterion_5_tm_brute_force():
    from test_sdr import brute_force_tm

    rng = np.random.default_rng(5)
    worst = 0.0
    for k in (1, 2, 3):
        for t_len in (12, 21, 30):
            f = rng.standard_normal((t_len, k))
            y = rng.standard_normal(t_len)
            slices = sc.slice_target(y, 3)
            fast = sc.build_kernels(["tm"], f, slices)["tm"].matrix
            slow = brute_force_tm(f, slices)
            worst = max(
                worst, np.linalg.norm(fast - slow) / max(np.linalg.norm(slow), 1e-12)
            )
    ok = worst < 1e-10
    assert report(5, ok, f"TM kernel vs triple-loop tensor oracle: "
                          f"worst relative error {worst:.2e} (need < 1e-10)")


def test_criterion_6_contamination_invariance():
    p, k = 50, 2
    b = np.random.default_rng(12345).uniform(-1, 2, size=(p, k))
    lam = np.linalg.solve(b.T @ b, b.T)
    t_grid = (2000, 8000, 32000)

    def distances(seed):
        rng = np.random.default_rng([seed])
        t_max = t_grid[-1]
        f = rng.standard_normal((t_max, k))
        # strong skewed contamination: the invariance matters most when the
        # estimation error is not negligible
        u = 10.0 * (rng.exponential(1.0, size=(t_max, p)) - 1.0)
        y = f[:, 0] + f[:, 1] ** 2 + 0.2 * rng.standard_normal(t_max)
        f_hat = f + u @ lam.T
        out = {}
        for t_len in t_grid:
            slices = sc.slice_target(y[:t_len], 10)
            out[("dr", t_len)] = np.linalg.norm(
                sc.build_kernels(["dr"], f_hat[:t_len], slices, "pooled")["dr"].matrix
                - sc.build_kernels(["dr"], f[:t_len], slices, "pooled")["dr"].matrix
            )
            out[("tm", t_len)] = np.linalg.norm(
                sc.build_kernels(["tm"], f_hat[:t_len], slices)["tm"].matrix
                - sc.build_kernels(["tm"], f[:t_len], slices)["tm"].matrix
            )
        return out

    all_d = [distances(seed) for seed in range(20)]
    ok = True
    detail = []
    for method in ("dr", "tm"):
        meds = [np.median([d[(method, t)] for d in all_d]) for t in t_grid]
        r1, r2 = meds[1] / meds[0], meds[2] / meds[1]
        ok = ok and r1 <= 0.5 and r2 <= 0.5
        detail.append(f"{method.upper()} ratios {r1:.3f}/{r2:.3f}")
    assert report(6, ok, "kernel distance per 4x sample growth (need <= 0.5): "
                          + ", ".join(detail))


def test_criterion_7_order_selection():
    spec_k = sc.DgpSpec(p=200, t_len=200, model="I", seed=ACCEPTANCE_SEED)
    config_k = sc.StudyConfig(methods=(), metrics=("k_selection",), n_reps=200)
    result_k = sc.monte_carlo_study(spec_k, config_k)
    freq_k = float(np.mean(result_k.values[("factors", "k_selection")] == 6))

    spec_l = sc.DgpSpec(p=100, t_len=500, model="IV", seed=ACCEPTANCE_SEED)
    config_l = sc.StudyConfig(methods=("dr",), metrics=("l_selection",), n_reps=200)
    result_l = sc.monte_carlo_study(spec_l, config_l)
    freq_l = float(np.mean(result_l.values[("dr", "l_selection")] == 2))

    ok = freq_k >= 0.90 and freq_l >= 0.80
    assert report(
        7,
        ok,
        f"order selection: P(K=6) = {freq_k:.3f} at p=200,T=200 (need >=0.90); "
        f"P(L=2) = {freq_l:.3f} on Model IV DR (need >=0.80)",
    )


def test_criterion_8_symmetric_link_discrimination():
    f = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    slices = sc.slice_target(f[:, 0] ** 2, 2)
    sir_value = sc.build_kernels(["sir"], f, slices)["sir"].matrix[0, 0]
    dr_eig = sc.build_kernels(["dr"], f, slices, "pooled")["dr"].eigenvalues[0]
    ok = sir_value == 0.0 and dr_eig == 4.5
    assert report(
        8,
        ok,
        f"4-point symmetric instance: SIR kernel = {sir_value} (need exactly 0), "
        f"DR eigenvalue = {dr_eig} (need exactly 4.5)",
    )


def test_criterion_9_determinism(model1_directions, tmp_path):
    spec, config, first = model1_directions
    second = sc.monte_carlo_study(spec, config)
    # both runs' study tables, rendered by the CLI's writer
    for name, result in (("a.csv", first), ("b.csv", second)):
        cli._write_csv(tmp_path / name, [row.values() for row in result.summary_rows()])
    ok = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert report(
        9,
        ok,
        f"re-running the Model I study reproduces the table byte-for-byte: {ok}",
    )
