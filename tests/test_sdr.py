import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suffcast import (
    KernelEstimate,
    build_kernels,
    select_dimension,
    slice_target,
    subspace_r2,
)
from suffcast import sdr
from suffcast._eigen import sym_eig_desc

FOUR_POINT_F = np.array([[-2.0], [-1.0], [1.0], [2.0]])


class TestSliceTarget:
    def test_even_split(self):
        s = slice_target(np.arange(1.0, 11.0), 5)
        assert np.array_equal(s.counts, [2, 2, 2, 2, 2])
        assert np.array_equal(s.labels, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4])

    def test_single_slice(self):
        s = slice_target(np.arange(4.0), 1)
        assert np.array_equal(s.labels, [0, 0, 0, 0])

    def test_ties_broken_by_time_index(self):
        s = slice_target(np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0]), 2)
        assert np.array_equal(s.labels, [0, 0, 0, 1, 1, 1])
        # oracle: stable sort by (value, time index) then even split
        y = np.array([3.0, 1.0, 3.0, 1.0, 2.0, 2.0])
        s2 = slice_target(y, 3)
        order = sorted(range(6), key=lambda i: (y[i], i))
        expected = np.empty(6, dtype=int)
        for rank, idx in enumerate(order):
            expected[idx] = rank // 2
        assert np.array_equal(s2.labels, expected)

    def test_uneven_counts(self):
        s = slice_target(np.arange(10.0), 3)
        assert np.array_equal(s.counts, [4, 3, 3])
        assert s.counts.sum() == 10

    def test_boundaries_consistent_without_ties(self):
        # slices are contiguous in y: slice h ends at or below where h+1 starts
        rng = np.random.default_rng(0)
        y = rng.standard_normal(23)
        s = slice_target(y, 4)
        for h in range(3):
            assert y[s.labels == h].max() <= y[s.labels == h + 1].min()

    def test_errors(self):
        with pytest.raises(ValueError, match="exceeds"):
            slice_target(np.arange(3.0), 4)
        with pytest.raises(ValueError, match=">= 1"):
            slice_target(np.arange(3.0), 0)
        with pytest.raises(ValueError, match="y must be 1-D"):
            slice_target(np.arange(6.0).reshape(3, 2), 2)


class TestSirKernel:
    def test_single_slice_vanishes(self):
        s = slice_target(FOUR_POINT_F[:, 0], 1)
        assert build_kernels(["sir"], FOUR_POINT_F, s)["sir"].matrix[0, 0] == 0.0

    def test_monotone_link_hand_value(self):
        s = slice_target(FOUR_POINT_F[:, 0], 2)
        m = build_kernels(["sir"], FOUR_POINT_F, s)["sir"].matrix
        assert m[0, 0] == pytest.approx(2.25, abs=1e-14)

    def test_symmetric_link_blindness_exact(self):
        s = slice_target(FOUR_POINT_F[:, 0] ** 2, 2)
        assert build_kernels(["sir"], FOUR_POINT_F, s)["sir"].matrix[0, 0] == 0.0

    @pytest.mark.parametrize("h_count", [2, 3, 4])
    def test_rank_is_below_the_slice_count(self, h_count):
        # the weighted slice means sum to zero, so H slices span at most H - 1
        # directions: forecast rejects a sir l above N_SLICES - 1
        rng = np.random.default_rng(h_count)
        f = rng.standard_normal((60, 5))
        y = f[:, 0] + f[:, 1] ** 2 + rng.standard_normal(60)
        eigenvalues = build_kernels(["sir"], f, slice_target(y, h_count))["sir"].eigenvalues
        assert eigenvalues[h_count - 2] > 1e-3
        assert np.all(np.abs(eigenvalues[h_count - 1 :]) < 1e-12 * eigenvalues[0])


class TestDrKernel:
    def test_single_slice_pooled_vanishes(self):
        s = slice_target(FOUR_POINT_F[:, 0], 1)
        assert build_kernels(["dr"], FOUR_POINT_F, s, "pooled")["dr"].matrix[0, 0] == 0.0
        assert dr_kernel_pairform(FOUR_POINT_F, s, "pooled")[0, 0] == 0.0

    def test_symmetric_link_hand_value(self):
        s = slice_target(FOUR_POINT_F[:, 0] ** 2, 2)
        m = build_kernels(["dr"], FOUR_POINT_F, s, "pooled")["dr"].matrix
        assert m[0, 0] == pytest.approx(4.5)
        assert dr_kernel_pairform(FOUR_POINT_F, s, "pooled")[0, 0] == pytest.approx(4.5)

    def test_unknown_variance_mode(self):
        s = slice_target(FOUR_POINT_F[:, 0], 2)
        with pytest.raises(ValueError, match="variance_mode"):
            build_kernels(["dr"], FOUR_POINT_F, s, "bogus")

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 10))
    def test_pairform_identity_pooled(self, seed, k, h):
        rng = np.random.default_rng(seed)
        t_len = int(rng.integers(max(h, 2 * k) + 3, 80))
        f = rng.standard_normal((t_len, k))
        y = rng.standard_normal(t_len)
        s = slice_target(y, h)
        a = build_kernels(["dr"], f, s, "pooled")["dr"].matrix
        b = dr_kernel_pairform(f, s, "pooled")
        scale = max(np.linalg.norm(a), 1e-12)
        assert np.linalg.norm(a - b) / scale < 1e-10


class TestTmKernel:
    def test_symmetric_four_point_zero(self):
        s = slice_target(FOUR_POINT_F[:, 0] ** 2, 2)
        m = build_kernels(["tm"], FOUR_POINT_F, s)["tm"].matrix
        assert m[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_scalar_formula_oracle(self):
        # K=1: entry is sum_h p_h (slice third central moment - global third moment)^2
        rng = np.random.default_rng(1)
        f = rng.standard_normal((6, 1))
        y = rng.standard_normal(6)
        s = slice_target(y, 2)
        g = f[:, 0] - f[:, 0].mean()
        global3 = np.mean(g**3)
        expected = 0.0
        for h in range(2):
            d = g[s.labels == h]
            expected += (d.shape[0] / 6) * (np.mean((d - d.mean()) ** 3) - global3) ** 2
        assert build_kernels(["tm"], f, s)["tm"].matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_brute_force_tensor_oracle(self):
        rng = np.random.default_rng(2)
        k, t_len = 2, 8
        f = rng.standard_normal((t_len, k))
        y = rng.standard_normal(t_len)
        s = slice_target(y, 2)
        assert np.allclose(
            build_kernels(["tm"], f, s)["tm"].matrix, brute_force_tm(f, s), rtol=1e-10, atol=1e-12
        )

    def test_distinct_pair_products_match_brute_force_at_k6(self):
        # the pair-product GEMM sums in another order than the per-entry
        # means of the oracle, so agreement is to rounding, not bit for bit
        rng = np.random.default_rng(5)
        f = rng.standard_normal((120, 6)) ** 2
        s = slice_target(f[:, 0] - f[:, 3] + 0.2 * rng.standard_normal(120), 8)
        fast = build_kernels(["tm"], f, s)["tm"].matrix
        oracle = brute_force_tm(f, s)
        assert np.linalg.norm(fast - oracle) / np.linalg.norm(oracle) < 1e-12

    def test_slice_too_small(self):
        f = np.arange(3.0)[:, None]
        s = slice_target(np.arange(3.0), 3)
        with pytest.raises(ValueError, match="slice too small"):
            build_kernels(["tm"], f, s)


def dr_kernel_pairform(f, slices, variance_mode="identity"):
    """Double sum over slice pairs of the DR kernel, from loop-built slice moments.

    Accumulates ``sum_{h,g} p_h p_g M_{h,g}^2`` with
    ``M_{h,g} = 2V - S_h - S_g + m_h m_g' + m_g m_h'``, where ``m_h`` and
    ``S_h`` are the slice mean and second moment of the centered factors and
    ``V`` is the identity or the pooled second moment.  In pooled mode this
    equals the DR kernel of ``build_kernels``: global centering makes
    ``sum_h p_h m_h = 0`` and pooling makes ``sum_h p_h (V - S_h) = 0``, so
    every cross term cancels.
    """
    t_len, k = f.shape
    g = f - f.mean(axis=0)
    p_hat, means, seconds = [], [], []
    for h in range(slices.h_count):
        rows = [g[t] for t in range(t_len) if slices.labels[t] == h]
        p_hat.append(len(rows) / t_len)
        means.append(sum(rows) / len(rows))
        seconds.append(sum(np.outer(r, r) for r in rows) / len(rows))
    if variance_mode == "pooled":
        v = sum(p * s for p, s in zip(p_hat, seconds))
    else:
        v = np.eye(k)
    out = np.zeros((k, k))
    for p_h, m_h, s_h in zip(p_hat, means, seconds):
        for p_g, m_g, s_g in zip(p_hat, means, seconds):
            m_hg = 2.0 * v - s_h - s_g + np.outer(m_h, m_g) + np.outer(m_g, m_h)
            out += p_h * p_g * (m_hg @ m_hg)
    return out


def brute_force_tm(f, slices):
    """Triple-loop evaluation of the third-moment kernel."""
    t_len, k = f.shape
    g = f - f.mean(axis=0)
    global3 = np.zeros((k, k, k))
    for i in range(k):
        for j in range(k):
            for m in range(k):
                global3[i, j, m] = np.mean(g[:, i] * g[:, j] * g[:, m])
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    out = np.zeros((k, k))
    for h in range(slices.h_count):
        d = g[slices.labels == h]
        d = d - d.mean(axis=0)
        mu = np.zeros((len(pairs), k))
        for r, (i, j) in enumerate(pairs):
            for m in range(k):
                mu[r, m] = np.mean(d[:, i] * d[:, j] * d[:, m]) - global3[i, j, m]
        out += (d.shape[0] / t_len) * mu.T @ mu
    return out


class TestBuildKernels:
    @pytest.mark.parametrize("mode", ["identity", "pooled"])
    def test_each_kernel_matches_its_single_method_call(self, mode):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((60, 4))
        s = slice_target(f[:, 0] * f[:, 1] + 0.3 * rng.standard_normal(60), 6)
        kernels = sdr.build_kernels(["sir", "dr", "tm", "ens"], f, s, mode)
        assert list(kernels) == ["sir", "dr", "tm", "ens"]
        for method, kern in kernels.items():
            alone = build_kernels([method], f, s, mode)[method]
            assert kern.method == method
            for name in ("matrix", "eigenvalues", "eigenvectors"):
                assert np.array_equal(getattr(kern, name), getattr(alone, name)), (method, name)
        assert np.array_equal(
            kernels["ens"].matrix, kernels["dr"].matrix + kernels["tm"].matrix
        )

    def test_one_dimensional_factors(self):
        s = slice_target(np.arange(6.0), 2)
        with pytest.raises(ValueError, match="factors must be T x K"):
            sdr.build_kernels(["sir"], np.arange(6.0), s)

    def test_empty_slice(self):
        # slice_target never leaves a slice empty; a hand-built assignment can
        s = sdr.SliceAssignment(h_count=3, labels=np.array([0, 0, 2, 2]),
                                counts=np.array([2, 0, 2]))
        with pytest.raises(ValueError, match="empty slice"):
            sdr.build_kernels(["sir"], np.arange(8.0).reshape(4, 2), s)


def masked_kernel_matrices(f, slices):
    """SIR, DR and TM matrices with each slice's rows taken by a boolean mask.

    The per-slice statistics are summed exactly as the kernels sum them, so
    the kernels built from the sorted slice views must match bit for bit.
    """
    g = f - f.mean(axis=0)
    k = g.shape[1]
    means = np.zeros((slices.h_count, k))
    seconds = np.zeros((slices.h_count, k, k))
    pair_rows, pair_cols = np.triu_indices(k)
    global3 = sdr._pair_third_moments(g, pair_rows, pair_cols)
    tm = np.zeros((k, k))
    for h in range(slices.h_count):
        rows = g[slices.labels == h]
        means[h] = rows.mean(axis=0)
        seconds[h] = rows.T @ rows / rows.shape[0]
        centered = rows - rows.mean(axis=0)
        mu = sdr._pair_third_moments(centered, pair_rows, pair_cols) - global3
        tm += slices.proportions[h] * mu.T @ mu
    return {
        "sir": sdr._sir_matrix(means, slices),
        "dr": sdr._dr_matrix(means, seconds, slices, "identity"),
        "tm": (tm + tm.T) / 2.0,
    }


class TestSortedSlicing:
    """One stable sort of the labels gives each slice's rows as a contiguous view."""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 40))
    def test_slice_rows_are_the_masked_rows(self, seed, h_count, extra):
        rng = np.random.default_rng(seed)
        # random labels, every slice non-empty, many rows sharing a label
        labels = rng.permutation(
            np.concatenate([np.arange(h_count), rng.integers(0, h_count, extra)])
        )
        slices = sdr.SliceAssignment(h_count, labels, np.bincount(labels, minlength=h_count))
        g = rng.standard_normal((labels.shape[0], 3))
        blocks = sdr._slice_rows(g, slices)
        assert len(blocks) == h_count
        for h, rows in enumerate(blocks):
            assert np.array_equal(rows, g[labels == h])
            assert rows.base is blocks[0].base is not None

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.booleans())
    def test_kernels_match_masked_slices_bit_for_bit(self, seed, h_count, tied):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((7 * h_count + int(rng.integers(0, 7)), 4))
        y = f[:, 0] * f[:, 1] + 0.3 * rng.standard_normal(f.shape[0])
        if tied:  # targets with ties: equal values are sliced in time order
            y = np.round(y)
        slices = slice_target(y, h_count)
        kernels = sdr.build_kernels(["sir", "dr", "tm"], f, slices)
        for method, expected in masked_kernel_matrices(f, slices).items():
            assert np.array_equal(kernels[method].matrix, expected), method


class TestEnsembleKernel:
    def test_degenerate_sides(self, monkeypatch):
        # a zero side leaves the other side's matrix bit for bit
        rng = np.random.default_rng(3)
        f = rng.standard_normal((20, 2))
        s = slice_target(rng.standard_normal(20), 4)
        dr = build_kernels(["dr"], f, s)["dr"]
        tm = build_kernels(["tm"], f, s)["tm"]
        with monkeypatch.context() as m:
            m.setattr(sdr, "_tm_matrix", lambda g, slices, blocks: np.zeros((2, 2)))
            assert np.array_equal(build_kernels(["ens"], f, s)["ens"].matrix, dr.matrix)
        with monkeypatch.context() as m:
            m.setattr(sdr, "_dr_matrix", lambda means, seconds, slices, mode: np.zeros((2, 2)))
            assert np.array_equal(build_kernels(["ens"], f, s)["ens"].matrix, tm.matrix)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((20, 2))
        s = slice_target(rng.standard_normal(21), 4)
        with pytest.raises(ValueError, match="factors cover T=20 but slices cover T=21"):
            build_kernels(["ens"], f, s)

    @pytest.mark.parametrize("mode", ["identity", "pooled"])
    def test_sum_of_dr_and_tm_bit_for_bit(self, mode):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((60, 4))
        s = slice_target(f[:, 0] ** 2 + 0.3 * rng.standard_normal(60), 5)
        ens = build_kernels(["ens"], f, s, mode)["ens"]
        assert ens.method == "ens"
        dr = build_kernels(["dr"], f, s, mode)["dr"]
        tm = build_kernels(["tm"], f, s)["tm"]
        assert np.array_equal(ens.matrix, dr.matrix + tm.matrix)
        assert np.array_equal(ens.matrix, ens.matrix.T)

    def test_disjoint_signals_union(self):
        # coordinate 0 carries a variance signal (DR sees it, TM is blind:
        # within-slice symmetric); coordinate 1 carries a pure skew signal
        # with constant mean and variance (TM sees it, DR is blind)
        rng = np.random.default_rng(2024)
        per, k = 500, 4
        scales = [0.6, 1.0, 1.45, 1.9]
        shapes = [0.4, 1.5, 6.0, 40.0]
        blocks, ys = [], []
        for h in range(4):
            z = rng.standard_normal(per) * scales[h]
            g = rng.gamma(shapes[h], 1.0, size=per)
            g = (g - shapes[h]) / np.sqrt(shapes[h])
            blocks.append(np.column_stack([z, g, rng.standard_normal((per, k - 2))]))
            ys.append(np.full(per, float(h)))
        f = np.vstack(blocks)
        s = slice_target(np.concatenate(ys), 4)
        dr = build_kernels(["dr"], f, s, "pooled")["dr"]
        tm = build_kernels(["tm"], f, s)["tm"]
        ens = build_kernels(["ens"], f, s, "pooled")["ens"]
        basis = np.eye(k)[:, :2]
        quality = {}
        for name, kern in (("dr", dr), ("tm", tm), ("ens", ens)):
            phi = kern.eigenvectors[:, :2]
            quality[name] = min(subspace_r2(phi[:, j], basis) for j in range(2))
        assert quality["dr"] < 0.2
        assert quality["ens"] > quality["dr"] + 0.02
        assert quality["ens"] > quality["tm"] + 0.02
        assert quality["ens"] > 0.95


def literal_ct(method, k, p, t_len):
    """The penalty scale ``c_t`` of the ``select_dimension`` docstring, written out."""
    sampling = np.sqrt(t_len) if method in ("sir", "dr") else np.sqrt(k * t_len)
    return sdr.CT_CALIBRATION * (np.sqrt(k / p) * t_len + sampling)


class TestSelectDimension:
    def kernel(self, eigenvalues, k=None, method="dr"):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        k = k or len(eigenvalues)
        return KernelEstimate(method, np.diag(eigenvalues), eigenvalues, np.eye(k))

    def test_clean_spectral_gap(self):
        kern = self.kernel([5.0, 4.0] + [0.0] * 6)
        sel = select_dimension(kern, 100, 500)
        assert sel.c_t == pytest.approx(literal_ct("dr", 8, 100, 500), rel=1e-12)
        assert sel.l_hat == 2

    def test_degenerate_kernel_returns_one(self):
        kern = self.kernel([0.0] * 8)
        sel = select_dimension(kern, 100, 500)
        assert sel.c_t == pytest.approx(literal_ct("dr", 8, 100, 500), rel=1e-12)
        assert sel.l_hat == 1
        assert sel.tau == 0

    def test_objective_matches_formula_literally(self):
        lam = np.array([3.0, 1.5, 0.4, 0.1, 0.0, 0.0])
        kern = self.kernel(lam)
        p, t_len = 50, 200
        sel = select_dimension(kern, p, t_len)
        k, k_c = 6, 3
        tau = 4
        c_t = literal_ct("dr", k, p, t_len)
        assert sel.c_t == pytest.approx(c_t, rel=1e-12)
        for l in range(1, k_c + 1):
            w = sum(np.log(lam[i] + 1) - lam[i] for i in range(min(tau, l), k_c))
            expected = (t_len / 2) * w - c_t * l * (2 * k - l + 1) / 2
            assert sel.objective[l - 1] == pytest.approx(expected, rel=1e-12)

    def test_scale_awareness(self):
        # the objective is deliberately not scale-free
        a = select_dimension(self.kernel([5.0, 4.0, 0.3, 0.0, 0.0, 0.0]), 100, 500)
        b = select_dimension(self.kernel([0.05, 0.04, 0.003, 0.0, 0.0, 0.0]), 100, 500)
        assert a.c_t == b.c_t == pytest.approx(literal_ct("dr", 6, 100, 500), rel=1e-12)
        assert a.l_hat != b.l_hat

    def test_default_ct_formulas(self):
        k, p, t = 6, 100, 500
        base = np.sqrt(k / p) * t
        for method, sampling in (
            ("sir", np.sqrt(t)), ("dr", np.sqrt(t)), ("tm", np.sqrt(k * t)), ("ens", np.sqrt(k * t))
        ):
            kern = self.kernel([1.0] * k, method=method)
            assert select_dimension(kern, p, t).c_t == pytest.approx(
                sdr.CT_CALIBRATION * (base + sampling), rel=1e-12
            )
        with pytest.raises(ValueError, match="unknown kernel method 'DR'"):
            select_dimension(self.kernel([1.0] * k, method="DR"), p, t)


class TestKernelProperties:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_orthogonal_covariance_sir_dr(self, seed):
        rng = np.random.default_rng(seed)
        k, t_len, h = 3, 60, 5
        f = rng.standard_normal((t_len, k))
        y = rng.standard_normal(t_len)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        s = slice_target(y, h)
        for method in ("sir", "dr"):
            m = build_kernels([method], f, s)[method].matrix
            m_rot = build_kernels([method], f @ q.T, s)[method].matrix
            assert np.linalg.norm(m_rot - q @ m @ q.T) <= 1e-10 * max(np.linalg.norm(m), 1.0)
        # the same rotation through the index step: F -> F Q with Q = q'
        s = slice_target(y, sdr.N_SLICES)
        steps = [sdr.fit_indices(("sir", "dr"), g, y, 20, "auto") for g in (f, f @ q.T)]
        for method in ("sir", "dr"):
            kern, kern_rot = (build_kernels([method], g, s)[method] for g in (f, f @ q.T))
            scale = max(np.abs(kern.eigenvalues).max(), 1.0)
            assert np.allclose(kern_rot.eigenvalues, kern.eigenvalues, rtol=0, atol=1e-10 * scale)
            (sel, phi), (sel_rot, phi_rot) = (step[method] for step in steps)
            assert sel_rot.l_hat == sel.l_hat and sel_rot.tau == sel.tau
            assert np.allclose(sel_rot.objective, sel.objective, rtol=1e-9, atol=1e-9)
            # the rotated directions span Q' times the old span; the error of
            # an l-dimensional eigenspace scales with the gap after lam_l
            # (l_hat <= K_c = 2 < K here)
            l = sel.l_hat
            gap = kern.eigenvalues[l - 1] - kern.eigenvalues[l]
            moved = phi_rot @ phi_rot.T - (q @ phi) @ (q @ phi).T
            assert np.linalg.norm(moved) <= 1e-10 * scale / gap

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="TM keeps the K(K+1)/2 pair rows i <= j unweighted, so a general "
        "rotation changes the kernel, not only its basis",
    )
    @pytest.mark.parametrize("method", sdr.THIRD_MOMENT_METHODS)
    def test_orthogonal_covariance_tm_ens(self, method):
        rng = np.random.default_rng(3)
        k, t_len = 6, 400
        f = rng.standard_normal((t_len, k))
        y = f[:, 0] ** 2 + np.sin(f[:, 1]) + 0.1 * rng.standard_normal(t_len)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        s = slice_target(y, sdr.N_SLICES)
        m = build_kernels([method], f, s)[method].matrix
        m_rot = build_kernels([method], f @ q.T, s)[method].matrix
        assert np.linalg.norm(m_rot - q @ m @ q.T) <= 1e-10 * np.linalg.norm(m)

    def test_signed_permutation_covariance_tm(self):
        # keeping only the pair rows i <= j leaves TM covariant under signed
        # permutations, which map the kept rows onto themselves; a general
        # rotation mixes kept and dropped rows, so it changes the TM and ENS
        # kernels (test_orthogonal_covariance_tm_ens, an expected failure)
        rng = np.random.default_rng(6)
        k, t_len = 3, 48
        f = rng.standard_normal((t_len, k))
        s = slice_target(rng.standard_normal(t_len), 4)
        perm = np.zeros((k, k))
        perm[0, 1], perm[1, 2], perm[2, 0] = 1.0, -1.0, 1.0
        m = build_kernels(["tm"], f, s)["tm"].matrix
        m_rot = build_kernels(["tm"], f @ perm.T, s)["tm"].matrix
        assert np.linalg.norm(m_rot - perm @ m @ perm.T) <= 1e-10 * np.linalg.norm(m)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_dr_tm_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        s = slice_target(y, 4)
        for mode in ("identity", "pooled"):
            assert build_kernels(["dr"], f, s, mode)["dr"].eigenvalues[-1] >= -1e-10
        assert build_kernels(["tm"], f, s)["tm"].eigenvalues[-1] >= -1e-10

    def test_kernel_symmetry(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((30, 4))
        s = slice_target(rng.standard_normal(30), 5)
        for method in ("sir", "dr", "tm"):
            kern = build_kernels([method], f, s)[method]
            assert np.abs(kern.matrix - kern.matrix.T).max() < 1e-12


class TestFitIndices:
    def data(self, t_len=400, k=6, seed=0):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((t_len, k))
        y = f[:, 0] ** 2 + np.sin(f[:, 1]) + f[:, 1] + 0.1 * rng.standard_normal(t_len)
        return f, y

    def test_one_slicing_and_one_eigendecomposition_per_kernel(self, monkeypatch):
        slicings, decompositions = [], []

        def slicing(y, h_count):
            slicings.append(h_count)
            return slice_target(y, h_count)

        def decomposing(m):
            decompositions.append(m.shape)
            return sym_eig_desc(m)

        monkeypatch.setattr(sdr, "slice_target", slicing)
        monkeypatch.setattr(sdr, "sym_eig_desc", decomposing)
        f, y = self.data()
        # names that are not kernel methods are skipped
        indices = sdr.fit_indices(("sir", "pc", "dr", "tm", "nlpc", "ens"), f, y, 100, 2)
        assert slicings == [sdr.N_SLICES]
        assert decompositions == [(6, 6)] * 4
        assert list(indices) == ["sir", "dr", "tm", "ens"]

    @pytest.mark.parametrize("l", [1, 2, 4, 6, 9])
    def test_integer_l_is_capped_at_k(self, l, monkeypatch):
        built = {}

        def recording(*args):
            built.update(kernels := build_kernels(*args))
            return kernels

        monkeypatch.setattr(sdr, "build_kernels", recording)
        f, y = self.data()
        s = slice_target(y, sdr.N_SLICES)
        for method, (sel, phi) in sdr.fit_indices(sdr.KERNEL_METHODS, f, y, 100, l).items():
            kern = build_kernels([method], f, s)[method]
            assert np.array_equal(phi, kern.eigenvectors[:, : min(l, 6)])
            # a copy of the leading eigenvectors, out of the frozen estimate
            assert phi.flags.c_contiguous
            assert not np.shares_memory(phi, built[method].eigenvectors)
            assert np.array_equal(sel.objective, select_dimension(kern, 100, 400).objective)

    @pytest.mark.parametrize("l", [0, -1, "foo"])
    def test_l_must_be_auto_or_at_least_one(self, l, monkeypatch):
        def building(*args):
            raise AssertionError("built a kernel for an invalid l")

        monkeypatch.setattr(sdr, "build_kernels", building)
        f, y = self.data()
        message = f"^l must be 'auto' or an integer >= 1, got {l!r}$"
        with pytest.raises(ValueError, match=message):
            sdr.fit_indices(sdr.KERNEL_METHODS, f, y, 100, l)

    def test_directions_of_a_diagonal_kernel(self):
        # one observation a slice, and factors along orthogonal sign patterns:
        # SIR's kernel is diag(9, 3.2, 0.8) with off-diagonal entries exactly 0
        a = [1.0, -1.0] * 5
        b = [1.0, 1.0, -1.0, -1.0] * 2 + [0.0, 0.0]
        c = [1.0] * 4 + [-1.0] * 4 + [0.0, 0.0]
        f = np.column_stack([3.0 * np.array(a), 2.0 * np.array(b), c])
        [(_, phi)] = sdr.fit_indices(["sir"], f, np.arange(10.0), 100, 2).values()
        assert np.allclose(np.abs(phi), np.eye(3)[:, :2])

    def test_full_dimension(self):
        # l at or above K takes an orthogonal K x K basis
        f, y = self.data(k=3)
        for l in (3, 6):
            for _, phi in sdr.fit_indices(sdr.KERNEL_METHODS, f, y, 100, l).values():
                assert phi.shape == (3, 3)
                assert np.allclose(phi @ phi.T, np.eye(3), atol=1e-10)

    def test_cubic_characteristic_oracle(self):
        f, y = self.data(k=3)
        s = slice_target(y, sdr.N_SLICES)
        for method, (_, phi) in sdr.fit_indices(sdr.KERNEL_METHODS, f, y, 100, 3).items():
            kern = build_kernels([method], f, s)[method]
            m = kern.matrix
            # roots of det(M - lambda I) from explicit cubic coefficients
            tr = np.trace(m)
            m2 = sum(
                m[i, i] * m[j, j] - m[i, j] ** 2 for i in range(3) for j in range(i + 1, 3)
            )
            roots = np.sort(np.roots([1.0, -tr, m2, -np.linalg.det(m)]).real)[::-1]
            assert np.allclose(kern.eigenvalues, roots, atol=1e-8), method
            for j in range(3):
                assert np.linalg.norm(m @ phi[:, j] - roots[j] * phi[:, j]) < 1e-8, method

    def test_auto_takes_the_selected_count(self):
        f, y = self.data()
        s = slice_target(y, sdr.N_SLICES)
        counts = {}
        for method, (sel, phi) in sdr.fit_indices(sdr.KERNEL_METHODS, f, y, 100, "auto").items():
            kern = build_kernels([method], f, s)[method]
            alone = select_dimension(kern, 100, 400)
            assert (sel.l_hat, sel.tau, sel.c_t) == (alone.l_hat, alone.tau, alone.c_t)
            assert np.array_equal(sel.objective, alone.objective)
            assert np.array_equal(phi, kern.eigenvectors[:, : sel.l_hat])
            counts[method] = sel.l_hat
        # the counts differ between methods, so each follows its own selection
        assert len(set(counts.values())) > 1

    def test_no_kernel_method_slices_nothing(self, monkeypatch):
        def slicing(y, h_count):
            raise AssertionError("sliced without a kernel method")

        monkeypatch.setattr(sdr, "slice_target", slicing)
        f, y = self.data(t_len=7)
        assert 7 < sdr.N_SLICES
        assert sdr.fit_indices(("pc", "nlpc"), f, y, 20, 2) == {}
        assert sdr.fit_indices((), f, y, 20, "auto") == {}


class TestBuildKernel:
    @pytest.mark.parametrize("method", sdr.KERNEL_METHODS)
    def test_spectrum_is_that_of_the_matrix(self, method):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((50, 3))
        s = slice_target(rng.standard_normal(50), 5)
        kern = build_kernels([method], f, s)[method]
        vals, vecs = sym_eig_desc(kern.matrix)
        assert np.array_equal(kern.eigenvalues, vals)
        assert np.array_equal(kern.eigenvectors, vecs)

    @pytest.mark.parametrize("method", sdr.KERNEL_METHODS)
    def test_one_eigendecomposition_per_kernel(self, method, monkeypatch):
        seen = []

        def recording(m):
            seen.append(m.shape)
            return sym_eig_desc(m)

        monkeypatch.setattr(sdr, "sym_eig_desc", recording)
        rng = np.random.default_rng(10)
        f = rng.standard_normal((50, 3))
        # the index step reads both the spectrum and the directions
        sdr.fit_indices([method], f, rng.standard_normal(50), 20, 2)
        assert seen == [(3, 3)]

    def test_unknown_method(self):
        s = slice_target(FOUR_POINT_F[:, 0], 2)
        with pytest.raises(ValueError, match="unknown kernel method 'pc'"):
            build_kernels(["pc"], FOUR_POINT_F, s)
