import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suffcast import (
    KernelEstimate,
    build_kernel,
    extract_directions,
    select_dimension,
    slice_target,
    subspace_r2,
)
from suffcast import sdr
from suffcast._eigen import sym_eig_desc

FOUR_POINT_F = np.array([[-2.0], [-1.0], [1.0], [2.0]])


def kernel_of(m):
    """A kernel estimate of a given symmetric matrix."""
    vals, vecs = sym_eig_desc(m)
    return KernelEstimate("dr", m, vals, vecs)


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


class TestSirKernel:
    def test_single_slice_vanishes(self):
        s = slice_target(FOUR_POINT_F[:, 0], 1)
        assert build_kernel("sir", FOUR_POINT_F, s).matrix[0, 0] == 0.0

    def test_monotone_link_hand_value(self):
        s = slice_target(FOUR_POINT_F[:, 0], 2)
        assert build_kernel("sir", FOUR_POINT_F, s).matrix[0, 0] == pytest.approx(2.25, abs=1e-14)

    def test_symmetric_link_blindness_exact(self):
        s = slice_target(FOUR_POINT_F[:, 0] ** 2, 2)
        assert build_kernel("sir", FOUR_POINT_F, s).matrix[0, 0] == 0.0


class TestDrKernel:
    def test_single_slice_pooled_vanishes(self):
        s = slice_target(FOUR_POINT_F[:, 0], 1)
        assert build_kernel("dr", FOUR_POINT_F, s, "pooled").matrix[0, 0] == 0.0
        assert dr_kernel_pairform(FOUR_POINT_F, s, "pooled")[0, 0] == 0.0

    def test_symmetric_link_hand_value(self):
        s = slice_target(FOUR_POINT_F[:, 0] ** 2, 2)
        assert build_kernel("dr", FOUR_POINT_F, s, "pooled").matrix[0, 0] == pytest.approx(4.5)
        assert dr_kernel_pairform(FOUR_POINT_F, s, "pooled")[0, 0] == pytest.approx(4.5)

    def test_unknown_variance_mode(self):
        s = slice_target(FOUR_POINT_F[:, 0], 2)
        with pytest.raises(ValueError, match="variance_mode"):
            build_kernel("dr", FOUR_POINT_F, s, "bogus")

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 10))
    def test_pairform_identity_pooled(self, seed, k, h):
        rng = np.random.default_rng(seed)
        t_len = int(rng.integers(max(h, 2 * k) + 3, 80))
        f = rng.standard_normal((t_len, k))
        y = rng.standard_normal(t_len)
        s = slice_target(y, h)
        a = build_kernel("dr", f, s, "pooled").matrix
        b = dr_kernel_pairform(f, s, "pooled")
        scale = max(np.linalg.norm(a), 1e-12)
        assert np.linalg.norm(a - b) / scale < 1e-10


class TestTmKernel:
    def test_symmetric_four_point_zero(self):
        s = slice_target(FOUR_POINT_F[:, 0] ** 2, 2)
        assert build_kernel("tm", FOUR_POINT_F, s).matrix[0, 0] == pytest.approx(0.0, abs=1e-14)

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
        assert build_kernel("tm", f, s).matrix[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_brute_force_tensor_oracle(self):
        rng = np.random.default_rng(2)
        k, t_len = 2, 8
        f = rng.standard_normal((t_len, k))
        y = rng.standard_normal(t_len)
        s = slice_target(y, 2)
        assert np.allclose(
            build_kernel("tm", f, s).matrix, brute_force_tm(f, s), rtol=1e-10, atol=1e-12
        )

    def test_slice_too_small(self):
        f = np.arange(3.0)[:, None]
        s = slice_target(np.arange(3.0), 3)
        with pytest.raises(ValueError, match="slice too small"):
            build_kernel("tm", f, s)


def dr_kernel_pairform(f, slices, variance_mode="identity"):
    """Double sum over slice pairs of the DR kernel, from loop-built slice moments.

    Accumulates ``sum_{h,g} p_h p_g M_{h,g}^2`` with
    ``M_{h,g} = 2V - S_h - S_g + m_h m_g' + m_g m_h'``, where ``m_h`` and
    ``S_h`` are the slice mean and second moment of the centered factors and
    ``V`` is the identity or the pooled second moment.  In pooled mode this
    equals ``build_kernel("dr", ...)``: global centering makes
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


class TestEnsembleKernel:
    def test_degenerate_sides(self, monkeypatch):
        # a zero side leaves the other side's matrix bit for bit
        rng = np.random.default_rng(3)
        f = rng.standard_normal((20, 2))
        s = slice_target(rng.standard_normal(20), 4)
        dr = build_kernel("dr", f, s)
        tm = build_kernel("tm", f, s)
        with monkeypatch.context() as m:
            m.setattr(sdr, "_tm_matrix", lambda g, slices: np.zeros((2, 2)))
            assert np.array_equal(build_kernel("ens", f, s).matrix, dr.matrix)
        with monkeypatch.context() as m:
            m.setattr(sdr, "_dr_matrix", lambda g, slices, mode: np.zeros((2, 2)))
            assert np.array_equal(build_kernel("ens", f, s).matrix, tm.matrix)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((20, 2))
        s = slice_target(rng.standard_normal(21), 4)
        with pytest.raises(ValueError, match="factors cover T=20 but slices cover T=21"):
            build_kernel("ens", f, s)

    @pytest.mark.parametrize("mode", ["identity", "pooled"])
    def test_sum_of_dr_and_tm_bit_for_bit(self, mode):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((60, 4))
        s = slice_target(f[:, 0] ** 2 + 0.3 * rng.standard_normal(60), 5)
        ens = build_kernel("ens", f, s, mode)
        assert ens.method == "ens"
        assert np.array_equal(
            ens.matrix, build_kernel("dr", f, s, mode).matrix + build_kernel("tm", f, s).matrix
        )
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
        dr = build_kernel("dr", f, s, "pooled")
        tm = build_kernel("tm", f, s)
        ens = build_kernel("ens", f, s, "pooled")
        basis = np.eye(k)[:, :2]
        quality = {}
        for name, kern in (("dr", dr), ("tm", tm), ("ens", ens)):
            phi = extract_directions(kern, 2)
            quality[name] = min(subspace_r2(phi[:, j], basis) for j in range(2))
        assert quality["dr"] < 0.2
        assert quality["ens"] > quality["dr"] + 0.02
        assert quality["ens"] > quality["tm"] + 0.02
        assert quality["ens"] > 0.95


class TestExtractDirections:
    def test_diagonal_kernel(self):
        kern = kernel_of(np.diag([3.0, 2.0, 1.0]))
        phi = extract_directions(kern, 2)
        assert np.allclose(np.abs(phi), np.eye(3)[:, :2])
        # the leading eigenvectors, copied out of the frozen estimate
        assert np.array_equal(phi, kern.eigenvectors[:, :2])
        assert not np.shares_memory(phi, kern.eigenvectors)

    def test_full_dimension(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 3))
        m = m + m.T
        kern = kernel_of(m)
        phi = extract_directions(kern, 3)
        assert np.allclose(phi @ phi.T, np.eye(3), atol=1e-10)

    def test_cubic_characteristic_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 3))
        m = (m + m.T) / 2
        kern = kernel_of(m)
        phi = extract_directions(kern, 3)
        # roots of det(M - lambda I) from explicit cubic coefficients
        tr = np.trace(m)
        m2 = sum(
            m[i, i] * m[j, j] - m[i, j] ** 2 for i in range(3) for j in range(i + 1, 3)
        )
        roots = np.sort(np.roots([1.0, -tr, m2, -np.linalg.det(m)]).real)[::-1]
        assert np.allclose(kern.eigenvalues, roots, atol=1e-8)
        for j in range(3):
            assert np.linalg.norm(m @ phi[:, j] - roots[j] * phi[:, j]) < 1e-8

    def test_l_out_of_range(self):
        kern = kernel_of(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            extract_directions(kern, 3)


def literal_ct(method, k, p, t_len, ct_multiplier=1.0):
    """The penalty scale ``c_t`` of the ``select_dimension`` docstring, written out."""
    sampling = np.sqrt(t_len) if method in ("sir", "dr") else np.sqrt(k * t_len)
    return ct_multiplier * sdr.CT_CALIBRATION * (np.sqrt(k / p) * t_len + sampling)


class TestSelectDimension:
    def kernel(self, eigenvalues, k=None, method="dr"):
        eigenvalues = np.asarray(eigenvalues, dtype=float)
        k = k or len(eigenvalues)
        return KernelEstimate(method, np.diag(eigenvalues), eigenvalues, np.eye(k))

    def test_clean_spectral_gap(self):
        kern = self.kernel([5.0, 4.0] + [0.0] * 6)
        sel = select_dimension(kern, 100, 500, 1.0)
        assert sel.c_t == pytest.approx(literal_ct("dr", 8, 100, 500), rel=1e-12)
        assert sel.l_hat == 2

    def test_degenerate_kernel_returns_one(self):
        kern = self.kernel([0.0] * 8)
        sel = select_dimension(kern, 100, 500, 1.0)
        assert sel.c_t == pytest.approx(literal_ct("dr", 8, 100, 500), rel=1e-12)
        assert sel.l_hat == 1
        assert sel.tau == 0

    def test_objective_matches_formula_literally(self):
        lam = np.array([3.0, 1.5, 0.4, 0.1, 0.0, 0.0])
        kern = self.kernel(lam)
        p, t_len = 50, 200
        sel = select_dimension(kern, p, t_len, 3.0)
        k, k_c = 6, 3
        tau = 4
        c_t = literal_ct("dr", k, p, t_len, 3.0)
        assert sel.c_t == pytest.approx(c_t, rel=1e-12)
        for l in range(1, k_c + 1):
            w = sum(np.log(lam[i] + 1) - lam[i] for i in range(min(tau, l), k_c))
            expected = (t_len / 2) * w - c_t * l * (2 * k - l + 1) / 2
            assert sel.objective[l - 1] == pytest.approx(expected, rel=1e-12)

    def test_scale_awareness(self):
        # the objective is deliberately not scale-free
        a = select_dimension(self.kernel([5.0, 4.0, 0.3, 0.0, 0.0, 0.0]), 100, 500, 1.0)
        b = select_dimension(self.kernel([0.05, 0.04, 0.003, 0.0, 0.0, 0.0]), 100, 500, 1.0)
        assert a.c_t == b.c_t == pytest.approx(literal_ct("dr", 6, 100, 500), rel=1e-12)
        assert a.l_hat != b.l_hat

    def test_default_ct_formulas(self):
        k, p, t = 6, 100, 500
        base = np.sqrt(k / p) * t
        for method, sampling in (
            ("sir", np.sqrt(t)), ("dr", np.sqrt(t)), ("tm", np.sqrt(k * t)), ("ens", np.sqrt(k * t))
        ):
            kern = self.kernel([1.0] * k, method=method)
            for multiplier in (1.0, 2.5):
                assert select_dimension(kern, p, t, multiplier).c_t == pytest.approx(
                    multiplier * sdr.CT_CALIBRATION * (base + sampling), rel=1e-12
                )
        with pytest.raises(ValueError, match="unknown kernel method 'DR'"):
            select_dimension(self.kernel([1.0] * k, method="DR"), p, t, 1.0)


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
            m = build_kernel(method, f, s).matrix
            m_rot = build_kernel(method, f @ q.T, s).matrix
            assert np.linalg.norm(m_rot - q @ m @ q.T) <= 1e-10 * max(np.linalg.norm(m), 1.0)

    def test_signed_permutation_covariance_tm(self):
        # the distinct-row reduction keeps TM covariant under signed
        # permutations (the reduced row set maps onto itself); general
        # rotations reweight duplicate rows and are exercised via DR
        rng = np.random.default_rng(6)
        k, t_len = 3, 48
        f = rng.standard_normal((t_len, k))
        s = slice_target(rng.standard_normal(t_len), 4)
        perm = np.zeros((k, k))
        perm[0, 1], perm[1, 2], perm[2, 0] = 1.0, -1.0, 1.0
        m = build_kernel("tm", f, s).matrix
        m_rot = build_kernel("tm", f @ perm.T, s).matrix
        assert np.linalg.norm(m_rot - perm @ m @ perm.T) <= 1e-10 * np.linalg.norm(m)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_dr_tm_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        s = slice_target(y, 4)
        for mode in ("identity", "pooled"):
            assert build_kernel("dr", f, s, mode).eigenvalues[-1] >= -1e-10
        assert build_kernel("tm", f, s).eigenvalues[-1] >= -1e-10

    def test_kernel_symmetry(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal((30, 4))
        s = slice_target(rng.standard_normal(30), 5)
        for kern in (build_kernel("sir", f, s), build_kernel("dr", f, s), build_kernel("tm", f, s)):
            assert np.abs(kern.matrix - kern.matrix.T).max() < 1e-12


class TestBuildKernel:
    @pytest.mark.parametrize("method", sdr.KERNEL_METHODS)
    def test_spectrum_is_that_of_the_matrix(self, method):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((50, 3))
        s = slice_target(rng.standard_normal(50), 5)
        kern = build_kernel(method, f, s)
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
        s = slice_target(rng.standard_normal(50), 5)
        kern = build_kernel(method, f, s)
        extract_directions(kern, 2)
        select_dimension(kern, 20, 50, 1.0)
        assert seen == [(3, 3)]

    def test_unknown_method(self):
        s = slice_target(FOUR_POINT_F[:, 0], 2)
        with pytest.raises(ValueError, match="unknown kernel method 'pc'"):
            build_kernel("pc", FOUR_POINT_F, s)
