import numpy as np
import pytest

from suffcast import (
    FactorEstimate,
    estimated_factors_known_loadings,
    select_and_fit_factors,
)
from suffcast import factor_analysis
from suffcast._eigen import sym_eig_desc
from suffcast.factor_analysis import bai_ng_penalty


def residuals(x: np.ndarray, fit: FactorEstimate) -> np.ndarray:
    """Return ``x - B F'`` for a fitted factor model."""
    p, t_len = fit.loadings.shape[0], fit.factors.shape[0]
    if x.shape != (p, t_len):
        raise ValueError(f"x has shape {x.shape}, fit expects ({p}, {t_len})")
    return x - fit.loadings @ fit.factors.T


def fit_k(x, k):
    """The rank-``k`` factor fit."""
    return select_and_fit_factors(x, 1, k)[1]


def random_panel(p, t_len, seed=0):
    return np.random.default_rng(seed).standard_normal((p, t_len))


def noiseless_panel(p, t_len, rank, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((p, rank)) @ rng.standard_normal((rank, t_len))


def tied_panel():
    """2 x 6 panel whose nonzero eigenvalues tie exactly; the p x p and T x T
    eigenvectors are anchored in opposite orders."""
    x = np.zeros((2, 6))
    x[0, 4] = x[1, 1] = 3.0
    return x


def tt_oracle(x, k):
    """Factors and eigenvalues from the T x T Gram matrix X'X."""
    p, t_len = x.shape
    vals, vecs = sym_eig_desc(x.T @ x)
    return np.sqrt(t_len) * vecs[:, :k], np.maximum(vals[:k], 0.0) / (p * t_len)


#: (panel, k): p < T with separated spectra, an exact tie, a noiseless rank-2
#: panel with k > rank (the T x T fallback), and p >= T
ORACLE_CASES = {
    "p<T": (random_panel(12, 30, seed=15), 4),
    "p<T k=p": (random_panel(5, 8, seed=16), 5),
    "p<T study shape": (random_panel(100, 500, seed=17), 6),
    "p<T exact tie": (tied_panel(), 2),
    "rank 2 < k": (noiseless_panel(10, 40, 2, seed=18), 4),
    "p>T": (random_panel(30, 12, seed=19), 4),
    "p=T": (random_panel(9, 9, seed=20), 3),
}


class TestFitFactors:
    def test_rank_one_noiseless(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(5)
        f = rng.standard_normal(8)
        f = f / np.sqrt((f**2).mean())  # T^-1 f'f = 1
        x = np.outer(b, f)
        fit = fit_k(x, 1)
        # span match: fitted factor is +-f
        cos = abs(fit.factors[:, 0] @ f) / (np.linalg.norm(fit.factors) * np.linalg.norm(f))
        assert cos == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(residuals(x, fit)) < 1e-10

    def test_full_rank_reconstruction(self):
        x = random_panel(5, 8, seed=2)
        fit = fit_k(x, 5)
        assert np.allclose(fit.loadings @ fit.factors.T, x, atol=1e-10)

    def test_residual_matches_svd_oracle(self):
        x = random_panel(5, 8, seed=3)
        fit = fit_k(x, 2)
        tail = np.linalg.svd(x, compute_uv=False)[2:]
        assert np.linalg.norm(residuals(x, fit)) ** 2 == pytest.approx(
            (tail**2).sum(), rel=1e-10
        )

    def test_invariants(self):
        x = random_panel(12, 30, seed=4)
        fit = fit_k(x, 4)
        t_len = 30
        assert np.allclose(fit.factors.T @ fit.factors / t_len, np.eye(4), atol=1e-10)
        gram = fit.loadings.T @ fit.loadings
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8
        assert np.all(np.diff(np.diag(gram)) <= 1e-12)
        assert np.allclose(fit.loadings, x @ fit.factors / t_len)
        # sign convention: largest-magnitude entry of each factor column nonnegative
        for j in range(4):
            col = fit.factors[:, j]
            assert col[np.abs(col).argmax()] >= 0
        # eigenvalues equal squared loading column norms over p
        assert np.allclose((fit.loadings**2).sum(axis=0) / 12, fit.eigenvalues, rtol=1e-10)

    @pytest.mark.parametrize("x, k", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
    def test_matches_tt_gram_oracle(self, x, k):
        fit = fit_k(x, k)
        factors, eigenvalues = tt_oracle(x, k)
        p, t_len = x.shape
        if p >= t_len:  # this route is the oracle
            assert np.array_equal(fit.factors, factors)
            assert np.array_equal(fit.eigenvalues, eigenvalues)
        elif k <= np.linalg.matrix_rank(x):
            assert np.allclose(fit.factors, factors, rtol=0, atol=1e-10)
            assert np.allclose(fit.eigenvalues, eigenvalues, rtol=1e-10, atol=0)
        else:  # beyond the rank only the span is determined
            span = fit.factors @ fit.factors.T / t_len
            assert np.allclose(span, factors @ factors.T / t_len, rtol=0, atol=1e-10)
        assert np.allclose(fit.loadings, x @ fit.factors / t_len)

    @pytest.mark.parametrize(
        "x, k, shapes",
        [
            (random_panel(12, 30, seed=21), 4, [(12, 12)]),
            (noiseless_panel(10, 40, 2, seed=18), 4, [(10, 10), (40, 40)]),
            (random_panel(30, 12, seed=22), 4, [(12, 12)]),
        ],
        ids=["p<T full rank", "p<T rank 2 < k", "p>T"],
    )
    def test_decomposes_smaller_gram_matrix(self, x, k, shapes, monkeypatch):
        seen = []

        def recording(m):
            seen.append(m.shape)
            return sym_eig_desc(m)

        monkeypatch.setattr(factor_analysis, "sym_eig_desc", recording)
        fit_k(x, k)
        assert seen == shapes

    def test_monotone_residual_in_k(self):
        x = random_panel(10, 14, seed=5)
        norms = [np.linalg.norm(residuals(x, fit_k(x, k))) for k in range(1, 11)]
        assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))

    def test_sign_flip_of_panel_keeps_spans(self):
        x = random_panel(9, 12, seed=6)
        f1 = fit_k(x, 3).factors
        f2 = fit_k(-x, 3).factors
        # X'X is unchanged, so the factor span (and here the factors) agree
        assert np.allclose(f1 @ (f1.T @ f2) / 12, f2, atol=1e-8)

    def test_bad_k(self):
        x = random_panel(4, 6)
        with pytest.raises(ValueError, match="out of range"):
            fit_k(x, 5)

    def test_non_finite(self):
        x = random_panel(4, 6)
        x[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            fit_k(x, 2)


class TestKnownLoadings:
    def test_zero_noise_recovery(self):
        rng = np.random.default_rng(7)
        b = rng.standard_normal((10, 2))
        f = rng.standard_normal((15, 2))
        out = estimated_factors_known_loadings(b @ f.T, b)
        assert np.allclose(out, f, atol=1e-10)

    def test_identity_loadings(self):
        x = random_panel(4, 6, seed=8)
        assert np.allclose(estimated_factors_known_loadings(x, np.eye(4)), x.T)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((12, 3))
        f = rng.standard_normal((20, 3))
        u = 0.3 * rng.standard_normal((12, 20))
        x = b @ f.T + u
        out = estimated_factors_known_loadings(x, b)
        offsets = np.linalg.inv(b.T @ b) @ b.T @ u
        assert np.allclose(out, f + offsets.T, atol=1e-10)

    def test_rank_deficient(self):
        b = np.ones((5, 2))
        with pytest.raises(ValueError, match="rank-deficient"):
            estimated_factors_known_loadings(random_panel(5, 6), b)


class TestResiduals:
    def test_noiseless_zero(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 11))
        fit = fit_k(x, 3)
        assert np.abs(residuals(x, fit)).max() < 1e-10

    def test_rank_one_frobenius_oracle(self):
        x = random_panel(6, 9, seed=11)
        fit = fit_k(x, 1)
        tail = np.linalg.svd(x, compute_uv=False)[1:]
        assert np.linalg.norm(residuals(x, fit)) == pytest.approx(
            np.sqrt((tail**2).sum()), rel=1e-10
        )

    def test_dimension_mismatch(self):
        fit = fit_k(random_panel(5, 8), 2)
        with pytest.raises(ValueError, match="shape"):
            residuals(random_panel(5, 9), fit)


class TestSelectNumFactors:
    def test_noiseless_rank3(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((50, 3)) @ rng.standard_normal((3, 60))
        sel = select_and_fit_factors(x, 8)[0]
        assert sel.k_hat == 3
        # residual floor: the log-residual term is flat beyond the true rank
        assert np.allclose(sel.log_resid[3:], sel.log_resid[3])

    def test_iid_noise_prefers_zero(self):
        # observed frequency over 100 seeds; pure noise should almost never
        # admit a factor at p = T = 200
        hits = sum(
            select_and_fit_factors(random_panel(200, 200, seed=s), 8)[0].k_hat == 0
            for s in range(100)
        )
        assert hits >= 95, f"K=0 chosen in only {hits}/100 noise panels"

    def test_criterion_matches_direct_residual_oracle(self):
        x = random_panel(20, 25, seed=13)
        sel = select_and_fit_factors(x, 5)[0]
        for k in range(1, 6):
            fit = fit_k(x, k)
            direct = np.log(np.linalg.norm(residuals(x, fit)) ** 2 / x.size)
            assert sel.log_resid[k] == pytest.approx(direct, rel=1e-8)
        assert sel.log_resid[0] == pytest.approx(np.log((x**2).sum() / x.size), rel=1e-12)
        assert np.allclose(sel.penalties, bai_ng_penalty(20, 25) * np.arange(6))

    @pytest.mark.parametrize("p, t_len", [(20, 25), (25, 20)])
    @pytest.mark.parametrize("k", [None, 2])
    def test_select_and_fit_matches_separate_calls(self, p, t_len, k):
        x = random_panel(p, t_len, seed=23)
        # None: k left at its default, "auto"
        sel, fit = select_and_fit_factors(x, 5, *([] if k is None else [k]))
        # the selection does not depend on the fitted count
        alone = select_and_fit_factors(x, 5)[0]
        assert sel.k_hat == alone.k_hat
        assert np.array_equal(sel.criterion, alone.criterion)
        ref = fit_k(x, max(alone.k_hat, 1) if k is None else k)
        assert np.array_equal(fit.factors, ref.factors)
        assert np.array_equal(fit.eigenvalues, ref.eigenvalues)

    def test_k_max_out_of_range(self):
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            select_and_fit_factors(random_panel(5, 8), 0)
        # K = min(p, T) leaves a zero residual, so the candidates stop one below it
        for k_max in (4, 6, 100):
            selection, _ = select_and_fit_factors(random_panel(5, 8), k_max)
            assert selection.k_max == 4
            assert selection.log_resid.shape == (5,)
            assert selection.k_hat <= 4


def test_save_factor_estimate_round_trip(tmp_path):
    from suffcast import PanelData
    from suffcast.cli import main
    from test_panel_data import save_csv

    x = random_panel(6, 10, seed=14)
    panel = PanelData(
        x=x,
        series_names=tuple(f"s{i}" for i in range(6)),
        time_labels=tuple(f"t{i:02d}" for i in range(10)),
        y=np.zeros(10),
    )
    save_csv(panel, tmp_path / "panel.csv")
    assert main([
        "factors", "--input", str(tmp_path / "panel.csv"), "--target-column", "target",
        "--k", "2", "--standardize", "0", "--out-dir", str(tmp_path),
    ]) == 0
    fit = fit_k(x, 2)
    loadings = np.loadtxt(tmp_path / "loadings.csv", delimiter=",")
    factors = np.loadtxt(tmp_path / "factors.csv", delimiter=",")
    eigenvalues = np.loadtxt(tmp_path / "eigenvalues.csv", delimiter=",")
    assert np.array_equal(loadings, fit.loadings)
    assert np.array_equal(factors, fit.factors)
    assert np.array_equal(eigenvalues, fit.eigenvalues)
