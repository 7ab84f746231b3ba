import numpy as np
import pytest

from suffcast import _parallel
from suffcast._eigen import column_signs, leading_pairs, sym_eig_desc

#: fixed before any run: eigenvalues relative to the largest, unit eigenvectors
VALUE_TOL = 1e-12
VECTOR_TOL = 1e-10


def spd(n, seed):
    """A random symmetric positive definite Gram matrix of order ``n``."""
    x = np.random.default_rng(seed).standard_normal((n, 2 * n))
    return x @ x.T


def eigh_oracle(m, k):
    """The ``k`` largest eigenpairs from ``np.linalg.eigh``, descending, sign-fixed."""
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[::-1][:k], vecs[:, ::-1][:, :k]
    return vals, vecs * column_signs(vecs)


def assert_close_pairs(got, expected):
    (vals, vecs), (ref_vals, ref_vecs) = got, expected
    assert vals.shape == ref_vals.shape and vecs.shape == ref_vecs.shape
    assert np.abs(vals - ref_vals).max() <= VALUE_TOL * ref_vals[0]
    assert np.abs(vecs - ref_vecs).max() <= VECTOR_TOL


@pytest.fixture
def dsyevr_orders(monkeypatch):
    """The order ``n`` of each ``dsyevr`` call, or ``None`` where numpy's OpenBLAS has none."""
    openblas = _parallel.bundled_openblas()
    if openblas is None or openblas.dsyevr is None:
        return None
    orders = []

    def recording(*args):
        orders.append(args[4])
        return openblas.dsyevr(*args)

    recorded = openblas._replace(dsyevr=recording)
    monkeypatch.setattr(_parallel, "bundled_openblas", lambda: recorded)
    return orders


@pytest.mark.parametrize("n", [100, 120])
@pytest.mark.parametrize("k", [1, 9, 30])
def test_matches_eigh_oracle(n, k, dsyevr_orders):
    m = spd(n, seed=n + k)
    assert_close_pairs(leading_pairs(m, k), eigh_oracle(m, k))
    # where it resolves, LAPACK's subset solver is the one that ran
    assert dsyevr_orders in (None, [n])


@pytest.mark.parametrize("extra", [0, 3])
def test_k_at_least_n_returns_every_pair(extra):
    m = spd(12, seed=1)
    vals, vecs = leading_pairs(m, 12 + extra)
    assert_close_pairs((vals, vecs), eigh_oracle(m, 12))


def test_conventions_of_canonical_pairs():
    vals, vecs = leading_pairs(spd(40, seed=2), 6)
    assert np.all(np.diff(vals) < 0)
    assert np.all(vecs[np.abs(vecs).argmax(axis=0), np.arange(6)] > 0)
    assert np.allclose(vecs.T @ vecs, np.eye(6), rtol=0, atol=VECTOR_TOL)


@pytest.mark.parametrize(
    "m, k, message",
    [(np.ones((3, 2)), 1, "square"), (np.ones(3), 1, "square"), (np.eye(3), 0, "k must be")],
)
def test_rejects_what_lapack_would_misread(m, k, message):
    with pytest.raises(ValueError, match=message):
        leading_pairs(m, k)


def test_input_left_as_it_was():
    m = spd(30, seed=3)
    before = m.copy()
    leading_pairs(m, 5)
    assert np.array_equal(m, before)


def test_without_the_bundled_library_falls_back(monkeypatch):
    monkeypatch.setattr(_parallel, "bundled_openblas", lambda: None)
    m = spd(50, seed=4)
    vals, vecs = leading_pairs(m, 7)
    all_vals, all_vecs = sym_eig_desc(m)
    assert np.array_equal(vals, all_vals[:7])
    assert np.array_equal(vecs, all_vecs[:, :7])
    assert _parallel.blas_threads() is None


def test_without_dsyevr_falls_back(monkeypatch):
    # a bundled OpenBLAS that exports no LAPACKE keeps its thread pin
    fake = _parallel.OpenBLAS(lambda n: None, lambda: 1, None)
    monkeypatch.setattr(_parallel, "bundled_openblas", lambda: fake)
    m = spd(20, seed=5)
    vals, vecs = leading_pairs(m, 3)
    all_vals, all_vecs = sym_eig_desc(m)
    assert np.array_equal(vals, all_vals[:3])
    assert np.array_equal(vecs, all_vecs[:, :3])
    assert _parallel.blas_threads() == _parallel.BLAS_THREADS


def test_nonzero_info_raises(monkeypatch):
    fake = _parallel.OpenBLAS(lambda n: None, lambda: 1, lambda *args: 3)
    monkeypatch.setattr(_parallel, "bundled_openblas", lambda: fake)
    with pytest.raises(np.linalg.LinAlgError, match="info=3"):
        leading_pairs(spd(10, seed=6), 2)

