"""Shared eigendecomposition conventions for symmetric matrices.

All eigenvector-based quantities in this package (factor estimates, kernel
directions, identifiability rotations) use the same deterministic ordering
and sign rules so that results are reproducible across runs and platforms.
"""
from __future__ import annotations

import ctypes

import numpy as np

from . import _parallel

#: LAPACKE's code for a column-major matrix
_COL_MAJOR = 102


def sym_eig_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, in the conventions of :func:`canonical_pairs`."""
    m = np.asarray(m, dtype=float)
    vals, vecs = np.linalg.eigh(m)
    # reversed views; the reordering in canonical_pairs makes the one copy
    return canonical_pairs(vals[::-1], vecs[:, ::-1])


def leading_pairs(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` largest eigenpairs of a symmetric matrix (all of them for ``k >= n``).

    They are in the conventions of :func:`canonical_pairs`, applied to the
    ``k`` pairs alone.  LAPACK's ``dsyevr``, from numpy's bundled OpenBLAS,
    computes only those pairs, reading the lower triangle as
    ``np.linalg.eigh`` does.  For ``k < n`` it finds them by bisection and
    inverse iteration on the tridiagonal form (its relatively robust
    representations serve only the whole spectrum), so a pair's last bits
    depend on how many pairs are requested.  Where no ``dsyevr`` resolves,
    these are the first ``k`` pairs of :func:`sym_eig_desc`.  A nonzero
    ``info`` raises ``np.linalg.LinAlgError``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = m.shape[0]
    k = min(k, n)
    openblas = _parallel.bundled_openblas()
    if openblas is None or openblas.dsyevr is None:
        vals, vecs = sym_eig_desc(m)
        return vals[:k], vecs[:, :k]
    # dsyevr overwrites its triangle of a; every buffer is named, so it
    # outlives the call
    a = np.array(m, order="F")
    w = np.empty(n)
    z = np.empty((n, k), order="F")
    isuppz = np.empty(2 * n, dtype=np.int64)
    found = ctypes.c_int64()
    info = openblas.dsyevr(
        _COL_MAJOR, b"V", b"I", b"L", n, a, n, 0.0, 0.0, n - k + 1, n, 0.0,
        ctypes.byref(found), w, z, n, isuppz,
    )
    if info != 0 or found.value != k:
        raise np.linalg.LinAlgError(f"dsyevr failed: info={info}, {found.value} of {k} pairs")
    # ascending; reversed views, and canonical_pairs makes the one copy
    return canonical_pairs(w[k - 1::-1], z[:, ::-1])


def canonical_pairs(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New arrays of the eigenpairs ``vals`` and columns of ``vecs``, in the one convention.

    Eigenvalues are in descending order.  Exact eigenvalue ties are ordered
    by the first index of each eigenvector's largest-magnitude entry, and
    each eigenvector is sign-fixed so that its largest-magnitude entry is
    nonnegative.
    """
    anchors = np.abs(vecs).argmax(axis=0)
    # lexsort: primary key descending eigenvalue, tie-break by anchor index
    order = np.lexsort((anchors, -vals))
    vecs = vecs[:, order]
    vecs *= column_signs(vecs)
    return vals[order], vecs


def column_signs(m: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1 or -1) that makes its largest-magnitude entry nonnegative."""
    signs = np.sign(m[np.abs(m).argmax(axis=0), np.arange(m.shape[1])])
    signs[signs == 0] = 1.0
    return signs
