"""Shared eigendecomposition conventions for symmetric matrices.

All eigenvector-based quantities in this package (factor estimates, kernel
directions, identifiability rotations) use the same deterministic ordering
and sign rules so that results are reproducible across runs and platforms.
"""
from __future__ import annotations

import numpy as np


def sym_eig_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, in the conventions of :func:`canonical_pairs`."""
    m = np.asarray(m, dtype=float)
    vals, vecs = np.linalg.eigh(m)
    # reversed views; the reordering in canonical_pairs makes the one copy
    return canonical_pairs(vals[::-1], vecs[:, ::-1])


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
