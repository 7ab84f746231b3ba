"""Shared eigendecomposition conventions for symmetric matrices.

All eigenvector-based quantities in this package (factor estimates, kernel
directions, identifiability rotations) use the same deterministic ordering
and sign rules so that results are reproducible across runs and platforms.
"""
from __future__ import annotations

import numpy as np


def sym_eig_desc(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix with deterministic conventions.

    Eigenvalues are returned in descending order.  Exact eigenvalue ties are
    ordered by the first index of each eigenvector's largest-magnitude entry,
    and each eigenvector is sign-fixed so that its largest-magnitude entry is
    nonnegative.
    """
    m = np.asarray(m, dtype=float)
    vals, vecs = np.linalg.eigh(m)
    # reversed views; the reordering below makes the one copy
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    anchors = np.abs(vecs).argmax(axis=0)
    # lexsort: primary key descending eigenvalue, tie-break by anchor index
    order = np.lexsort((anchors, -vals))
    vals = vals[order]
    vecs = vecs[:, order]
    vecs *= column_signs(vecs)
    return vals, vecs


def column_signs(m: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1 or -1) that makes its largest-magnitude entry nonnegative."""
    signs = np.sign(m[np.abs(m).argmax(axis=0), np.arange(m.shape[1])])
    signs[signs == 0] = 1.0
    return signs
