"""Factor extraction by constrained least squares and factor-count selection.

Given a ``p x T`` panel ``X``, the rank-``K`` least-squares factorization
``X ~ B F'`` under the constraints ``F'F / T = I_K`` and ``B'B`` diagonal is
the principal-components solution: the columns of ``F / sqrt(T)`` are the
top-``K`` eigenvectors of the ``T x T`` Gram matrix ``X'X`` and ``B = X F / T``.

Only the smaller Gram matrix is eigendecomposed.  When ``p >= T`` that is
``X'X`` itself.  When ``p < T`` it is the ``p x p`` matrix ``XX'``, which has
the same nonzero eigenvalues: each eigenvector ``u`` maps to the factor column
``f = sqrt(T) X'u / ||X'u||``, and the mapped columns get the sign and
tie-order conventions of :func:`suffcast._eigen.sym_eig_desc`.  The map needs
``X'u != 0``, so when any of the ``K`` selected eigenvalues is at or below the
numerical rank tolerance (a panel of rank below ``K``, such as a noiseless
low-rank one) the fit falls back to ``X'X``, whose null-space eigenvectors
complete the factor basis.

The number of factors is selected by penalized log residual variance, computed
from the eigenvalues of the same smaller Gram matrix.
:func:`select_and_fit_factors` is the one factor fit: it shares one
eigendecomposition between the criterion and the fitted factors, whether the
count is fixed or ``"auto"``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._eigen import column_signs, sym_eig_desc


@dataclass(frozen=True, eq=False)
class FactorEstimate:
    """Estimated loadings, factors and spectrum of a fitted factor model.

    ``loadings`` is ``p x K``, ``factors`` is ``T x K`` (row ``t`` holds the
    factor values for time ``t``) and ``eigenvalues`` are the top ``K``
    eigenvalues of ``X'X / (pT)`` in descending order.  The estimate is the
    same whichever Gram matrix was decomposed (``XX'`` when ``p < T`` and the
    panel has rank at least ``K``, else ``X'X``), up to rounding.
    """

    loadings: np.ndarray
    factors: np.ndarray
    eigenvalues: np.ndarray

    @property
    def k(self) -> int:
        return self.factors.shape[1]

    @property
    def t_len(self) -> int:
        return self.factors.shape[0]


def _check_panel(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (series x time)")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite values")
    return x


def _rank_tol(vals: np.ndarray, p: int, t_len: int) -> float:
    """Eigenvalues of a Gram matrix at or below this count as exact zeros."""
    return vals[0] * max(p, t_len) * np.finfo(float).eps if vals[0] > 0 else 0.0


def _gram_eig(x: np.ndarray, transposed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of ``XX'`` (``transposed=False``) or ``X'X`` (``True``)."""
    name, gram = ("X'X", x.T @ x) if transposed else ("XX'", x @ x.T)
    try:
        return sym_eig_desc(gram)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"eigen-solver failure on {name}: {e}") from e


def _small_gram_eig(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the smaller Gram matrix: ``XX'`` when ``p < T``, else ``X'X``."""
    p, t_len = x.shape
    return _gram_eig(x, transposed=p >= t_len)


def _factors_from_eig(x: np.ndarray, k: int, vals: np.ndarray, vecs: np.ndarray) -> FactorEstimate:
    """Rank-``k`` factor estimate from the eigenpairs of the smaller Gram matrix."""
    p, t_len = x.shape
    if p < t_len and vals[k - 1] > _rank_tol(vals, p, t_len):
        mapped = x.T @ vecs[:, :k]
        factors = np.sqrt(t_len) * mapped / np.linalg.norm(mapped, axis=0)
        factors *= column_signs(factors)
        # exact eigenvalue ties: order by the factor column's anchor index,
        # as sym_eig_desc orders the eigenvectors of X'X
        anchors = np.abs(factors).argmax(axis=0)
        factors = factors[:, np.lexsort((anchors, -vals[:k]))]
    else:
        if p < t_len:
            vals, vecs = _gram_eig(x, transposed=True)
        factors = np.sqrt(t_len) * vecs[:, :k]
    loadings = x @ factors / t_len
    eigenvalues = np.maximum(vals[:k], 0.0) / (p * t_len)
    return FactorEstimate(loadings=loadings, factors=factors, eigenvalues=eigenvalues)


def estimated_factors_known_loadings(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Recover factor values by least squares given known loadings.

    Returns the ``T x K`` matrix whose row ``t`` is ``(B'B)^{-1} B' x[:, t]``.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape[0] != b.shape[0]:
        raise ValueError(f"x has {x.shape[0]} series but loadings have {b.shape[0]} rows")
    if np.linalg.matrix_rank(b) < b.shape[1]:
        raise ValueError("rank-deficient loadings: B'B is not invertible")
    return np.linalg.solve(b.T @ b, b.T @ x).T


def bai_ng_penalty(p: int, t_len: int) -> float:
    """Penalty per factor: ``(p+T)/(pT) * log(pT/(p+T))``."""
    return (p + t_len) / (p * t_len) * np.log(p * t_len / (p + t_len))


#: residual sums of squares are floored here before taking logs, so that
#: exactly-recovered panels yield a finite criterion
RESIDUAL_FLOOR = 1e-300


@dataclass(frozen=True, eq=False)
class NumFactorsSelection:
    """Result of the factor-count criterion: chosen order and its trace."""

    k_hat: int
    k_max: int  # largest K considered: min(k_max, min(p, T) - 1)
    log_resid: np.ndarray  # length k_max + 1, entry K is the log residual term
    penalties: np.ndarray  # length k_max + 1, entry K is K * g(p, T)

    @property
    def criterion(self) -> np.ndarray:
        return self.log_resid + self.penalties


def _selection(shape: tuple[int, int], vals: np.ndarray, k_max: int) -> NumFactorsSelection:
    """Factor-count criterion from the descending eigenvalues of a Gram matrix."""
    p, t_len = shape
    vals = np.where(vals > _rank_tol(vals, p, t_len), vals, 0.0)
    total = vals.sum()
    ss = total - np.concatenate(([0.0], np.cumsum(vals[:k_max])))
    ss = np.maximum(ss, RESIDUAL_FLOOR)
    log_resid = np.log(ss) - np.log(p * t_len)
    penalties = bai_ng_penalty(p, t_len) * np.arange(k_max + 1, dtype=float)
    k_hat = int(np.argmin(log_resid + penalties))
    return NumFactorsSelection(k_hat=k_hat, k_max=k_max, log_resid=log_resid, penalties=penalties)


def select_and_fit_factors(
    x: np.ndarray, k_max: int, k: int | str = "auto"
) -> tuple[NumFactorsSelection, FactorEstimate]:
    """Select the factor count and fit factors from one Gram eigendecomposition.

    The selected count minimizes ``log((pT)^{-1} ||X - B_K F_K'||_F^2) + K g(p, T)``
    over ``K = 0..min(k_max, min(p, T) - 1)`` (the ``K=0`` term is the log of
    the total mean square; at ``K = min(p, T)`` the residual is zero up to
    rounding), ``g`` being :func:`bai_ng_penalty`, ties broken toward smaller
    ``K``.  Eigenvalues below numerical rank tolerance count as exact zeros,
    so noiseless low-rank panels hit the residual floor at their true rank.

    The fit has ``k`` factors, or with ``k="auto"`` the selected count, at
    least 1.  Its factor columns are sign-fixed (largest-magnitude entry
    nonnegative) and ordered by descending eigenvalue, ties broken by the
    first index of each factor column's largest entry.
    """
    x = _check_panel(x)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    p, t_len = x.shape
    if k != "auto" and not 1 <= k <= min(p, t_len):
        raise ValueError(f"k={k} out of range 1..min(p={p}, T={t_len})")
    vals, vecs = _small_gram_eig(x)
    selection = _selection(x.shape, vals, min(k_max, min(x.shape) - 1))
    k_fit = max(selection.k_hat, 1) if k == "auto" else k
    return selection, _factors_from_eig(x, k_fit, vals, vecs)
