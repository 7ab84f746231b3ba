"""Slicing and inverse-moment kernels for sufficient dimension reduction.

Directions that matter for forecasting are recovered as leading eigenvectors
of a symmetric ``K x K`` kernel matrix built from within-slice moments of the
(globally centered) factors:

* SIR uses slice means only;
* DR combines slice means and slice second moments;
* TM uses within-slice third central moments, corrected by the global
  third-moment array so the kernel is insensitive to factor-estimation error;
* the ensemble is the plain sum of the DR and TM kernels.

Slice weights are the empirical slice proportions ``c_h / T``, which reduce
to ``1/H`` whenever ``T`` is divisible by ``H``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._eigen import sym_eig_desc

#: eigenvalues above this threshold count as strictly positive in the
#: dimension-selection objective
EIGENVALUE_POSITIVITY_THRESHOLD = 1e-12

VARIANCE_MODES = ("identity", "pooled")
#: the kernels :func:`build_kernels` builds, by method name
KERNEL_METHODS = ("sir", "dr", "tm", "ens")
#: the kernels built on the TM matrix, alone or in the ensemble
THIRD_MOMENT_METHODS = ("tm", "ens")
#: share of the K kernel eigenvalues the dimension criterion reads (``c`` in
#: ``K_c = round(c K)``); the value of every order-selection run
C_CENSOR = 0.5
#: slices of the target every kernel is built from.  Like ``C_CENSOR`` it
#: calibrates the estimate rather than choosing a model, and Li (1991, JASA
#: 86:316), who introduced SIR, found its results insensitive to the count;
#: 10 is the value of every study, forecast and order-selection run
N_SLICES = 10


@dataclass(frozen=True, eq=False)
class SliceAssignment:
    """Partition of the target observations into rank-contiguous slices."""

    h_count: int
    labels: np.ndarray  # length T, values in 0..H-1
    counts: np.ndarray  # length H, each >= 1

    @property
    def t_len(self) -> int:
        return self.labels.shape[0]

    @property
    def proportions(self) -> np.ndarray:
        return self.counts / self.labels.shape[0]


def slice_target(y, h_count: int) -> SliceAssignment:
    """Split observations into ``h_count`` groups of near-equal size by rank.

    Groups are contiguous in the ranking of ``y`` with sizes differing by at
    most one (earlier slices take the remainder); ties are broken by time
    index, so equal values are assigned in order of appearance.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be 1-D")
    t_len = y.shape[0]
    if h_count < 1:
        raise ValueError(f"h_count must be >= 1, got {h_count}")
    if h_count > t_len:
        raise ValueError(f"h_count={h_count} exceeds number of observations {t_len}")
    order = np.argsort(y, kind="stable")
    base, rem = divmod(t_len, h_count)
    counts = np.full(h_count, base, dtype=int)
    counts[:rem] += 1
    labels = np.empty(t_len, dtype=int)
    labels[order] = np.repeat(np.arange(h_count), counts)
    return SliceAssignment(h_count=h_count, labels=labels, counts=counts)


def check_slice_rules(methods, t_len: int, label: str) -> None:
    """Reject a training length ``t_len`` too short for the kernels among ``methods``.

    Every kernel slices the targets into ``N_SLICES``, and third moments need
    two observations a slice; ``label`` names the length, e.g. ``"t_len=19"``.
    """
    kernels = [m for m in methods if m in KERNEL_METHODS]
    if kernels and t_len < N_SLICES:
        raise ValueError(f"{label} must be >= N_SLICES = {N_SLICES} for {' and '.join(kernels)}")
    if set(kernels) & set(THIRD_MOMENT_METHODS) and t_len < 2 * N_SLICES:
        raise ValueError(f"{label} must be >= 2 * N_SLICES = {2 * N_SLICES} "
                         f"for {' and '.join(THIRD_MOMENT_METHODS)}")


@dataclass(frozen=True, eq=False)
class KernelEstimate:
    """A symmetric candidate matrix with its spectrum, from one eigendecomposition.

    ``method`` is the ``KERNEL_METHODS`` name the matrix was built by.
    ``eigenvalues`` descend and ``eigenvectors`` holds the matching unit
    columns, per the package eigen conventions.
    """

    method: str
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def k(self) -> int:
        return self.matrix.shape[0]


def _centered(factors: np.ndarray) -> np.ndarray:
    factors = np.asarray(factors, dtype=float)
    if factors.ndim != 2:
        raise ValueError("factors must be T x K")
    return factors - factors.mean(axis=0)


def _check_slices(factors: np.ndarray, slices: SliceAssignment) -> None:
    if factors.shape[0] != slices.t_len:
        raise ValueError(
            f"factors cover T={factors.shape[0]} but slices cover T={slices.t_len}"
        )
    if np.any(slices.counts < 1):
        raise ValueError("empty slice")


def _slice_rows(g: np.ndarray, slices: SliceAssignment) -> list[np.ndarray]:
    """Per slice, the rows of ``g`` in that slice, in time order.

    One stable sort of the labels puts each slice's rows together in their
    original order, so slice ``h`` is a contiguous view equal to
    ``g[slices.labels == h]``.
    """
    grouped = g[np.argsort(slices.labels, kind="stable")]
    ends = np.cumsum(slices.counts).tolist()
    return [grouped[a:b] for a, b in zip([0, *ends], ends)]


def _slice_stats(blocks: list[np.ndarray]):
    """Slice means and second moments of centered factors, from :func:`_slice_rows`."""
    k = blocks[0].shape[1]
    means = np.zeros((len(blocks), k))
    seconds = np.zeros((len(blocks), k, k))
    for i, rows in enumerate(blocks):
        means[i] = rows.mean(axis=0)
        seconds[i] = rows.T @ rows / rows.shape[0]
    return means, seconds


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """``(M + M')/2``: exactly symmetric, whatever rounding built ``M``."""
    return (m + m.T) / 2.0


def _sir_matrix(means: np.ndarray, slices: SliceAssignment) -> np.ndarray:
    """First-inverse-moment kernel: ``sum_h p_h m_h m_h'`` over slice means."""
    return _symmetrized((means.T * slices.proportions) @ means)


def _variance_matrix(mode: str, p_hat: np.ndarray, seconds: np.ndarray, k: int) -> np.ndarray:
    if mode == "identity":
        return np.eye(k)
    if mode == "pooled":
        return np.einsum("h,hij->ij", p_hat, seconds)
    raise ValueError(f"unknown variance_mode {mode!r}; expected one of {VARIANCE_MODES}")


def _dr_matrix(
    means: np.ndarray, seconds: np.ndarray, slices: SliceAssignment, variance_mode: str
) -> np.ndarray:
    """Directional-regression kernel from slice means and second moments.

    With slice means ``m_h``, slice second moments ``S_h`` and the variance
    estimate ``V`` (identity by default, or the pooled second moment),

        M = 2 sum_h p_h (V - S_h)^2 + 2 (sum_h p_h m_h m_h')^2
            + 2 (sum_h p_h m_h'm_h) (sum_h p_h m_h m_h').
    """
    p_hat = slices.proportions
    v = _variance_matrix(variance_mode, p_hat, seconds, means.shape[1])
    a = v[None, :, :] - seconds
    term1 = 2.0 * np.einsum("h,hij,hjk->ik", p_hat, a, a)
    c = (means.T * p_hat) @ means
    c_scalar = float(np.einsum("h,hi,hi->", p_hat, means, means))
    return _symmetrized(term1 + 2.0 * c @ c + 2.0 * c_scalar * c)


def _pair_third_moments(d: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Rows ``(i, j)`` of the third-moment array ``mean_t d_ti d_tj d_tk``, pair by pair."""
    return (d[:, rows] * d[:, cols]).T @ d / d.shape[0]


def _tm_matrix(g: np.ndarray, slices: SliceAssignment, blocks: list[np.ndarray]) -> np.ndarray:
    """Inverse third-moment kernel with the global third-moment correction.

    Only the ``K(K+1)/2`` distinct index pairs ``i <= j`` (``np.triu_indices``
    order, unweighted) of a third-moment array are needed, so the ``K^3``
    array is never formed: with ``P`` the ``T x K(K+1)/2`` matrix of pair
    products ``d_ti d_tj``, the kept rows are the one matrix product
    ``P'd / T``.  For each slice (its rows of ``g`` are ``blocks[h]``, see
    :func:`_slice_rows`), ``mu_h`` is that product on the
    within-slice-centered factors minus the same product on the globally
    centered ones (the global third-moment correction).  The kernel is
    ``sum_h p_h mu_h' mu_h``.

    Requires at least 2 observations per slice; 3 or more are recommended for
    a meaningful third moment.
    """
    if np.any(slices.counts < 2):
        raise ValueError("slice too small: third moments need >= 2 observations per slice")
    k = g.shape[1]
    rows, cols = np.triu_indices(k)
    global3 = _pair_third_moments(g, rows, cols)
    p_hat = slices.proportions
    m = np.zeros((k, k))
    for h, d in enumerate(blocks):
        mu = _pair_third_moments(d - d.mean(axis=0), rows, cols) - global3
        m += p_hat[h] * mu.T @ mu
    return _symmetrized(m)


def build_kernels(
    methods,
    factors: np.ndarray,
    slices: SliceAssignment,
    variance_mode: str = "identity",
) -> dict[str, KernelEstimate]:
    """Build the ``KERNEL_METHODS`` kernels named in ``methods``, each eigendecomposed once.

    Returns one :class:`KernelEstimate` per method, keyed by name.  The
    factors are centered, checked and split into slices once, the slice means
    and second moments are computed once for SIR and DR, and each base matrix
    (SIR, DR, TM) is built at most once: ``"ens"`` is the sum of the very DR
    and TM matrices returned for ``"dr"`` and ``"tm"``, so asking for all
    three builds no more matrices than asking for ``"ens"`` alone.

    ``"sir"``, ``"dr"`` and ``"tm"`` build the SIR, DR and TM kernels of the
    globally centered factors; ``"ens"`` is the sum of the DR and TM kernels,
    exhaustive under weaker conditions than either.  ``variance_mode`` is the
    DR variance estimate, not used by SIR or TM: ``"identity"``, exact for PC
    factors normalized to ``F'F/T = I`` and the one every pipeline run uses,
    or ``"pooled"``, the pooled slice second moment of the pair-form reference.
    """
    for method in methods:
        if method not in KERNEL_METHODS:
            raise ValueError(f"unknown kernel method {method!r}; expected one of {KERNEL_METHODS}")
    wanted = set(methods)
    g = _centered(factors)
    _check_slices(g, slices)
    blocks = _slice_rows(g, slices)
    matrices = {}
    if wanted & {"sir", "dr", "ens"}:
        means, seconds = _slice_stats(blocks)
        if "sir" in wanted:
            matrices["sir"] = _sir_matrix(means, slices)
        if wanted & {"dr", "ens"}:
            matrices["dr"] = _dr_matrix(means, seconds, slices, variance_mode)
    if wanted.intersection(THIRD_MOMENT_METHODS):
        matrices["tm"] = _tm_matrix(g, slices, blocks)
    if "ens" in wanted:
        # both sides are symmetrized, so their sum is exactly symmetric
        matrices["ens"] = matrices["dr"] + matrices["tm"]
    kernels = {}
    for method in methods:
        vals, vecs = sym_eig_desc(matrices[method])
        kernels[method] = KernelEstimate(
            method=method, matrix=matrices[method], eigenvalues=vals, eigenvectors=vecs
        )
    return kernels


@dataclass(frozen=True, eq=False)
class DimensionSelection:
    """Chosen index count with the full objective trace."""

    l_hat: int
    objective: np.ndarray  # entry i is the objective at l = i + 1
    tau: int
    c_t: float


#: multiplicative calibration of the dimension-selection penalty.  The raw
#: rate-based candidate (see :func:`_default_ct`) overshoots at desk-scale
#: sizes where K^3/p is not yet small, collapsing every selection to l=1;
#: 0.1 was calibrated once on synthetic studies and sits in the middle of
#: the range that recovers the true dimension.
CT_CALIBRATION = 0.1


def _default_ct(method: str, k: int, p: int, t_len: int) -> float:
    """Scale of the dimension-selection penalty for a kernel method.

    The rate-based candidate is ``sqrt(K/p) T + sqrt(T)`` for SIR and DR;
    the third-moment kernels (TM and the ensemble) pay an extra ``sqrt(K)``
    on the sampling term: ``sqrt(K/p) T + sqrt(K T)``.  The returned value is
    the candidate times ``CT_CALIBRATION``.
    """
    base = math.sqrt(k / p) * t_len
    if method in ("sir", "dr"):
        return CT_CALIBRATION * (base + math.sqrt(t_len))
    if method in THIRD_MOMENT_METHODS:
        return CT_CALIBRATION * (base + math.sqrt(k * t_len))
    raise ValueError(f"unknown kernel method {method!r}; expected one of {KERNEL_METHODS}")


def select_dimension(kernel: KernelEstimate, p: int, t_len: int) -> DimensionSelection:
    """Pick the index count maximizing the spectral objective.

    For a kernel of ``K`` factors estimated on a panel of ``p`` series and
    ``t_len`` observations, with eigenvalues ``lam_1 >= ... >= lam_K`` and
    candidate ``l`` in ``1..K_c`` (``K_c`` the nearest integer to
    ``C_CENSOR * K``),

        G(l) = (T/2) sum_{i=1+min(tau,l)}^{K_c} [log(lam_i + 1) - lam_i]
               - c_t * l (2K - l + 1) / 2,

    where ``tau`` counts eigenvalues above the positivity threshold and
    ``c_t`` is the kernel method's penalty scale (:func:`_default_ct`), which
    no caller sets.  Ties are broken toward smaller ``l``.  The objective is
    intentionally not scale-free; the per-``l`` values are exposed for
    inspection.
    """
    k = kernel.k
    c_t = _default_ct(kernel.method, k, p, t_len)
    k_c = int(math.floor(C_CENSOR * k + 0.5))
    lam = kernel.eigenvalues
    tau = int(np.sum(lam > EIGENVALUE_POSITIVITY_THRESHOLD))
    terms = np.log(lam[:k_c] + 1.0) - lam[:k_c]
    objective = np.empty(k_c)
    for l in range(1, k_c + 1):
        w = terms[min(tau, l):].sum()
        objective[l - 1] = (t_len / 2.0) * w - c_t * l * (2 * k - l + 1) / 2.0
    l_hat = int(np.argmax(objective)) + 1
    return DimensionSelection(l_hat=l_hat, objective=objective, tau=tau, c_t=float(c_t))


def fit_indices(methods, factors, targets, p: int, l) -> dict[str, tuple]:
    """The index step: slice, build each kernel, choose the index count, take the directions.

    Per ``KERNEL_METHODS`` name in ``methods`` (others are skipped), returns
    :func:`select_dimension` for ``p`` series and ``len(targets)`` periods,
    and a copy of the ``K x l`` leading eigenvectors: ``l`` is an integer
    from 1, capped at ``K``, or ``"auto"`` for ``l_hat``.  ``targets`` are sliced once.
    """
    if not (l == "auto" or isinstance(l, (int, np.integer)) and l >= 1):
        raise ValueError(f"l must be 'auto' or an integer >= 1, got {l!r}")
    kernel_methods = [m for m in methods if m in KERNEL_METHODS]
    if not kernel_methods:
        return {}
    slices = slice_target(targets, N_SLICES)
    indices = {}
    for method, kernel in build_kernels(kernel_methods, factors, slices).items():
        selection = select_dimension(kernel, p, slices.t_len)
        l_use = selection.l_hat if l == "auto" else min(l, kernel.k)
        indices[method] = (selection, kernel.eigenvectors[:, :l_use].copy())
    return indices
