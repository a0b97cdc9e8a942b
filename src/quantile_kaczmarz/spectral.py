"""Minimum singular values over row subsets.

For a subset S of rows, sigma_min(A_S) here means inf over unit x in R^n of
||A_S x||, so any subset with fewer rows than columns scores 0. The
subset-minimum over all subsets of a given size quantifies how much
redundancy survives adversarial row removal; it is exact only by
enumeration, so three modes are offered:

* exact enumeration, capped by a subset budget;
* the leave-one-out special case (subset size m-1, exactly m subproblems);
* random subset sampling, which upper-bounds the true minimum because it
  minimizes over fewer candidates.

Exact and sampled modes share one loop: a chunk of c subsets gathers at
most 4 MiB of rows and forms its c Gram matrices in one stacked product, so
memory stays at about 4 MiB plus c n^2 doubles, whatever m is. Sampling
draws one rng.choice(m, size=s, replace=False) per trial from PCG64(seed).

Submatrix values are computed from Gram matrices (A_S^T A_S) with symmetric
eigensolves, so a value sigma carries an absolute error of about
n eps sigma_max^2 / sigma. Against per-submatrix SVDs of random matrices
with n <= 100, that measured 1e-7 relative at sigma / sigma_max ~ 1e-5 and
1e-2 to 1e-1 relative at sigma / sigma_max ~ 2e-8; values near
sqrt(n eps) sigma_max or below should be read as numerically zero.

Leave-one-out takes one eigendecomposition A^T A = Q diag(lam) Q^T and one
product Z = A Q, then finds every row's downdated smallest eigenvalue as the
smallest root of the secular equation 1 - sum_j Z_ij^2 / (lam_j - t) = 0,
for all rows at once: O(m n^2) time and O(m n) memory, against O(m n^3) for
one eigensolve per row. A column with at most one nonzero (a lonely column)
makes the value exactly 0.0 by structure, since deleting its row leaves a
zero column; one O(m n) count of nonzeros per column finds it before any
eigensolve. (The eigensolve of such a downdate reads about 1e-16, not 0, so
its square root would be about 1e-8.) Other rows whose leverage
sum_j Z_ij^2 / lam_j is within max(1e-8, n eps cond(A^T A)) of 1, whose
deletion drops the rank, and all rows of a rank-deficient A still get their
own eigensolve, so those cases keep returning exactly what the per-row method
returns. Elsewhere both methods carry the Gram eigenvalue error of about
n eps sigma_max^2, so their values agree to 1e-9 relative above about
1e-3 sigma_max and to about n eps sigma_max^2 / sigma below that.

``leave_one_out_spectrum`` also returns sigma_max = sqrt(lam[-1]) from the
same eigendecomposition, the other number the robustness diagnostic needs,
so diagnose runs no SVD. Where the leave-one-out value is 0 by structure,
sigma_max comes from the eigenvalues of the smaller of A^T A and A A^T.

The eigensolves use numpy.linalg alone (eigh for the Gram decomposition,
eigvalsh for each per-row downdate and for a structural zero's sigma_max),
so no subcommand, diagnose included, pays the start-up time and memory of
loading scipy.linalg. Plain scipy is imported only so that
``spectral.scipy.linalg.eigh`` stays resolvable: the benchmark's tracer
wraps that name.
"""

from __future__ import annotations

import math
from itertools import combinations, islice

import numpy as np
import scipy  # unused here; keeps spectral.scipy.linalg.eigh resolvable for the benchmark tracer

from .errors import BudgetExceededError
from .linalg import as_matrix
from .quantiles import round_half_up

DEFAULT_SUBSET_BUDGET = 1_000_000
_CHUNK_BYTES = 4 << 20  # gathered rows per chunk of subsets
_LEVERAGE_TOL = 1e-8
_MAX_SECULAR_STEPS = 100


def _sigma_from_eig(value: float) -> float:
    return math.sqrt(max(value, 0.0))


def _subset_size(m: int, alpha: float) -> int:
    return min(max(round_half_up(alpha * m), 0), m)


def _subset_sigma_min(a: np.ndarray, s: int, subsets) -> float:
    """Minimum of sigma_min(A_S) over an iterator of size-``s`` row-index subsets.

    A chunk holds as many subsets as fit their (c, s, n) rows in
    ``_CHUNK_BYTES``, at least one; its (c, n, n) Gram stack is no larger.
    """
    n = a.shape[1]
    per_chunk = max(1, _CHUNK_BYTES // (8 * s * n))
    best = math.inf
    while chunk := list(islice(subsets, per_chunk)):
        rows = a[np.asarray(chunk, dtype=np.intp)]
        grams = np.matmul(rows.transpose(0, 2, 1), rows)
        best = min(best, float(np.linalg.eigvalsh(grams)[:, 0].min()))
    return _sigma_from_eig(best)


def subset_sigma_min(a: np.ndarray, alpha: float,
                     subset_budget: int = DEFAULT_SUBSET_BUDGET) -> float:
    """Exact minimum of sigma_min(A_S) over all row subsets of size round(alpha*m).

    Returns 0 immediately when the subset size is below n. Raises
    BudgetExceededError when the number of subsets exceeds ``subset_budget``;
    use ``subset_sigma_min_sampled`` in that case. Memory stays at about
    4 MiB plus c n^2 doubles per chunk of c subsets, whatever m is.
    """
    a = as_matrix(a)
    m, n = a.shape
    s = _subset_size(m, alpha)
    if s < n:
        return 0.0
    total = math.comb(m, s)
    if total > subset_budget:
        raise BudgetExceededError(total, subset_budget)
    return _subset_sigma_min(a, s, combinations(range(m), s))


def leave_one_out_sigma_min(a: np.ndarray) -> float:
    """Minimum over i of sigma_min(A with row i deleted).

    The alpha = 1 - 1/m case of ``subset_sigma_min`` with exactly m
    subproblems. One eigendecomposition A^T A = Q diag(lam) Q^T and
    Z = A Q turn each row deletion into a rank-one downdate, whose smallest
    eigenvalue is the smallest root of the secular equation
    ``1 - sum_j Z_ij^2 / (lam_j - t) = 0`` (Golub 1973; Bunch, Nielsen and
    Sorensen 1978); all m roots are solved together. Rows of leverage
    ``h_i = sum_j Z_ij^2 / lam_j`` close to 1, whose deletion drops the
    rank, and every row of a rank-deficient A are downdated and eigensolved
    one by one instead. A column with at most one nonzero gives exactly 0.0
    with no eigensolve of a downdate: deleting its row leaves a zero column.
    """
    return leave_one_out_spectrum(as_matrix(a))[0]


def leave_one_out_spectrum(a: np.ndarray) -> tuple[float, float]:
    """(``leave_one_out_sigma_min``, sigma_max) of a matrix that ``as_matrix`` checked.

    sigma_max is read from the same Gram eigendecomposition, so it carries
    its absolute error of about n eps sigma_max^2 before the square root.
    When the leave-one-out value is 0 by structure (fewer than n + 1 rows,
    or a column with at most one nonzero), only the eigenvalues of the
    smaller of A^T A and A A^T are computed.
    """
    m, n = a.shape
    if m < 2:
        raise ValueError("need at least two rows")
    if m - 1 < n or np.count_nonzero(a, axis=0).min() <= 1:
        small = a @ a.T if m < n else a.T @ a
        return 0.0, _sigma_from_eig(np.linalg.eigvalsh(small)[-1])
    gram = a.T @ a
    lam, q = np.linalg.eigh(gram)
    sigma_max = _sigma_from_eig(lam[-1])
    eps = np.finfo(np.float64).eps
    if lam[0] <= n * eps * lam[-1]:
        return _sigma_from_eig(min(_downdated_min_eigs(gram, a, range(m)))), sigma_max
    w = a @ q
    w *= w  # w_ij = Z_ij^2
    leverage = w @ (1.0 / lam)
    # computed leverages carry an error of about n * eps * cond(A^T A)
    singular = leverage >= 1.0 - max(_LEVERAGE_TOL, n * eps * lam[-1] / lam[0])
    best = min(_downdated_min_eigs(gram, a, np.flatnonzero(singular)), default=math.inf)
    if not singular.all():
        best = min(best, float(_smallest_secular_roots(lam, w, ~singular).min()))
    return _sigma_from_eig(best), sigma_max


def _downdated_min_eigs(gram: np.ndarray, a: np.ndarray, rows) -> list[float]:
    """Smallest eigenvalue of A^T A - a_i a_i^T for each i in ``rows``, one eigensolve each."""
    return [float(np.linalg.eigvalsh(gram - np.outer(a[i], a[i]))[0]) for i in rows]


def _smallest_secular_roots(lam: np.ndarray, w: np.ndarray, solve: np.ndarray) -> np.ndarray:
    """Smallest root t_i of ``1 - sum_j w_ij / (lam_j - t) = 0`` for every row i in ``solve``.

    ``lam`` is ascending with lam[0] > 0; ``w`` is a nonnegative (k, n) array
    whose rows in the boolean mask ``solve`` have leverage
    sum_j w_ij / lam_j at most 1. The root lies in
    [max(0, lam[0] - sum_j w_ij), lam[0]], and psi(t) = sum_j w_ij / (lam_j - t)
    is at most 1 at the left end. In u = 1 / (lam[0] - t) every term
    w_ij u / ((lam_j - lam[0]) u + 1) is concave and increasing, so Newton's
    method in u, started at the left end, rises monotonically to the root
    (Bunch, Nielsen and Sorensen's one-pole model). The iterate is kept as
    delta = lam[0] - t, which shrinks to 0 for a row whose root is lam[0].
    A row stops when delta moves by at most 2 eps lam[0], or when rounding
    would move it back. Rows outside ``solve`` read lam[0], which bounds
    every root from above.
    """
    eps = np.finfo(np.float64).eps
    gaps = lam - lam[0]
    delta = np.where(solve, np.minimum(w.sum(axis=1), lam[0]), 0.0)
    live = np.flatnonzero(delta > 0)  # a zero row leaves the root at lam[0]
    w_live = w if live.size == w.shape[0] else w[live]
    d_live = delta[live]
    for _ in range(_MAX_SECULAR_STEPS):
        if live.size == 0:
            break
        d = gaps + d_live[:, None]
        terms = w_live / d
        psi = terms.sum(axis=1)
        terms /= d
        slope = terms.sum(axis=1) * d_live  # delta * psi'(t)
        del d, terms  # freed before w_live is compacted, to keep the peak at four (k, n) arrays
        with np.errstate(divide="ignore", invalid="ignore"):
            new = d_live * slope / (slope + 1.0 - psi)
        valid = (new >= 0.0) & (new <= d_live)
        delta[live] = np.where(valid, new, d_live)
        keep = valid & (d_live - new > 2 * eps * lam[0])
        if not keep.all():
            live, w_live = live[keep], w_live[keep]
        d_live = new[keep]
    return lam[0] - delta


def subset_sigma_min_sampled(a: np.ndarray, alpha: float, trials: int, seed: int = 0) -> float:
    """Minimum of sigma_min(A_S) over ``trials`` uniformly sampled subsets.

    An upper bound on the exact subset minimum (fewer candidates). Trial t
    evaluates the t-th ``rng.choice(m, size=s, replace=False)`` of
    PCG64(seed). Memory is bounded as in ``subset_sigma_min``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = as_matrix(a)
    m, n = a.shape
    s = _subset_size(m, alpha)
    if s < n:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    return _subset_sigma_min(a, s, (rng.choice(m, size=s, replace=False) for _ in range(trials)))

