"""The leave-one-out minimum singular value.

For a subset S of rows, sigma_min(A_S) here means inf over unit x in R^n of
||A_S x||, so any subset with fewer rows than columns scores 0. The
leave-one-out minimum, min over i of sigma_min(A with row i deleted), is
the subset minimum at subset size m-1: exactly m subproblems. It bounds how
much redundancy survives the removal of one row, and it is the one subset
minimum ``diagnose`` needs.

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
one eigensolve per row. The value is exactly 0.0 by structure, with no
downdate eigensolved, when A has fewer than n + 1 rows, when a column has at
most one nonzero (a lonely column: deleting its row leaves a zero column;
one O(m n) count of nonzeros per column finds it), or when A is numerically
rank-deficient, lam[0] <= n eps lam[-1], so that every downdate is too.
(The eigensolve of such a downdate reads about 1e-16, not 0, so its square
root would be about 1e-8, below the sqrt(n eps) sigma_max above.) Rows of a
full-rank A whose leverage sum_j Z_ij^2 / lam_j is within
max(1e-8, n eps cond(A^T A)) of 1, whose deletion drops the rank, still get
their own eigensolve, so they keep returning exactly what the per-row method
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

import numpy as np
import scipy  # unused here; keeps spectral.scipy.linalg.eigh resolvable for the benchmark tracer

from .linalg import as_matrix

_LEVERAGE_TOL = 1e-8
_MAX_SECULAR_STEPS = 100


def _sigma_from_eig(value: float) -> float:
    return math.sqrt(max(value, 0.0))


def leave_one_out_sigma_min(a: np.ndarray) -> float:
    """Minimum over i of sigma_min(A with row i deleted).

    The subset minimum at subset size m - 1, with exactly m subproblems.
    One eigendecomposition A^T A = Q diag(lam) Q^T and Z = A Q turn each
    row deletion into a rank-one downdate, whose smallest eigenvalue is the
    smallest root of the secular equation
    ``1 - sum_j Z_ij^2 / (lam_j - t) = 0`` (Golub 1973; Bunch, Nielsen and
    Sorensen 1978); all m roots are solved together. Rows of leverage
    ``h_i = sum_j Z_ij^2 / lam_j`` close to 1, whose deletion drops the
    rank, are downdated and eigensolved one by one instead. Fewer than
    n + 1 rows, a column with at most one nonzero, or a numerically
    rank-deficient A gives exactly 0.0 with no eigensolve of a downdate.
    """
    return leave_one_out_spectrum(as_matrix(a))[0]


def leave_one_out_spectrum(a: np.ndarray) -> tuple[float, float]:
    """(``leave_one_out_sigma_min``, sigma_max) of a matrix that ``as_matrix`` checked.

    sigma_max is read from the same Gram eigendecomposition, so it carries
    its absolute error of about n eps sigma_max^2 before the square root.
    When the leave-one-out value is 0 by structure (fewer than n + 1 rows,
    or a column with at most one nonzero), only the eigenvalues of the
    smaller of A^T A and A A^T are computed. A numerically rank-deficient A
    is the third structural zero; it shows only in the Gram eigenvalues, so
    it returns right after them.
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
        return 0.0, sigma_max
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
