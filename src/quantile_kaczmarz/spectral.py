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

Submatrix values are computed from Gram matrices (A_S^T A_S) with symmetric
eigensolves, accurate to ~1e-8 relative for well-scaled inputs; values at or
below that scale should be read as numerically zero.

Leave-one-out takes one eigendecomposition A^T A = Q diag(lam) Q^T and one
product Z = A Q, then finds every row's downdated smallest eigenvalue as the
smallest root of the secular equation 1 - sum_j Z_ij^2 / (lam_j - t) = 0,
for all rows at once: O(m n^2) time and O(m n) memory, against O(m n^3) for
one eigensolve per row. Rows whose leverage sum_j Z_ij^2 / lam_j is within
max(1e-8, n eps cond(A^T A)) of 1, whose deletion drops the rank (a column
that only that row touches, say), and all rows of a rank-deficient A still
get their own eigensolve, so those cases keep returning exactly what the
per-row method returns, 0.0 for a lonely column. Elsewhere both methods
carry the Gram eigenvalue error of about n eps sigma_max^2, so their values
agree to 1e-9 relative above about 1e-3 sigma_max and to about
n eps sigma_max^2 / sigma below that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np
import scipy.linalg

from .errors import BudgetExceededError
from .linalg import as_matrix, extreme_singular_values
from .quantiles import round_half_up

DEFAULT_SUBSET_BUDGET = 1_000_000
_CHUNK = 8192
_LEVERAGE_TOL = 1e-8
_MAX_SECULAR_STEPS = 100


def _min_eig_batch(grams: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each (n, n) Gram matrix in a (c, n, n) stack."""
    return np.linalg.eigvalsh(grams)[:, 0]


def _sigma_from_eig(value: float) -> float:
    return math.sqrt(max(value, 0.0))


def subset_sigma_min(a: np.ndarray, alpha: float,
                     subset_budget: int = DEFAULT_SUBSET_BUDGET) -> float:
    """Exact minimum of sigma_min(A_S) over all row subsets of size round(alpha*m).

    Returns 0 immediately when the subset size is below n. Raises
    BudgetExceededError when the number of subsets exceeds ``subset_budget``;
    use ``subset_sigma_min_sampled`` in that case.
    """
    a = as_matrix(a)
    m, n = a.shape
    s = min(max(round_half_up(alpha * m), 0), m)
    if s < n:
        return 0.0
    total = math.comb(m, s)
    if total > subset_budget:
        raise BudgetExceededError(total, subset_budget)

    outers = a[:, :, None] * a[:, None, :]  # (m, n, n) per-row Gram contributions
    best = math.inf
    combo_iter = combinations(range(m), s)
    while True:
        chunk = list(islice(combo_iter, _CHUNK))
        if not chunk:
            break
        idx = np.asarray(chunk, dtype=np.intp)
        grams = outers[idx].sum(axis=1)
        best = min(best, float(_min_eig_batch(grams).min()))
    return _sigma_from_eig(best)


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
    one by one instead.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < 2:
        raise ValueError("need at least two rows")
    if m - 1 < n:
        return 0.0
    gram = a.T @ a
    lam, q = scipy.linalg.eigh(gram)
    eps = np.finfo(np.float64).eps
    if lam[0] <= n * eps * lam[-1]:
        return _sigma_from_eig(min(_downdated_min_eigs(gram, a, range(m))))
    w = a @ q
    w *= w  # w_ij = Z_ij^2
    leverage = w @ (1.0 / lam)
    # computed leverages carry an error of about n * eps * cond(A^T A)
    singular = leverage >= 1.0 - max(_LEVERAGE_TOL, n * eps * lam[-1] / lam[0])
    best = min(_downdated_min_eigs(gram, a, np.flatnonzero(singular)), default=math.inf)
    if not singular.all():
        best = min(best, float(_smallest_secular_roots(lam, w, ~singular).min()))
    return _sigma_from_eig(best)


def _downdated_min_eigs(gram: np.ndarray, a: np.ndarray, rows) -> list[float]:
    """Smallest eigenvalue of A^T A - a_i a_i^T for each i in ``rows``, one eigensolve each."""
    return [float(scipy.linalg.eigh(gram - np.outer(a[i], a[i]), eigvals_only=True,
                                    subset_by_index=(0, 0))[0])
            for i in rows]


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

    An upper bound on the exact subset minimum (fewer candidates).
    Deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a = as_matrix(a)
    m, n = a.shape
    s = min(max(round_half_up(alpha * m), 0), m)
    if s < n:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    outers = a[:, :, None] * a[:, None, :]
    best = math.inf
    done = 0
    while done < trials:
        count = min(_CHUNK, trials - done)
        idx = np.stack([rng.choice(m, size=s, replace=False) for _ in range(count)])
        grams = outers[idx].sum(axis=1)
        best = min(best, float(_min_eig_batch(grams).min()))
        done += count
    return _sigma_from_eig(best)


@dataclass(frozen=True)
class SpectralEntry:
    alpha: float
    value: float
    mode: str  # "exact" or "sampled"
    trials: int | None = None


@dataclass(frozen=True)
class SpectralProfile:
    """Extreme singular values plus subset minima at requested alpha levels."""

    sigma_min: float
    sigma_max: float
    entries: tuple[SpectralEntry, ...]

    def value_at(self, alpha: float) -> float:
        for entry in self.entries:
            if abs(entry.alpha - alpha) <= 1e-12:
                return entry.value
        raise KeyError(f"no entry for alpha={alpha}")


def spectral_profile(
    a: np.ndarray,
    alphas,
    subset_budget: int = DEFAULT_SUBSET_BUDGET,
    sample_trials: int = 2000,
    seed: int = 0,
) -> SpectralProfile:
    """Profile a matrix at several alpha levels.

    Uses exact enumeration where it fits the budget and falls back to
    sampled upper bounds (flagged in the entry mode) elsewhere.
    """
    a = as_matrix(a)
    smin, smax = extreme_singular_values(a)
    entries = []
    for alpha in alphas:
        try:
            value = subset_sigma_min(a, alpha, subset_budget=subset_budget)
            entries.append(SpectralEntry(alpha=float(alpha), value=value, mode="exact"))
        except BudgetExceededError:
            value = subset_sigma_min_sampled(a, alpha, trials=sample_trials, seed=seed)
            entries.append(SpectralEntry(alpha=float(alpha), value=value,
                                         mode="sampled", trials=sample_trials))
    return SpectralProfile(sigma_min=smin, sigma_max=smax, entries=tuple(entries))
