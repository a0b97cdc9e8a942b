"""The paper's per-step contraction bounds and exact subset minima.

Every calculator takes precomputed spectral quantities rather than a matrix,
so expensive subset-minimum singular values can be shared across methods.
Conventions: ``m`` is the row count, quantities named ``sigma_*`` are
singular values of the (sub)matrix the caller evaluated them on, and the
two-sided calculators assume a row-normalized matrix as their hypotheses
require.

The reported ``sufficient_condition_holds`` flag is algebraically equivalent
to a positive per-step decay (factor < 1) for the one- and two-quantile
corrupted-system bounds.

For a subset S of rows, sigma_min(A_S) here means inf over unit x in R^n of
||A_S x||, so any subset with fewer rows than columns scores 0. The
subset minimum over all subsets of a given size is exact only by
enumeration (``subset_sigma_min``, capped by a subset budget); random subset
sampling (``subset_sigma_min_sampled``) upper-bounds it because it minimizes
over fewer candidates. Both share one loop: a chunk of c subsets gathers at
most 4 MiB of rows and forms its c Gram matrices in one stacked product, so
memory stays at about 4 MiB plus c n^2 doubles, whatever m is. Sampling
draws one rng.choice(m, size=s, replace=False) per trial from PCG64(seed).
Values come from Gram eigensolves and carry the error described in
``quantile_kaczmarz.spectral``.

Nothing in a run computes these: they are the theory the tests check runs
against. It is a test helper, not part of the package; the package keeps
``corruption_penalty`` and ``robustness_diagnostic``, which ``diagnose``
evaluates, and the leave-one-out minimum ``leave_one_out_sigma_min``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from quantile_kaczmarz import corruption_penalty
from quantile_kaczmarz.errors import (
    HypothesisViolationError,
    InvalidQuantilesError,
    QuantileKaczmarzError,
)
from quantile_kaczmarz.linalg import as_matrix
from quantile_kaczmarz.quantiles import round_half_up
from quantile_kaczmarz.spectral import _sigma_from_eig

DEFAULT_SUBSET_BUDGET = 1_000_000
_CHUNK_BYTES = 4 << 20  # gathered rows per chunk of subsets


class BudgetExceededError(QuantileKaczmarzError):
    """Exhaustive subset enumeration would exceed the configured budget."""

    def __init__(self, subset_count: int, budget: int):
        self.subset_count = int(subset_count)
        self.budget = int(budget)
        super().__init__(
            f"{subset_count} subsets exceed the enumeration budget of {budget}; "
            "use the sampled variant"
        )


@dataclass(frozen=True)
class BoundReport:
    """A per-step factor plus the k-step envelope it generates.

    ``sufficient_condition_holds`` is None for methods without a corruption
    condition. ``first_step_factor`` is set when the start iterate is not
    known to lie on a solution hyperplane; the envelope then uses it for the
    first step and the contraction factor afterwards.
    """

    per_step_factor: float
    sufficient_condition_holds: bool | None
    first_step_factor: float | None = None

    def envelope(self, k: int) -> float:
        """Bound on the squared-error reduction after k steps (1.0 at k=0)."""
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return 1.0
        if self.first_step_factor is None:
            return self.per_step_factor ** k
        return self.per_step_factor ** (k - 1) * self.first_step_factor


def rk_factor(sigma_min: float, frob_sq: float) -> float:
    """Classical per-step factor 1 - sigma_min^2 / ||A||_F^2."""
    return 1.0 - sigma_min**2 / frob_sq


def rqrk_bound(
    sigma_min: float,
    sigma_q_min: float,
    q: float,
    m: int,
    row_sq_norms=None,
    hyperplane_start: bool = True,
) -> BoundReport:
    """Contraction factor for reverse-quantile selection on consistent systems.

    General form:
        1 - sigma_min^2/||A||_F^2
          - (sigma_q_min^2/(q m)) * (min_j ||a_j||^2/||A||_F^2) / max_j ||a_j||^2

    which simplifies to 1 - sigma_min^2/m - sigma_q_min^2/(q m^2) for
    row-normalized matrices (the default when ``row_sq_norms`` is omitted).
    With ``hyperplane_start=False`` the envelope's first step only gets the
    classical factor, since the first residual vector need not contain a
    zero entry.
    """
    if not (1.0 / m - 1e-12 <= q <= (m - 1.0) / m + 1e-12):
        raise InvalidQuantilesError(f"need 1/m <= q <= (m-1)/m, got q={q}, m={m}")
    if row_sq_norms is None:
        frob_sq = float(m)
        min_ratio = 1.0 / m
        max_sq = 1.0
    else:
        w = np.asarray(row_sq_norms, dtype=np.float64)
        if w.shape != (m,):
            raise ValueError("row_sq_norms must have one entry per row")
        frob_sq = float(w.sum())
        min_ratio = float(w.min()) / frob_sq
        max_sq = float(w.max())
    base = rk_factor(sigma_min, frob_sq)
    factor = base - (sigma_q_min**2 / (q * m)) * (min_ratio / max_sq)
    return BoundReport(
        per_step_factor=factor,
        sufficient_condition_holds=None,
        first_step_factor=None if hyperplane_start else base,
    )


def qrk_bound(sigma_max: float, sigma_q_beta_min: float,
              q: float, beta: float, m: int) -> BoundReport:
    """One-quantile corrupted-system bound (row-normalized matrices).

    Per-step factor 1 - C with
        C = (q - beta) sigma_{q-beta}^2/(q^2 m) - (sigma_max^2/(q m)) P(q, beta)
    where P is ``corruption_penalty``. The sufficient condition
        (q/(q-beta)) P(q, beta) < sigma_{q-beta}^2 / sigma_max^2
    is exactly C > 0.
    """
    if not beta < q:
        raise HypothesisViolationError(f"need beta < q, got beta={beta}, q={q}")
    if not q < 1.0 - beta:
        raise HypothesisViolationError(f"need q < 1 - beta, got q={q}, beta={beta}")
    penalty = corruption_penalty(q, beta)
    c = (q - beta) * sigma_q_beta_min**2 / (q * q * m) - sigma_max**2 * penalty / (q * m)
    holds = (q / (q - beta)) * penalty < sigma_q_beta_min**2 / sigma_max**2
    return BoundReport(
        per_step_factor=1.0 - c,
        sufficient_condition_holds=bool(holds),
    )


def dqrk_bound(
    sigma_max: float,
    sigma_q1_beta_min: float,
    sigma_q0_beta_min: float,
    q0: float,
    q1: float,
    beta: float,
    m: int,
) -> BoundReport:
    """Two-quantile corrupted-system bound (row-normalized matrices).

    Per-step factor 1 - C with
        C = (q1-q0-beta) (sigma_{q1-beta}^2/((q1-q0) q1 m)
                          + sigma_{q0-beta}^2/((q1-q0) q0 q1 m^2))
            - (sigma_max^2/((q1-q0) m)) P(q1, beta).
    The sufficient condition
        (q1/(q1-q0-beta)) P(q1, beta)
            < (sigma_{q1-beta}^2 + sigma_{q0-beta}^2/(q0 m)) / sigma_max^2
    is exactly C > 0. As q0 -> 0 with sigma_{q0-beta} = 0 the constant
    reduces to the one-quantile C at q = q1.
    """
    if not beta < q0:
        raise HypothesisViolationError(f"need beta < q0, got beta={beta}, q0={q0}")
    if not q0 < q1:
        raise HypothesisViolationError(f"need q0 < q1, got q0={q0}, q1={q1}")
    if not q1 < 1.0 - beta:
        raise HypothesisViolationError(f"need q1 < 1 - beta, got q1={q1}, beta={beta}")
    if not q1 - q0 > beta:
        raise HypothesisViolationError(f"need q1 - q0 > beta, got q1-q0={q1 - q0}, beta={beta}")
    penalty = corruption_penalty(q1, beta)
    width = q1 - q0
    c = (q1 - q0 - beta) * (
        sigma_q1_beta_min**2 / (width * q1 * m)
        + sigma_q0_beta_min**2 / (width * q0 * q1 * m * m)
    ) - sigma_max**2 * penalty / (width * m)
    holds = (q1 / (q1 - q0 - beta)) * penalty < (
        sigma_q1_beta_min**2 + sigma_q0_beta_min**2 / (q0 * m)
    ) / sigma_max**2
    return BoundReport(
        per_step_factor=1.0 - c,
        sufficient_condition_holds=bool(holds),
    )


def kth_largest_residual_factor(sigma_k_over_m: float, sigma_km1_over_m: float, k: int) -> float:
    """Decay factor for always projecting onto the k-th largest residual row.

    1 - sigma_{k/m}^2/k - sigma_{(k-1)/m}^2/(k^2 - k), defined for k >= 2;
    k = 1 is the largest-residual rule, covered by ``rqrk_bound`` at
    q = (m-1)/m.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return 1.0 - sigma_k_over_m**2 / k - sigma_km1_over_m**2 / (k * k - k)


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
