"""Per-step contraction factors and convergence envelopes.

Every calculator takes precomputed spectral quantities rather than a matrix,
so expensive subset-minimum singular values can be shared across methods.
Conventions: ``m`` is the row count, quantities named ``sigma_*`` are
singular values of the (sub)matrix the caller evaluated them on, and the
two-sided calculators assume a row-normalized matrix as their hypotheses
require.

The reported ``sufficient_condition_holds`` flag is algebraically equivalent
to a positive per-step decay (factor < 1) for the one- and two-quantile
corrupted-system bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolationError, InvalidQuantilesError


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


def corruption_penalty(q_upper: float, beta: float) -> float:
    """The term 2 sqrt(beta)/sqrt(1-q-beta) + beta/(1-q-beta).

    Grows without bound as q + beta approaches 1; requires q + beta < 1.
    """
    slack = 1.0 - q_upper - beta
    if slack <= 0:
        raise HypothesisViolationError(f"need q + beta < 1, got q={q_upper}, beta={beta}")
    return 2.0 * math.sqrt(beta) / math.sqrt(slack) + beta / slack


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


def robustness_diagnostic(
    sigma_max: float,
    sigma_loo_min: float,
    q0: float,
    q1: float,
    beta: float,
    m: int,
) -> float:
    """Cheap certificate that the two-quantile sufficient condition fails.

    Evaluates

        (sigma_loo^2 + sigma_loo^2/(q0 m)) / sigma_max^2
            - (q1/(1-q0-beta)) P(q1, beta)

    with sigma_loo the leave-one-out subset minimum. Because subset minima
    are non-decreasing in the subset fraction, sigma_loo upper-bounds the
    sigma_{q-beta} values in the real condition, and the coefficient
    q1/(1-q0-beta) never exceeds the condition's q1/(q1-q0-beta); so a
    negative value certifies the sufficient condition fails. A positive
    value is only suggestive.
    """
    if not q1 + beta < 1.0:
        raise HypothesisViolationError(f"need q1 + beta < 1, got q1={q1}, beta={beta}")
    if not q1 - q0 > beta:
        raise HypothesisViolationError(f"need q1 - q0 > beta, got q1-q0={q1 - q0}, beta={beta}")
    if not 0.0 < q0:
        raise HypothesisViolationError(f"need q0 > 0, got q0={q0}")
    penalty = corruption_penalty(q1, beta)
    redundancy = (sigma_loo_min**2 + sigma_loo_min**2 / (q0 * m)) / sigma_max**2
    return redundancy - (q1 / (1.0 - q0 - beta)) * penalty
