"""Exact lower bounds for expectations under tail conditioning.

Setting: X takes values 1..n with positive probabilities p, f is
non-decreasing on 1..n, and Y is X conditioned on X > ell (the lowest ell
outcomes removed). Restricting to the tail can only raise the expectation
of a non-decreasing function, and three computable lower bounds quantify
by how much:

* ``step_bound``       - E f(X) + (f(2) - f(1)) p_1, the first conditioning
                         step alone.
* ``gap_bound``        - E f(X) + (f(ell+1) - f(ell)) P(X <= ell), from the
                         jump across the truncation point.
* ``telescoped_bound`` - E f(X) + sum_{k<=ell} (f(k+1) - f(k)) P(X=k | X>k-1),
                         accumulating one conditioning step at a time.

The telescoped bound always dominates the step bound (its k=1 term) and both
are dominated by E f(Y); the gap bound is also dominated by E f(Y) but is
not comparable with the telescoped bound in general. E f(Y) strictly exceeds
E f(X) whenever f is non-constant.

Everything here is direct summation over small discrete instances; it
exists to certify the inequalities the solver analysis builds on. It is a
test helper, not part of the package: acceptance criterion 7
(``tests/test_acceptance.py``) and ``tests/test_tail_bounds.py`` import it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantile_kaczmarz.errors import QuantileKaczmarzError


class DegenerateConditioningError(QuantileKaczmarzError):
    """Conditioning on the tail would divide by a (numerically) zero mass."""


@dataclass(frozen=True)
class TailConditioningInstance:
    """A discrete distribution, a non-decreasing score, and a cut point.

    ``probs`` must be positive and sum to 1 within 1e-12; ``values`` must be
    non-decreasing; ``drop_count`` (ell) must satisfy 1 <= ell < n.
    """

    probs: np.ndarray
    values: np.ndarray
    drop_count: int

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        f = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "values", f)
        if p.ndim != 1 or f.shape != p.shape:
            raise ValueError("probs and values must be 1-D and the same length")
        n = p.size
        if n < 2:
            raise ValueError("need at least two outcomes")
        if np.any(p <= 0.0):
            raise ValueError("all probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        if np.any(np.diff(f) < 0.0):
            raise ValueError("values must be non-decreasing")
        if not 1 <= self.drop_count < n:
            raise ValueError(f"drop_count must be in [1, {n - 1}], got {self.drop_count}")


@dataclass(frozen=True)
class TailConditioningBounds:
    mean_full: float         # E f(X)
    mean_tail: float         # E f(Y)
    tail_gain: float         # E f(Y) - E f(X), summed without cancellation
    step_bound: float
    gap_bound: float
    telescoped_bound: float


def tail_conditioning_bounds(instance: TailConditioningInstance) -> TailConditioningBounds:
    """Evaluate E f(X), E f(Y) and the three lower bounds by direct summation.

    Tail masses come from suffix sums rather than one-minus-prefix, so the
    conditional stays accurate when the dropped mass is close to 1.
    ``tail_gain`` recasts E f(Y) - E f(X) as a sum of nonnegative terms
    (anchored at the cut value f(ell)), so its sign is exact in floating
    point: it is positive iff f is non-constant.

    Raises DegenerateConditioningError when the dropped outcomes carry
    essentially all the mass, so the tail distribution is undefined.
    """
    p = instance.probs
    f = instance.values
    ell = instance.drop_count

    suffix = np.cumsum(p[::-1])[::-1]  # suffix[k] = mass of outcomes k+1..n
    head = float(p[:ell].sum())
    tail_mass = float(suffix[ell])
    if tail_mass < 1e-12:
        raise DegenerateConditioningError(
            f"dropped outcomes carry mass {head!r}; the tail is empty"
        )

    mean_full = float(p @ f)
    mean_tail = float(p[ell:] @ f[ell:]) / tail_mass

    anchor = f[ell - 1]
    gain = (head / tail_mass) * float(p[ell:] @ (f[ell:] - anchor)) \
        + float(p[:ell] @ (anchor - f[:ell]))

    gaps = np.diff(f)  # gaps[k] = f(k+2) - f(k+1) in 1-based terms
    step_bound = mean_full + float(gaps[0] * p[0])
    gap_bound = mean_full + float(gaps[ell - 1] * head)

    conditional = p[:ell] / suffix[:ell]  # P(X = k | X > k-1) for k = 1..ell
    telescoped_bound = mean_full + float(gaps[:ell] @ conditional)

    return TailConditioningBounds(
        mean_full=mean_full,
        mean_tail=mean_tail,
        tail_gain=gain,
        step_bound=step_bound,
        gap_bound=gap_bound,
        telescoped_bound=telescoped_bound,
    )
