"""Multiset quantiles and two-sided quantile partitions.

The quantile of a multiset of size m at level q is the k-th order statistic
with k = round-half-up(q * m) clamped to [1, m]; when q*m is an integer this
is exactly the (q*m)-th smallest element. ``band_ranks`` is the one rule that
turns quantile levels into the ranks (k0, k1) of a band, and rejects a band
that holds no item. The partition takes those ranks, not quantiles: it
splits index sets by membership counts, never by interpolated values,
because the row-selection rules are defined by how many rows fall in each
block, and a solver works its ranks out once, since they depend on m alone.

Ties are broken deterministically: entries are ordered by (value, original
index), so among equal values the lowest indices fill the lower blocks
first. That order comes from numpy's default (fast, unstable) argsort,
checked for strict increase: when all values are distinct the sorted
permutation is unique, so it is already the (value, index) order. Only on a
tie or a NaN does the partition fall back to the stable sort.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidQuantilesError


def round_half_up(x: float) -> int:
    """Nearest integer, with .5 rounding up. Deterministic, unlike round()."""
    return int(math.floor(x + 0.5))


def quantile_rank(q: float, size: int) -> int:
    """1-based order-statistic rank for quantile level q over ``size`` items."""
    return min(max(round_half_up(q * size), 1), size)


def band_ranks(m: int, q1: float, q0: float | None = None) -> tuple[int, int]:
    """Block boundaries (k0, k1) = (round(q0*m), round(q1*m)) for m items.

    The band is the items of ranks k0+1..k1 in (value, index) order. k0 is 0
    when q0 is absent and k1 is clamped to [1, m]. Raises
    InvalidQuantilesError for misordered quantiles or an empty band.
    """
    if not 0.0 < q1 <= 1.0:
        raise InvalidQuantilesError(f"q1 must be in (0, 1], got {q1}")
    if q0 is not None and not 0.0 <= q0 < q1:
        raise InvalidQuantilesError(f"need 0 <= q0 < q1 <= 1, got q0={q0}, q1={q1}")
    k1 = quantile_rank(q1, m)
    k0 = 0 if q0 is None else min(round_half_up(q0 * m), m)
    if k0 >= k1:
        raise InvalidQuantilesError(
            f"admissible block is empty: round(q0*m)={k0}, round(q1*m)={k1} for m={m}"
        )
    return k0, k1


def partition_two_sided(values, k0: int, k1: int) -> tuple[np.ndarray, float | None, float]:
    """Sort values and cut the sorted indices at the ranks (k0, k1).

    Returns (block, low, high): ``block`` is the indices in positions
    k0..k1-1 of the (value, index) order, ``low`` the k0-th smallest value
    (None when k0 is 0) and ``high`` the k1-th smallest. The ranks must
    satisfy 0 <= k0 < k1 <= len(values), as ``band_ranks`` guarantees; they
    are not checked here.

    The order comes from the default argsort, which is checked for strict
    increase; on any tie or NaN the stable argsort replaces it, so the
    result is always exactly the (value, index) order.
    """
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v)
    ranked = v[order]
    if not np.all(ranked[1:] > ranked[:-1]):
        # a tie or a NaN: only a stable sort puts equal values in index order
        order = np.argsort(v, kind="stable")
        ranked = v[order]
    low = float(ranked[k0 - 1]) if k0 >= 1 else None
    return order[k0:k1], low, float(ranked[k1 - 1])
