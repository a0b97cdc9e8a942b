import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import InvalidQuantilesError
from quantile_kaczmarz.quantiles import (
    band_ranks,
    partition_two_sided,
    quantile_rank,
    round_half_up,
)


def reference_ranks(m, q1, q0=None):
    """Reference band rule: the ranks (k0, k1) of the (q0, q1] band of m items.

    ``band_ranks`` must return the same ranks, and raise exactly when it does.
    """
    if not 0.0 < q1 <= 1.0:
        raise InvalidQuantilesError(f"q1 must be in (0, 1], got {q1}")
    if q0 is not None and not 0.0 <= q0 < q1:
        raise InvalidQuantilesError(f"need 0 <= q0 < q1 <= 1, got q0={q0}, q1={q1}")
    k1 = quantile_rank(q1, m)
    k0 = 0 if q0 is None else min(round_half_up(q0 * m), m)
    if k0 >= k1:
        raise InvalidQuantilesError("admissible block is empty")
    return k0, k1


def stable_sort_partition(values, k0, k1):
    """Reference partition: one stable argsort, the block cut by rank.

    The package partition must match it element for element; it sorts
    with a faster unstable argsort and falls back on ties and NaNs.
    """
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    low = float(v[order[k0 - 1]]) if k0 >= 1 else None
    return order[k0:k1], low, float(v[order[k1 - 1]])


def multiset_quantile(values, q) -> float:
    """The q-quantile order statistic, as the partition reports it."""
    return partition_two_sided(values, *band_ranks(len(values), q))[2]


def sorted_indices(values) -> list[int]:
    """Every index in (value, index) order: the band of ranks 1..m."""
    return partition_two_sided(values, 0, len(values))[0].tolist()


def same_float_bits(a, b) -> bool:
    """Equal as IEEE bit patterns (NaN equals NaN, -0.0 differs from 0.0)."""
    if a is None or b is None:
        return a is None and b is None
    return struct.pack("<d", a) == struct.pack("<d", b)


# a small alphabet makes ties common and includes both signed zeros, the
# infinities and NaN; the unique floats give tie-free vectors for the fast path
TIE_ALPHABET = [0.0, -0.0, 0.5, 1.0, 2.0, float("inf"), float("-inf"), float("nan")]


@st.composite
def partition_cases(draw):
    values = draw(st.one_of(
        st.lists(st.sampled_from(TIE_ALPHABET), min_size=1, max_size=40),
        st.lists(st.floats(allow_nan=False), min_size=1, max_size=40, unique=True),
        st.lists(st.sampled_from(TIE_ALPHABET) | st.floats(), min_size=1, max_size=40),
    ))
    q1 = draw(st.floats(0.0, 1.0, exclude_min=True))
    q0 = draw(st.none() | st.floats(0.0, 1.0))
    return values, q1, q0


def assert_same_partition(got, want) -> None:
    block, low, high = got
    want_block, want_low, want_high = want
    assert block.dtype == want_block.dtype
    assert block.tolist() == want_block.tolist()
    assert same_float_bits(low, want_low)
    assert same_float_bits(high, want_high)


class TestRounding:
    @pytest.mark.parametrize("x,expected", [
        (2.5, 3), (3.5, 4), (2.4, 2), (2.6, 3), (0.0, 0), (0.5, 1), (-0.5, 0),
    ])
    def test_round_half_up(self, x, expected):
        assert round_half_up(x) == expected

    def test_rank_clamps(self):
        assert quantile_rank(0.001, 10) == 1
        assert quantile_rank(1.0, 10) == 10


class TestMultisetQuantile:
    def test_median_of_four(self):
        assert multiset_quantile([1, 2, 3, 4], 0.5) == 2

    def test_constant_multiset(self):
        assert multiset_quantile([7, 7, 7], 1.0) == 7

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(size=100)
        assert multiset_quantile(values, 0.25) == np.sort(values)[24]

    def test_empty_raises(self):
        # an empty multiset holds no band
        with pytest.raises(InvalidQuantilesError):
            multiset_quantile([], 0.5)

    def test_bad_q(self):
        with pytest.raises(InvalidQuantilesError):
            multiset_quantile([1.0], 0.0)
        with pytest.raises(InvalidQuantilesError):
            multiset_quantile([1.0], 1.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
    )
    def test_monotone_in_q(self, values, qa, qb):
        lo, hi = sorted((qa, qb))
        assert multiset_quantile(values, lo) <= multiset_quantile(values, hi)


class TestPartition:
    def test_distinct_values_example(self):
        # values sorted ascending are 0.1(idx 4), 0.2(3), 0.3(2), 0.4(1), 0.5(0)
        values = [0.5, 0.4, 0.3, 0.2, 0.1]
        assert band_ranks(5, 0.8, 0.2) == (1, 4)
        block, low, high = partition_two_sided(values, 1, 4)
        assert block.tolist() == [3, 2, 1]
        assert low == pytest.approx(0.1)
        assert high == pytest.approx(0.4)
        assert sorted_indices(values) == [4, 3, 2, 1, 0]

    def test_tie_rule_on_equal_values(self):
        # all equal: index order decides the split completely
        assert band_ranks(5, 0.8, 0.4) == (2, 4)
        assert partition_two_sided([2.0] * 5, 2, 4)[0].tolist() == [2, 3]
        assert sorted_indices([2.0] * 5) == [0, 1, 2, 3, 4]

    def test_one_sided_matches_quantile(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=10)
        block, low, high = partition_two_sided(values, *band_ranks(10, 0.6))
        assert block.size == 6
        assert low is None
        assert values[block].max() == high == multiset_quantile(values, 0.6)

    def test_upper_is_complement(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(size=9)
        _, k1 = band_ranks(9, 0.5)
        combined = np.concatenate([partition_two_sided(values, 0, k1)[0],
                                   partition_two_sided(values, k1, 9)[0]])
        assert sorted(combined.tolist()) == list(range(9))

    def test_custom_keys(self):
        # blocks are positions in value order; a caller's labels index by them
        keys = np.array([10, 20, 30])
        assert keys[sorted_indices([3.0, 1.0, 2.0])].tolist() == [20, 30, 10]

    def test_empty_admissible_rejected(self):
        # rounding collapses both cut points to the same rank
        with pytest.raises(InvalidQuantilesError):
            band_ranks(10, 0.54, 0.51)

    def test_bad_ordering_rejected(self):
        with pytest.raises(InvalidQuantilesError):
            band_ranks(2, 0.5, 0.5)
        with pytest.raises(InvalidQuantilesError):
            band_ranks(2, 1.2)

    def test_cardinality_law_integer_quantiles(self):
        rng = np.random.default_rng(13)
        for m in range(5, 51):
            values = rng.uniform(size=m)
            for j0, j1 in [(0, 1), (0, m), (1, m), (m // 2, m // 2 + 1), (1, m - 1)]:
                if j0 >= j1:
                    continue
                assert band_ranks(m, j1 / m, j0 / m if j0 else None) == (j0, j1)
                assert partition_two_sided(values, j0, j1)[0].size == j1 - j0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_permutation_covariance(self, data):
        # distinct values: permuting the input permutes the index sets
        m = data.draw(st.integers(3, 12))
        values = np.arange(m, dtype=float) + 1.0
        perm = data.draw(st.permutations(range(m)))
        perm = np.asarray(perm)
        j1 = data.draw(st.integers(1, m))
        j0 = data.draw(st.integers(0, j1 - 1))
        # index i in the permuted input holds values[perm[i]]
        for k0, k1 in [(j0, j1), (0, j1)]:
            base = partition_two_sided(values, k0, k1)[0]
            permuted = partition_two_sided(values[perm], k0, k1)[0]
            assert sorted(perm[permuted].tolist()) == sorted(base.tolist())


class TestPartitionMatchesStableSortOracle:
    @settings(max_examples=400, deadline=None)
    @given(partition_cases())
    @example(([0.3, 0.1, 0.2, 0.4, 0.5], 0.8, 0.2))  # distinct: fast path
    @example(([1.0, 0.5, 1.0, 0.5, 0.5], 0.8, 0.2))  # ties: fallback
    @example(([0.2, float("nan"), 0.1, -0.0, 0.0], 0.8, 0.2))  # NaN, signed zeros
    def test_blocks_and_thresholds_identical(self, case):
        values, q1, q0 = case
        m = len(values)
        try:
            k0, k1 = reference_ranks(m, q1, q0)
        except InvalidQuantilesError:
            with pytest.raises(InvalidQuantilesError):
                band_ranks(m, q1, q0)
            return
        assert band_ranks(m, q1, q0) == (k0, k1)
        assert_same_partition(partition_two_sided(values, k0, k1),
                              stable_sort_partition(values, k0, k1))

    def test_large_tie_free_vector(self):
        values = np.random.default_rng(14).normal(size=2500)
        for q0, q1 in [(None, 0.8), (0.6, 0.8), (None, 0.7), (0.8, 1.0)]:
            ranks = band_ranks(2500, q1, q0)
            assert_same_partition(partition_two_sided(values, *ranks),
                                  stable_sort_partition(values, *ranks))

    def test_large_vector_with_ties(self):
        # quantized residuals: long runs of equal values across the cut points
        values = np.round(np.random.default_rng(15).uniform(size=2500), 2)
        ranks = band_ranks(2500, 0.8, 0.6)
        assert_same_partition(partition_two_sided(values, *ranks),
                              stable_sort_partition(values, *ranks))
