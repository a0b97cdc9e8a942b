import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import (
    EmptyInputError,
    InvalidQuantilesError,
    partition_two_sided,
)
from quantile_kaczmarz.quantiles import (
    QuantilePartition,
    quantile_rank,
    round_half_up,
)


def stable_sort_partition(values, q1, q0=None) -> QuantilePartition:
    """Reference partition: one stable argsort, blocks cut by rank.

    The package partition must match it element for element; it sorts
    with a faster unstable argsort and falls back on ties and NaNs.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    m = v.size
    if m == 0:
        raise EmptyInputError("partition_two_sided needs at least one value")
    if not 0.0 < q1 <= 1.0:
        raise InvalidQuantilesError(f"q1 must be in (0, 1], got {q1}")
    if q0 is not None and not 0.0 <= q0 < q1:
        raise InvalidQuantilesError(f"need 0 <= q0 < q1 <= 1, got q0={q0}, q1={q1}")
    k1 = quantile_rank(q1, m)
    k0 = 0 if q0 is None else min(round_half_up(q0 * m), m)
    if k0 >= k1:
        raise InvalidQuantilesError("admissible block is empty")
    order = np.argsort(v, kind="stable")
    return QuantilePartition(
        q0=q0,
        q1=q1,
        q0_value=float(v[order[k0 - 1]]) if k0 >= 1 else None,
        q1_value=float(v[order[k1 - 1]]),
        admissible=order[k0:k1],
        upper=order[k1:],
    )


def multiset_quantile(values, q) -> float:
    """The q-quantile order statistic, as the partition reports it."""
    return partition_two_sided(values, q1=q).q1_value


def lower_block(part: QuantilePartition, m: int) -> np.ndarray:
    """The indices in neither the admissible nor the upper block."""
    return np.setdiff1d(np.arange(m), np.concatenate([part.admissible, part.upper]))


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


def assert_same_partition(got: QuantilePartition, want: QuantilePartition) -> None:
    for block in ("admissible", "upper"):
        have, expected = getattr(got, block), getattr(want, block)
        assert have.dtype == expected.dtype, block
        assert have.tolist() == expected.tolist(), block
    assert same_float_bits(got.q0_value, want.q0_value)
    assert same_float_bits(got.q1_value, want.q1_value)
    assert (got.q0, got.q1) == (want.q0, want.q1)


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
        with pytest.raises(EmptyInputError):
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
        part = partition_two_sided([0.5, 0.4, 0.3, 0.2, 0.1], q1=0.8, q0=0.2)
        assert lower_block(part, 5).tolist() == [4]
        assert part.admissible.tolist() == [3, 2, 1]
        assert part.upper.tolist() == [0]
        assert part.q0_value == pytest.approx(0.1)
        assert part.q1_value == pytest.approx(0.4)

    def test_tie_rule_on_equal_values(self):
        # all equal: index order decides the split completely
        part = partition_two_sided([2.0] * 5, q1=0.8, q0=0.4)
        assert lower_block(part, 5).tolist() == [0, 1]
        assert part.admissible.tolist() == [2, 3]
        assert part.upper.tolist() == [4]

    def test_one_sided_matches_quantile(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=10)
        part = partition_two_sided(values, q1=0.6)
        assert 10 - part.admissible.size - part.upper.size == 0
        assert part.admissible.size == 6
        assert values[part.admissible].max() == multiset_quantile(values, 0.6)

    def test_upper_is_complement(self):
        rng = np.random.default_rng(12)
        values = rng.uniform(size=9)
        part = partition_two_sided(values, q1=0.5)
        assert 9 - part.admissible.size - part.upper.size == 0
        combined = np.concatenate([part.admissible, part.upper])
        assert sorted(combined.tolist()) == list(range(9))

    def test_custom_keys(self):
        # blocks are positions in value order; a caller's labels index by them
        keys = np.array([10, 20, 30])
        part = partition_two_sided([3.0, 1.0, 2.0], q1=1.0)
        assert keys[part.admissible].tolist() == [20, 30, 10]

    def test_empty_admissible_rejected(self):
        # rounding collapses both cut points to the same rank
        with pytest.raises(InvalidQuantilesError):
            partition_two_sided(np.arange(10.0), q1=0.54, q0=0.51)

    def test_bad_ordering_rejected(self):
        with pytest.raises(InvalidQuantilesError):
            partition_two_sided([1.0, 2.0], q1=0.5, q0=0.5)
        with pytest.raises(InvalidQuantilesError):
            partition_two_sided([1.0, 2.0], q1=1.2)

    def test_cardinality_law_integer_quantiles(self):
        rng = np.random.default_rng(13)
        for m in range(5, 51):
            values = rng.uniform(size=m)
            for j0, j1 in [(0, 1), (0, m), (1, m), (m // 2, m // 2 + 1), (1, m - 1)]:
                if j0 >= j1:
                    continue
                part = partition_two_sided(values, q1=j1 / m, q0=j0 / m if j0 else None)
                assert m - part.admissible.size - part.upper.size == j0
                assert part.admissible.size == j1 - j0
                assert part.upper.size == m - j1

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
        base = partition_two_sided(values, q1=j1 / m, q0=j0 / m if j0 else None)
        permuted = partition_two_sided(values[perm], q1=j1 / m, q0=j0 / m if j0 else None)
        # index i in the permuted input holds values[perm[i]]
        assert sorted(perm[permuted.admissible].tolist()) == sorted(base.admissible.tolist())
        assert (sorted(perm[lower_block(permuted, m)].tolist())
                == sorted(lower_block(base, m).tolist()))


class TestPartitionMatchesStableSortOracle:
    @settings(max_examples=400, deadline=None)
    @given(partition_cases())
    @example(([0.3, 0.1, 0.2, 0.4, 0.5], 0.8, 0.2))  # distinct: fast path
    @example(([1.0, 0.5, 1.0, 0.5, 0.5], 0.8, 0.2))  # ties: fallback
    @example(([0.2, float("nan"), 0.1, -0.0, 0.0], 0.8, 0.2))  # NaN, signed zeros
    def test_blocks_and_thresholds_identical(self, case):
        values, q1, q0 = case
        try:
            want = stable_sort_partition(values, q1=q1, q0=q0)
        except InvalidQuantilesError:
            with pytest.raises(InvalidQuantilesError):
                partition_two_sided(values, q1=q1, q0=q0)
            return
        assert_same_partition(partition_two_sided(values, q1=q1, q0=q0), want)

    def test_large_tie_free_vector(self):
        values = np.random.default_rng(14).normal(size=2500)
        for q0, q1 in [(None, 0.8), (0.6, 0.8), (None, 0.7)]:
            assert_same_partition(partition_two_sided(values, q1=q1, q0=q0),
                                  stable_sort_partition(values, q1=q1, q0=q0))

    def test_large_vector_with_ties(self):
        # quantized residuals: long runs of equal values across the cut points
        values = np.round(np.random.default_rng(15).uniform(size=2500), 2)
        assert_same_partition(partition_two_sided(values, q1=0.8, q0=0.6),
                              stable_sort_partition(values, q1=0.8, q0=0.6))
