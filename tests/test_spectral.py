import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_bounds import BudgetExceededError, subset_sigma_min, subset_sigma_min_sampled
from quantile_kaczmarz import leave_one_out_sigma_min, spectral
from quantile_kaczmarz.spectral import leave_one_out_spectrum


def brute_force_subset_min(a, s):
    """Independent oracle: per-subset SVD, plain enumeration."""
    m, n = a.shape
    if s < n:
        return 0.0
    best = np.inf
    for subset in combinations(range(m), s):
        sigma = np.linalg.svd(a[list(subset)], compute_uv=False)[-1]
        best = min(best, sigma)
    return float(best)


def per_row_eigh_leave_one_out(a):
    """Oracle: one eigensolve of the downdated Gram matrix per deleted row."""
    m, n = a.shape
    if m - 1 < n:
        return 0.0
    gram = a.T @ a
    best = math.inf
    for i in range(m):
        gi = gram - np.outer(a[i], a[i])
        low = scipy.linalg.eigh(gi, eigvals_only=True, subset_by_index=(0, 0))[0]
        best = min(best, float(low))
    return math.sqrt(max(best, 0.0))


def reference_leave_one_out(a):
    """Reference sigma_loo: the Gram eigendecomposition path with no
    lonely-column shortcut and no sigma_max, through the module's downdate
    and secular-root helpers; a numerically rank-deficient A is 0.0. Where
    every column has at least two nonzeros, ``leave_one_out_spectrum`` must
    return its bits."""
    m, n = a.shape
    if m - 1 < n:
        return 0.0
    gram = a.T @ a
    lam, q = np.linalg.eigh(gram)
    eps = np.finfo(np.float64).eps
    if lam[0] <= n * eps * lam[-1]:
        return 0.0
    w = a @ q
    w *= w
    leverage = w @ (1.0 / lam)
    singular = leverage >= 1.0 - max(spectral._LEVERAGE_TOL, n * eps * lam[-1] / lam[0])
    best = min(spectral._downdated_min_eigs(gram, a, np.flatnonzero(singular)),
               default=math.inf)
    if not singular.all():
        best = min(best, float(spectral._smallest_secular_roots(lam, w, ~singular).min()))
    return spectral._sigma_from_eig(best)


def sampled_svd_oracle(a, alpha, trials, seed):
    """Independent oracle: replay the documented draws, one SVD per subset."""
    m, n = a.shape
    s = min(max(math.floor(alpha * m + 0.5), 0), m)
    if s < n:
        return 0.0
    rng = np.random.Generator(np.random.PCG64(seed))
    return float(min(np.linalg.svd(a[rng.choice(m, size=s, replace=False)],
                                   compute_uv=False)[-1]
                     for _ in range(trials)))


def assert_within_gram_error(got, expected, a):
    """1e-9 relative where the oracle value is at least 1e-6 sigma_max, else
    1e-6 sigma_max absolute.

    A value read from a Gram matrix eigenvalue is off by up to about
    n eps sigma_max^2 (Weyl's bound for a backward-stable eigensolver), so its
    square root is off by up to n eps sigma_max^2 / sigma on top of the
    relative tolerance; that term passes 1e-9 relative below about
    1e-3 sigma_max.
    """
    sigma_max = float(np.linalg.norm(a, 2))
    if expected >= 1e-6 * sigma_max:
        gram_error = a.shape[1] * np.finfo(float).eps * sigma_max ** 2 / expected
        assert abs(got - expected) <= 1e-9 * expected + gram_error, (got, expected)
    else:
        assert abs(got - expected) <= 1e-6 * sigma_max, (got, expected)


def assert_matches_oracle(a):
    """sigma_loo against the per-row oracle, both read from Gram matrices."""
    expected = per_row_eigh_leave_one_out(a)
    got = leave_one_out_sigma_min(a)
    assert_within_gram_error(got, expected, a)
    return got, expected


def sparse_pm1(m, n, lonely, rng):
    """m x n with two +-1 entries per row; each of the first ``lonely`` columns
    appears in exactly one row, every other column in at least one."""
    shared = np.arange(lonely, n)
    deal = rng.permutation(shared)
    if deal.size % 2:
        deal = np.append(deal, rng.choice(deal[:-1]))
    pairs = [deal[k:k + 2] for k in range(0, deal.size, 2)]
    pairs += [rng.choice(shared, size=2, replace=False) for _ in range(m - lonely - len(pairs))]
    pairs += [[k, rng.choice(shared)] for k in range(lonely)]
    a = np.zeros((m, n))
    for i, cols in zip(rng.permutation(m).tolist(), pairs):
        a[i, cols] = rng.choice([-1.0, 1.0], size=2)
    return a


class TestSubsetSigmaMin:
    def test_full_identity(self):
        assert subset_sigma_min(np.eye(3), 1.0) == pytest.approx(1.0)

    def test_below_column_count_is_zero(self):
        # a 2-row subset of a 3-column matrix always has a null direction
        assert subset_sigma_min(np.eye(3), 2 / 3) == 0.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(30)
        a = rng.normal(size=(6, 2))
        assert subset_sigma_min(a, 0.5) == pytest.approx(brute_force_subset_min(a, 3), abs=1e-10)

    def test_all_sizes_against_oracle(self):
        rng = np.random.default_rng(31)
        for m, n in [(3, 2), (5, 3), (8, 3), (6, 1)]:
            a = rng.normal(size=(m, n))
            for s in range(0, m + 1):
                expected = brute_force_subset_min(a, s)
                got = subset_sigma_min(a, s / m)
                assert got == pytest.approx(expected, abs=1e-9), (m, n, s)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceededError) as err:
            subset_sigma_min(np.random.default_rng(32).normal(size=(30, 2)), 0.5,
                             subset_budget=1000)
        assert err.value.subset_count == 155117520

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(33)
        a = rng.normal(size=(7, 2))
        values = [subset_sigma_min(a, s / 7) for s in range(1, 8)]
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))


def gaussian_lonely(m, n, rng, density):
    """Row-normalized m x n Gaussian matrix, each entry kept with probability
    ``density``, whose column ``col`` has exactly one nonzero; returns (a, col)."""
    a = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < density)
    col, row = int(rng.integers(n)), int(rng.integers(m))
    a[:, col] = 0.0
    a[row, col] = rng.normal()
    empty = ~a.any(axis=1)
    a[empty, (col + 1) % n] = rng.normal(size=int(empty.sum()))
    return a / np.linalg.norm(a, axis=1)[:, None], col


class TestLeaveOneOut:
    def test_matches_subset_variant(self):
        rng = np.random.default_rng(34)
        a = rng.normal(size=(6, 3))
        assert leave_one_out_sigma_min(a) == pytest.approx(
            subset_sigma_min(a, 1 - 1 / 6), abs=1e-9)

    def test_matches_per_submatrix_svd(self):
        rng = np.random.default_rng(35)
        a = rng.normal(size=(12, 4))
        expected = min(
            np.linalg.svd(np.delete(a, i, axis=0), compute_uv=False)[-1]
            for i in range(12)
        )
        assert leave_one_out_sigma_min(a) == pytest.approx(expected, abs=1e-9)

    def test_stacked_identity(self):
        a = np.vstack([np.eye(3), np.eye(3)])
        assert leave_one_out_sigma_min(a) == pytest.approx(1.0, abs=1e-10)

    def test_short_matrix_is_zero(self):
        # removing one row of the identity leaves a wide submatrix
        assert leave_one_out_sigma_min(np.eye(3)) == 0.0

    def test_requires_two_rows(self):
        with pytest.raises(ValueError):
            leave_one_out_sigma_min(np.ones((1, 1)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 100), extra=st.integers(1, 20),
           kind=st.sampled_from(["gaussian", "scaled", "duplicated"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_per_row_oracle(self, n, extra, kind, seed):
        rng = np.random.default_rng(seed)
        m = n + extra
        a = rng.normal(size=(m, n))
        if kind == "scaled":
            a *= np.exp(rng.normal(scale=2.0, size=(m, 1)))
        elif kind == "duplicated":
            a[rng.integers(m, size=m // 3)] = a[rng.integers(m, size=m // 3)]
        assert_matches_oracle(a)

    @pytest.mark.parametrize("m,n", [(7, 6), (31, 30), (101, 100), (120, 100), (40, 3),
                                     (400, 292)])
    def test_gaussian_shapes_match_oracle(self, m, n):
        assert_matches_oracle(np.random.default_rng(m * n).normal(size=(m, n)))

    def test_repeated_eigenvalues_match_oracle(self):
        # the stacked identity has a single eigenvalue of multiplicity n
        got, _ = assert_matches_oracle(np.vstack([np.eye(5)] * 3))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_duplicated_rows_match_oracle(self):
        a = np.random.default_rng(41).normal(size=(30, 8))
        assert_matches_oracle(np.vstack([a, a[:10]]))

    def test_zero_column_is_zero(self):
        a = np.random.default_rng(42).normal(size=(20, 5))
        a[:, 2] = 0.0
        got, expected = assert_matches_oracle(a)
        assert got == expected == 0.0

    def test_rank_deficient_matches_oracle(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 6))
        got, expected = assert_matches_oracle(a)
        assert got == expected

    def test_one_more_row_than_columns(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 10, 50):
            assert_matches_oracle(rng.normal(size=(n + 1, n)))

    @pytest.mark.parametrize("seed", range(8))
    def test_lonely_column_rows_give_exact_zero(self, seed):
        # deleting the only row that touches a column leaves a zero column
        a = sparse_pm1(60, 20, 3, np.random.default_rng(seed))
        a /= np.linalg.norm(a, axis=1)[:, None]
        assert leave_one_out_sigma_min(a) == 0.0
        assert per_row_eigh_leave_one_out(a) == 0.0

    def test_lonely_column_at_benchmark_shape(self):
        a = sparse_pm1(608, 188, 4, np.random.default_rng(45))
        a /= np.linalg.norm(a, axis=1)[:, None]
        assert leave_one_out_sigma_min(a) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_gaussian_lonely_column_gives_exact_zero(self, seed):
        # the per-row eigensolve of the downdated Gram matrix reads about 1e-16
        # for the zero column's eigenvalue, not 0, on some of these seeds
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 80))
        a, col = gaussian_lonely(m, int(rng.integers(2, m)), rng, 0.5 if seed % 2 else 1.0)
        assert np.count_nonzero(a[:, col]) == 1
        assert leave_one_out_sigma_min(a) == 0.0
        eps = np.finfo(float).eps
        assert per_row_eigh_leave_one_out(a) <= math.sqrt(a.shape[1] * eps) * np.linalg.norm(a, 2)

    def test_lonely_column_downdates_nothing(self, monkeypatch):
        def downdate(*args):
            raise AssertionError("a lonely column needs no downdate")

        monkeypatch.setattr(spectral, "_downdated_min_eigs", downdate)
        monkeypatch.setattr(spectral, "_smallest_secular_roots", downdate)
        a, _ = gaussian_lonely(60, 20, np.random.default_rng(47), 1.0)
        assert leave_one_out_spectrum(a)[0] == 0.0

    def test_rank_deficient_downdates_nothing(self, monkeypatch):
        def downdate(*args):
            raise AssertionError("a rank-deficient matrix needs no downdate")

        monkeypatch.setattr(spectral, "_downdated_min_eigs", downdate)
        monkeypatch.setattr(spectral, "_smallest_secular_roots", downdate)
        rng = np.random.default_rng(48)
        a = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 20))
        lam = np.linalg.eigh(a.T @ a)[0]
        assert leave_one_out_spectrum(a) == (0.0, math.sqrt(lam[-1]))

    def test_exactly_singular_gram_gives_exact_zero(self):
        # column 2 is the sum of the others, so A^T A is singular in integers;
        # a per-row eigensolve of its downdates can read about 5e-16, 2e-8 after the root
        a = np.array([[-1.0, 2.0], [-1.0, 2.0], [1.0, -3.0], [0.0, -1.0], [0.0, 1.0],
                      [0.0, 1.0]])
        a = np.column_stack([a, a.sum(axis=1)])
        assert leave_one_out_sigma_min(a) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), extra=st.integers(-10, 20),
           kind=st.sampled_from(["gaussian", "scaled", "duplicated", "sparse", "low-rank",
                                 "lonely"]),
           seed=st.integers(0, 2**32 - 1))
    def test_spectrum_matches_reference_and_svd(self, n, extra, kind, seed):
        # sigma_loo keeps the reference's bits wherever every column has two
        # nonzeros; sigma_max agrees with the SVD's to the rounding of the Gram
        # product and its eigensolve, about (m + n) eps relative at most, also
        # where fewer than n + 1 rows take it from the smaller Gram matrix
        rng = np.random.default_rng(seed)
        m = max(2, n + extra)
        a = rng.normal(size=(m, n))
        if kind == "scaled":
            a *= np.exp(rng.normal(scale=2.0, size=(m, 1)))
        elif kind == "duplicated":
            a[rng.integers(m, size=m // 3)] = a[rng.integers(m, size=m // 3)]
        elif kind == "sparse":
            a *= rng.random(size=(m, n)) < 0.3
        elif kind == "low-rank":
            r = int(rng.integers(1, n + 1))
            a = rng.normal(size=(m, r)) @ rng.normal(size=(r, n))
        elif kind == "lonely" and n > 1:
            a, _ = gaussian_lonely(m, n, rng, 0.5)
        sigma_loo, sigma_max = leave_one_out_spectrum(a)
        if np.count_nonzero(a, axis=0).min() >= 2:
            assert sigma_loo == reference_leave_one_out(a)
        else:
            assert sigma_loo == 0.0
        svd_max = float(np.linalg.svd(a, compute_uv=False)[0])
        assert abs(sigma_max - svd_max) <= (m + n) * np.finfo(float).eps * svd_max

    def test_memory_is_linear_in_the_matrix_size(self):
        m, n = 958, 292
        a = np.random.default_rng(46).normal(size=(m, n))
        tracemalloc.start()
        try:
            leave_one_out_sigma_min(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the per-row eigensolves needed O(n^2); an (m, n, n) stack would be 650 MB
        assert peak < 6 * m * n * 8


class TestSampled:
    def test_exhaustive_sampling_matches_exact(self):
        rng = np.random.default_rng(36)
        a = rng.normal(size=(6, 2))
        exact = subset_sigma_min(a, 0.5)
        # 600 draws over C(6,3)=20 subsets covers them all for this seed
        sampled = subset_sigma_min_sampled(a, 0.5, trials=600, seed=1)
        assert sampled == pytest.approx(exact, abs=1e-12)

    def test_upper_bounds_exact(self):
        rng = np.random.default_rng(37)
        for trial in range(5):
            a = rng.normal(size=(7, 3))
            exact = subset_sigma_min(a, 5 / 7)
            sampled = subset_sigma_min_sampled(a, 5 / 7, trials=3, seed=trial)
            assert sampled >= exact - 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(38)
        a = rng.normal(size=(10, 3))
        v1 = subset_sigma_min_sampled(a, 0.5, trials=25, seed=7)
        v2 = subset_sigma_min_sampled(a, 0.5, trials=25, seed=7)
        assert v1 == v2

    def test_below_column_count_is_zero(self):
        assert subset_sigma_min_sampled(np.eye(3), 1 / 3, trials=5, seed=0) == 0.0

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            subset_sigma_min_sampled(np.eye(3), 1.0, trials=0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), extra=st.integers(0, 6), alpha=st.floats(0.0, 1.0),
           trials=st.integers(1, 40), kind=st.sampled_from(["gaussian", "scaled"]),
           data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
    def test_matches_replayed_svd_oracle(self, n, extra, alpha, trials, kind, data_seed, seed):
        rng = np.random.default_rng(data_seed)
        m = min(n + extra, 14)
        a = rng.normal(size=(m, n))
        if kind == "scaled":
            a *= np.exp(rng.normal(scale=2.0, size=(m, 1)))
        expected = sampled_svd_oracle(a, alpha, trials, seed)
        assert_within_gram_error(subset_sigma_min_sampled(a, alpha, trials, seed),
                                 expected, a)

    def test_memory_stays_within_chunk_budget(self):
        a = np.random.default_rng(47).normal(size=(500, 50))
        tracemalloc.start()
        try:
            subset_sigma_min_sampled(a, 0.9, trials=30, seed=55)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # gathering per-row outer products as a (trials, s, n, n) array takes 268 MiB here
        assert peak < 32 * 2**20

