import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import (
    DenseSystem,
    DimensionMismatchError,
    ZeroRowError,
    extreme_singular_values,
    normalize_rows,
)
from quantile_kaczmarz.linalg import as_matrix, row_norms

from qk_helpers import normalized_residuals, step_from


def project(x, a, b_i):
    """Project x onto the hyperplane <a, y> = b_i with one solve step."""
    return step_from(a[None, :], np.array([float(b_i)]), x)[0]


class TestAsMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (7, 3), (-1, -1)])
    def test_non_finite_entry_raises(self, bad, where):
        a = np.random.default_rng(2).normal(size=(15, 6))
        a[where] = bad
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_matrix(a)

    def test_finiteness_check_allocates_no_mask(self):
        # an m x n boolean mask alone would be a.nbytes / 8
        a = np.random.default_rng(3).normal(size=(2500, 250))
        as_matrix(a[:2, :2])  # a first call may import; keep that out of the peak
        tracemalloc.start()
        try:
            as_matrix(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes // 64


class TestRowNorms:
    def test_identity(self):
        norms = row_norms(np.eye(2))
        assert norms.tolist() == [1.0, 1.0]

    def test_three_four_five(self):
        norms = row_norms(np.array([[3.0, 4.0]]))
        assert norms.tolist() == [5.0]

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRowError) as err:
            row_norms(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert err.value.index == 0


class TestNormalizeRows:
    def test_diagonal(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0]])
        b = np.array([4.0, 9.0])
        normalized, scalings = normalize_rows(a)
        assert np.array_equal(normalized, np.eye(2))
        assert scalings.tolist() == [2.0, 3.0]
        assert (b / scalings).tolist() == [2.0, 3.0]

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(0)
        a, _ = normalize_rows(rng.normal(size=(5, 3)))
        again, scalings = normalize_rows(a)
        assert np.allclose(again, a, atol=1e-15)
        assert np.allclose(scalings, 1.0, atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRowError) as err:
            normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert err.value.index == 1

    def test_then_row_norms_all_ones(self):
        rng = np.random.default_rng(1)
        a, _ = normalize_rows(rng.uniform(size=(8, 4)))
        norms = row_norms(a)
        assert np.allclose(norms, 1.0, atol=1e-12)


class TestNormalizedResiduals:
    # the residuals solve selects on, read per row (qk_helpers.normalized_residuals)

    def test_exact_solution_gives_zeros(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(6, 3))
        x = rng.normal(size=3)
        res = normalized_residuals(a, a @ x, x)
        assert np.all(res < 1e-12)

    def test_identity_case(self):
        res = normalized_residuals(np.eye(2), np.array([1.0, 2.0]), np.zeros(2))
        assert res.tolist() == [1.0, 2.0]

    def test_matches_per_row_recomputation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        x = rng.normal(size=3)
        res = normalized_residuals(a, b, x)
        for j in range(5):
            expected = abs(np.dot(x, a[j]) - b[j]) / np.linalg.norm(a[j])
            assert res[j] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DenseSystem(np.eye(2), np.array([1.0, 2.0, 3.0]))


class TestProjectOntoRow:
    def test_axis_aligned(self):
        out = project(np.zeros(2), np.array([1.0, 0.0]), 3.0)
        assert out.tolist() == [3.0, 0.0]

    def test_fixed_point_on_hyperplane(self):
        x = np.array([1.0, 2.0])  # <x, a> = 5
        out = project(x, np.array([1.0, 2.0]), 5.0)
        assert np.allclose(out, x, atol=1e-12)

    def test_hand_computed(self):
        out = project(np.zeros(2), np.array([3.0, 4.0]), 5.0)
        assert np.allclose(out, [0.6, 0.8], atol=1e-12)

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRowError):
            project(np.zeros(2), np.zeros(2), 1.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_orthogonality(self, seed):
        # displacement is parallel to the row: orthogonal directions are untouched
        rng = np.random.default_rng(seed)
        n = 4
        a = rng.normal(size=n)
        x = rng.normal(size=n)
        out = project(x, a, rng.normal())
        v = rng.normal(size=n)
        v -= (v @ a) / (a @ a) * a
        assert abs((out - x) @ v) <= 1e-10 * max(1.0, np.linalg.norm(out - x) * np.linalg.norm(v))
        assert abs(out @ a - (x @ a + (out - x) @ a)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pythagorean_identity(self, seed):
        # for a consistent row: |x'-x*|^2 + |x'-x|^2 = |x-x*|^2
        rng = np.random.default_rng(seed)
        n = 5
        a = rng.normal(size=n)
        x_star = rng.normal(size=n)
        b_i = float(a @ x_star)
        x = rng.normal(size=n)
        out = project(x, a, b_i)
        lhs = np.sum((out - x_star) ** 2) + np.sum((out - x) ** 2)
        rhs = np.sum((x - x_star) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_hyperplane_membership(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=6)
        out = project(rng.normal(size=6), a, 2.5)
        assert abs(out @ a - 2.5) <= 1e-10


class TestExtremeSingularValues:
    def test_identity(self):
        smin, smax = extreme_singular_values(np.eye(3))
        assert smin == pytest.approx(1.0)
        assert smax == pytest.approx(1.0)

    def test_diagonal_with_zero_row(self):
        a = np.array([[2.0, 0.0], [0.0, 5.0], [0.0, 0.0]])
        smin, smax = extreme_singular_values(a)
        assert smin == pytest.approx(2.0)
        assert smax == pytest.approx(5.0)

    def test_against_gram_eigendecomposition(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 5))
        smin, smax = extreme_singular_values(a)
        eigs = np.linalg.eigvalsh(a.T @ a)
        assert smin == pytest.approx(np.sqrt(eigs[0]), abs=1e-8)
        assert smax == pytest.approx(np.sqrt(eigs[-1]), abs=1e-8)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 3))
        assert extreme_singular_values(a) == pytest.approx(extreme_singular_values(a.T))

    def test_gesvd_fallback_when_gesdd_fails(self, monkeypatch):
        a = np.random.default_rng(6).normal(size=(30, 8))
        expected = extreme_singular_values(a)

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        assert extreme_singular_values(a) == pytest.approx(expected, rel=1e-12)

    def test_both_drivers_failing_raises_linalg_error(self, svd_fails):
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            extreme_singular_values(np.eye(3))
