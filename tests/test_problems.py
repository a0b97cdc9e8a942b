import numpy as np
import pytest

from quantile_kaczmarz import (
    CorruptionSpec,
    FileSource,
    GeneratedSource,
    MatrixMarketParseError,
    ProblemSpec,
    UnsupportedFieldError,
    ZeroRowError,
    corrupt,
    generate_system,
    initial_iterate_on_hyperplane,
    load_matrix_market,
    normalized_residuals,
    save_matrix_market,
)


class TestGenerateSystem:
    def test_consistent_by_construction(self):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", 100, 10, seed=1), solution_seed=2))
        gt = system.ground_truth
        res = normalized_residuals(system.A, system.b, gt.x_star)
        assert np.all(res < 1e-10)
        assert np.allclose(system.A @ gt.x_star, gt.b_true, atol=1e-10)

    def test_corruption_support_cardinality(self):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", 100, 10, seed=3),
            corruption=CorruptionSpec(beta=0.05, seed=4), solution_seed=5))
        gt = system.ground_truth
        assert gt.corrupt_support.size == 5
        diff = system.b - gt.b_true
        mask = np.ones(100, dtype=bool)
        mask[gt.corrupt_support] = False
        assert np.all(diff[mask] == 0.0)
        assert np.all(diff[gt.corrupt_support] != 0.0)
        assert gt.beta == pytest.approx(0.05)

    def test_corruption_magnitude_range_with_scale(self):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", 100, 10, seed=6),
            corruption=CorruptionSpec(beta=0.05, scale=100.0, seed=7), solution_seed=8))
        gt = system.ground_truth
        offsets = (system.b - gt.b_true)[gt.corrupt_support]
        assert np.all(offsets > 0.0)
        assert np.all(offsets <= 100.0)

    def test_uniform_source_and_normalization(self):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("uniform", 50, 5, seed=9), normalize=True))
        norms = np.linalg.norm(system.A, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_unnormalized_when_disabled(self):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", 50, 5, seed=10), normalize=False))
        norms = np.linalg.norm(system.A, axis=1)
        assert not np.allclose(norms, 1.0, atol=1e-3)

    def test_requires_overdetermined(self):
        with pytest.raises(ValueError):
            GeneratedSource("gaussian", 10, 10, seed=0)

    def test_bad_dist(self):
        with pytest.raises(ValueError):
            GeneratedSource("cauchy", 10, 2, seed=0)


class TestCorrupt:
    def test_beta_zero_is_identity(self):
        b = np.arange(8.0)
        out, support = corrupt(b, CorruptionSpec(beta=0.0, seed=1))
        assert np.array_equal(out, b)
        assert support.size == 0

    def test_minimal_support(self):
        b = np.zeros(10)
        out, support = corrupt(b, CorruptionSpec(beta=0.1, seed=2))
        assert support.size == 1
        assert np.count_nonzero(out) == 1

    def test_deterministic(self):
        b = np.zeros(20)
        spec = CorruptionSpec(beta=0.25, seed=3)
        out1, sup1 = corrupt(b, spec)
        out2, sup2 = corrupt(b, spec)
        assert np.array_equal(out1, out2)
        assert np.array_equal(sup1, sup2)

    def test_half_up_rounding_of_support(self):
        out, support = corrupt(np.zeros(30), CorruptionSpec(beta=0.05, seed=4))
        assert support.size == 2  # 1.5 rounds up

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            CorruptionSpec(beta=1.0)
        with pytest.raises(ValueError):
            CorruptionSpec(beta=0.1, low=2.0, high=1.0)


class TestInitialIterate:
    def test_unit_row(self):
        x0 = initial_iterate_on_hyperplane(np.array([[1.0, 0.0], [0.0, 1.0]]),
                                           np.array([2.0, 5.0]), 0)
        assert x0.tolist() == [2.0, 0.0]

    def test_hand_computed(self):
        x0 = initial_iterate_on_hyperplane(np.array([[3.0, 4.0]]), np.array([5.0]), 0)
        assert np.allclose(x0, [0.6, 0.8], atol=1e-12)
        assert abs(x0 @ np.array([3.0, 4.0]) - 5.0) <= 1e-10

    def test_homogeneous_row(self):
        x0 = initial_iterate_on_hyperplane(np.array([[1.0, 1.0]]), np.array([0.0]), 0)
        assert np.array_equal(x0, np.zeros(2))

    def test_zero_row(self):
        with pytest.raises(ZeroRowError):
            initial_iterate_on_hyperplane(np.zeros((2, 2)), np.ones(2), 1)


class TestMatrixMarket:
    def test_minimal_coordinate_file(self, tmp_path):
        path = tmp_path / "mini.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 2 2.0\n"
        )
        assert load_matrix_market(path).tolist() == [[1.0, 0.0], [0.0, 2.0]]

    def test_array_format_column_major(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "3 2\n"
            "1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n"
        )
        expected = [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]
        assert load_matrix_market(path).tolist() == expected

    def test_pattern_entries_become_ones(self, tmp_path):
        path = tmp_path / "pat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 3\n"
            "1 1\n1 3\n2 2\n"
        )
        assert load_matrix_market(path).tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 1 5.0\n"
        )
        assert load_matrix_market(path).tolist() == [[1.0, 5.0], [5.0, 0.0]]

    def test_symmetric_array_lower_triangle(self, tmp_path):
        path = tmp_path / "syma.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "1.0\n7.0\n4.0\n"
        )
        assert load_matrix_market(path).tolist() == [[1.0, 7.0], [7.0, 4.0]]

    def test_integer_field_parses(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate integer general\n"
            "1 2 2\n"
            "1 1 3\n1 2 -4\n"
        )
        assert load_matrix_market(path).tolist() == [[3.0, -4.0]]

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(20)
        a = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
        for fmt in ("array", "coordinate"):
            path = tmp_path / f"rt_{fmt}.mtx"
            save_matrix_market(path, a, fmt=fmt)
            back = load_matrix_market(path)
            assert np.array_equal(back, a)

    def test_complex_field_unsupported(self, tmp_path):
        path = tmp_path / "cx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(UnsupportedFieldError):
            load_matrix_market(path)

    def test_skew_symmetry_unsupported(self, tmp_path):
        path = tmp_path / "sk.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n")
        with pytest.raises(UnsupportedFieldError):
            load_matrix_market(path)

    @pytest.mark.parametrize("content,line", [
        ("%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n", 1),
        ("%%MatrixMarket matrix coordinate real general\nbad size\n1 1 1.0\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 oops\n", 3),
        ("%%MatrixMarket matrix array pattern general\n1 1\n", 1),
        # array format: a bad value after comment and blank lines reports its own line
        ("%%MatrixMarket matrix array real general\n% c\n2 1\n% c\n\n1.0\n% c\noops\n", 8),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0 also read\nnan?\n", 4),
        # array format: a wrong value count reports the last line of the file
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n% c\n", 6),
        ("%%MatrixMarket matrix array real general\n1 2\n1.0\n2.0\n3.0\n", 5),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n4.0\n\n", 7),
        ("%%MatrixMarket matrix array real general\n2 2\n", 2),
    ])
    def test_parse_errors_carry_line_numbers(self, tmp_path, content, line):
        path = tmp_path / "bad.mtx"
        path.write_text(content)
        with pytest.raises(MatrixMarketParseError) as err:
            load_matrix_market(path)
        assert err.value.line == line

    def test_array_reads_first_token_and_skips_comments(self, tmp_path):
        path = tmp_path / "tok.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "2 2\n"
            "1.0 ignored\n"
            "% a comment\n"
            "\n"
            "  2.0\t\n"
            "   % an indented comment\n"
            "3.0 4.5 9\n"
            "4.0\n"
        )
        assert load_matrix_market(path).tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_symmetric_array_fills_columns_of_the_lower_triangle(self, tmp_path):
        path = tmp_path / "syma3.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "3 3\n"
            "1\n2\n3\n4\n5\n6\n"
        )
        assert load_matrix_market(path).tolist() == [[1.0, 2.0, 3.0],
                                                      [2.0, 4.0, 5.0],
                                                      [3.0, 5.0, 6.0]]

    def test_duplicate_coordinate_entries_sum(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "1 1 2\n"
            "1 1 1.5\n1 1 2.5\n"
        )
        assert load_matrix_market(path).tolist() == [[4.0]]

    def test_file_source_in_problem_spec(self, tmp_path):
        rng = np.random.default_rng(21)
        a = rng.uniform(0.5, 1.5, size=(6, 2))
        path = tmp_path / "src.mtx"
        save_matrix_market(path, a)
        system = generate_system(ProblemSpec(
            source=FileSource(path=path), normalize=True, solution_seed=22))
        assert system.shape == (6, 2)
        assert np.allclose(np.linalg.norm(system.A, axis=1), 1.0, atol=1e-12)
