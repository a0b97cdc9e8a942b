import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import (
    RK,
    CorruptionSpec,
    DenseSystem,
    FileSource,
    GeneratedSource,
    MatrixMarketParseError,
    OnHyperplane,
    ProblemSpec,
    SolverConfig,
    UnsupportedFieldError,
    ZeroRowError,
    corrupt,
    generate_system,
    load_matrix_market,
    save_matrix_market,
    solve,
)
from quantile_kaczmarz import matrixmarket
from quantile_kaczmarz.linalg import normalize_rows

from qk_helpers import normalized_residuals


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

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    def test_normalized_in_place_with_normalize_rows_bits(self, dist):
        spec = ProblemSpec(source=GeneratedSource(dist, 40, 6, seed=12), solution_seed=13,
                           corruption=CorruptionSpec(beta=0.1, seed=14))
        raw = generate_system(dataclasses.replace(spec, normalize=False)).A
        expected, _ = normalize_rows(raw)
        system = generate_system(spec)
        gt = system.ground_truth
        assert system.A.tobytes() == expected.tobytes()
        assert gt.b_true.tobytes() == (expected @ gt.x_star).tobytes()

    def test_normalized_system_peaks_near_one_matrix(self):
        # a normalized copy of the drawn matrix would double the peak
        spec = ProblemSpec(source=GeneratedSource("gaussian", 1000, 200, seed=15),
                           corruption=CorruptionSpec(beta=0.05, seed=16))
        # a first call imports numpy submodules; keep that out of the peak
        generate_system(dataclasses.replace(spec, source=GeneratedSource("gaussian", 20, 4)))
        tracemalloc.start()
        try:
            system = generate_system(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * system.A.nbytes

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


def hyperplane_start(a, b, row):
    """The iterate ``solve`` starts from under OnHyperplane(row)."""
    config = SolverConfig(RK(), max_iters=0, x0=OnHyperplane(row=row))
    return solve(DenseSystem(a, b), config).final_x


class TestInitialIterate:
    def test_unit_row(self):
        x0 = hyperplane_start(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([2.0, 5.0]), 0)
        assert x0.tolist() == [2.0, 0.0]

    def test_hand_computed(self):
        x0 = hyperplane_start(np.array([[3.0, 4.0]]), np.array([5.0]), 0)
        assert np.allclose(x0, [0.6, 0.8], atol=1e-12)
        assert abs(x0 @ np.array([3.0, 4.0]) - 5.0) <= 1e-10

    def test_homogeneous_row(self):
        x0 = hyperplane_start(np.array([[1.0, 1.0]]), np.array([0.0]), 0)
        assert np.array_equal(x0, np.zeros(2))

    def test_zero_row(self):
        with pytest.raises(ZeroRowError):
            hyperplane_start(np.zeros((2, 2)), np.ones(2), 1)

    def test_negative_row_rejected_when_built(self):
        with pytest.raises(ValueError, match="x0 row must be >= 0, got -2"):
            OnHyperplane(row=-2)


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

    def test_array_load_holds_the_body_once(self, tmp_path):
        # the body's bytes once, plus numpy's value buffer, which grows to
        # about twice the matrix; a second copy of the body would add a file
        path = tmp_path / "arr.mtx"
        save_matrix_market(path, np.random.default_rng(3).normal(size=(300, 100)))
        load_matrix_market(path)  # a first call imports numpy submodules
        tracemalloc.start()
        try:
            a = load_matrix_market(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + 3 * a.nbytes

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
        a[0, 0], a[1, 1] = -0.0, 5e-324
        a[2, 2], a[3, 0] = 1.7976931348623157e308, -1.7976931348623157e308
        for fmt in ("array", "coordinate"):
            path = tmp_path / f"rt_{fmt}.mtx"
            save_matrix_market(path, a, fmt=fmt)
            back = load_matrix_market(path)
            assert np.array_equal(back.view(np.uint64), a.view(np.uint64))

    def test_array_writer_text(self, tmp_path):
        path = tmp_path / "text.mtx"
        save_matrix_market(path, [[1.0, -0.0], [0.1, 5e-324]], comment="two\nlines")
        assert path.read_text() == ("%%MatrixMarket matrix array real general\n"
                                    "%two\n%lines\n"
                                    "2 2\n"
                                    "1.0\n0.1\n-0.0\n5e-324\n")

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
        ("%%MatrixMarket matrix coordinate real general\r\n% c\r\n2 2 2\r\n1 1 1.0\r\n\r\n"
         "2 2 oops\r\n", 6),
        ("%%MatrixMarket matrix array pattern general\n1 1\n", 1),
        # array format: a bad value after comment and blank lines reports its own line
        ("%%MatrixMarket matrix array real general\n% c\n2 1\n% c\n\n1.0\n% c\noops\n", 8),
        ("%%MatrixMarket matrix array real general\n2 1\n1.0 also read\nnan?\n", 4),
        # array format: a wrong value count reports the last line of the file
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n3.0\n% c\n", 6),
        ("%%MatrixMarket matrix array real general\n1 2\n1.0\n2.0\n3.0\n", 5),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n4.0\n\n", 7),
        ("%%MatrixMarket matrix array real general\n2 2\n", 2),
        # a size line far beyond the body is a count error, not an allocation of that size
        ("%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n", 3),
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

    @pytest.mark.parametrize("header, body, expected", [
        ("coordinate real general", ["3 2 4", "1 1 1.5", "3 2 -0.0", "2 1 2.5e-3", "1 1 -4"],
         [[-2.5, 0.0], [2.5e-3, 0.0], [0.0, -0.0]]),
        ("coordinate real symmetric", ["3 3 4", "1 1 2.0", "3 1 1.25", "3 1 0.5", "2 2 -1"],
         [[2.0, 0.0, 1.75], [0.0, -1.0, 0.0], [1.75, 0.0, 0.0]]),
        ("coordinate pattern general", ["2 3 3", "1 1", "1 3", "2 2"],
         [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
    ], ids=["general", "symmetric", "pattern"])
    def test_coordinate_line_ends_read_alike(self, tmp_path, header, body, expected):
        lines = [f"%%MatrixMarket matrix {header}", "% a comment", "", *body]
        path = tmp_path / "ends.mtx"
        loaded = []
        for newline in ("\n", "\r\n", "\r"):
            path.write_bytes((newline.join(lines) + newline).encode("ascii"))
            loaded.append(load_matrix_market(path))
        assert loaded[0].tolist() == expected
        for a in loaded[1:]:
            assert np.array_equal(a.view(np.uint64), loaded[0].view(np.uint64))

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


# Perturbations of a writer-produced array body: each maps the body's lines
# and a drawn line index k to new lines; most must leave the one-call path.
_PERTURBATIONS = {
    "none": lambda body, k: body,
    "comment": lambda body, k: body[:k] + ["% c"] + body[k:],
    "indented_comment": lambda body, k: body[:k] + ["   % c"] + body[k:],
    "blank_line": lambda body, k: body[:k] + [""] + body[k:],
    "blank_for_value": lambda body, k: body[:k] + [""] + body[k + 1:],
    "trailing_blank_lines": lambda body, k: body + ["", ""],
    "two_tokens": lambda body, k: body[:k] + [body[k] + " 7.5"] + body[k + 1:],
    "underscore": lambda body, k: body[:k] + ["1_0"] + body[k + 1:],
    "nan_inf": lambda body, k: body[:k] + [("nan", "-inf", "Infinity", "NaN")[k % 4]]
    + body[k + 1:],
    "glued_values": lambda body, k: body[:k] + ["1-2"] + body[k + 1:],
    "bad_exponent": lambda body, k: body[:k] + ["1e"] + body[k + 1:],
    "one_too_few": lambda body, k: body[:k] + body[k + 1:],
    "one_too_many": lambda body, k: body[:k] + ["3.25"] + body[k:],
}


def _scanner_oracle(path, expected):
    """The line scanner's values for an array file whose body starts on line 3,
    or the line of its MatrixMarketParseError."""
    with open(path, encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()
    try:
        values, _ = matrixmarket._scan_array_values(lines[2:], 3)
    except MatrixMarketParseError as err:
        return err.line
    return values if values.size == expected else len(lines)


class TestArrayReaderAgainstScanner:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=st.tuples(st.integers(1, 5), st.integers(1, 4)),
           data=st.data(),
           symmetric=st.booleans(),
           perturb=st.sampled_from(sorted(_PERTURBATIONS)),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           final_newline=st.booleans())
    def test_same_values_or_error_line(self, tmp_path, shape, data, symmetric, perturb,
                                       newline, final_newline):
        m, n = (shape[1], shape[1]) if symmetric else shape
        floats = st.floats(allow_nan=False, allow_infinity=False)
        a = np.array(data.draw(st.lists(floats, min_size=m * n, max_size=m * n)))
        path = tmp_path / "diff.mtx"
        save_matrix_market(path, a.reshape(m, n))
        header, size, *body = path.read_text().splitlines()
        if symmetric:
            header = header.replace("general", "symmetric")
            lower = [i >= j for j in range(n) for i in range(n)]
            body = [v for v, keep in zip(body, lower) if keep]
        expected = len(body)
        body = _PERTURBATIONS[perturb](body, data.draw(st.integers(0, len(body) - 1)))
        text = newline.join([header, size, *body]) + (newline if final_newline else "")
        path.write_bytes(text.encode("ascii"))

        oracle = _scanner_oracle(path, expected)
        if isinstance(oracle, int):
            with pytest.raises(MatrixMarketParseError) as err:
                load_matrix_market(path)
            assert err.value.line == oracle
            return
        got = load_matrix_market(path)
        if symmetric:
            j, i = np.triu_indices(n)
            got = got[i, j]
        else:
            got = got.T.ravel()
        assert np.array_equal(np.isnan(got), np.isnan(oracle))
        finite = ~np.isnan(oracle)
        assert np.array_equal(got[finite].view(np.uint64), oracle[finite].view(np.uint64))

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_writer_output_takes_the_one_call_path(self, tmp_path, monkeypatch, newline):
        def no_scan(lines, start):
            raise AssertionError("the line scanner was called")

        monkeypatch.setattr(matrixmarket, "_scan_array_values", no_scan)
        a = np.random.default_rng(23).normal(size=(7, 5))
        a[0, 0], a[1, 0] = -0.0, 5e-324
        path = tmp_path / "fast.mtx"
        save_matrix_market(path, a)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode("ascii")))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_matrix_market(path)
        assert np.array_equal(back.view(np.uint64), a.view(np.uint64))
