"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the PASS
lines inline). The two SuiteSparse golden-value tests skip unless the
matrices are available (see qk_helpers.require_matrix).
"""

import statistics
from itertools import combinations

import numpy as np
import pytest

from paper_bounds import rqrk_bound, subset_sigma_min
from qk_helpers import require_matrix, step_from
from quantile_kaczmarz import (
    DQRK,
    ExperimentSpec,
    Motzkin,
    QRK,
    RK,
    RQRK,
    RunSpec,
    cost_parity_benchmark,
    diagnostic_report,
    emit_artifacts,
    robustness_diagnostic,
    run_experiment,
    time_to_threshold,
)
from quantile_kaczmarz.problems import (
    CorruptionSpec,
    FileSource,
    GeneratedSource,
    ProblemSpec,
    generate_system,
)
from quantile_kaczmarz.quantiles import band_ranks, partition_two_sided
from tail_bounds import TailConditioningInstance, tail_conditioning_bounds


def report_pass(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


# -------------------------------------------------------------------------
# 1. Table 4 golden values


class TestCriterion1Table4:
    Q0, Q1, BETA = 0.6, 0.8, 0.05

    def test_ash958_golden_values(self):
        path = require_matrix("ash958.mtx")
        row = diagnostic_report([path], q0=self.Q0, q1=self.Q1, beta=self.BETA)[0]
        assert row.error is None, row.error
        assert (row.rows, row.cols) == (958, 292)
        assert row.sigma_loo_min == pytest.approx(0.7392, abs=1e-3)
        assert row.diagnostic == pytest.approx(-3.3403, abs=1e-2)
        report_pass(1, "ash958 golden values")

    def test_ash608_golden_values(self):
        path = require_matrix("ash608.mtx")
        row = diagnostic_report([path], q0=self.Q0, q1=self.Q1, beta=self.BETA)[0]
        assert row.error is None, row.error
        assert (row.rows, row.cols) == (608, 188)
        assert row.sigma_loo_min == pytest.approx(0.5616, abs=1e-3)
        assert row.diagnostic == pytest.approx(-3.3612, abs=1e-2)
        report_pass(1, "ash608 golden values")

    def test_parameter_term_matches_reference_zero_redundancy_rows(self):
        # matrices whose leave-one-out sigma is numerically zero expose the
        # parameter-only term of the diagnostic: -3.4012 at these settings,
        # independent of sigma_max, so the formula is pinned without needing
        # any matrix file (photogrammetry, well1033 and illc1033 all share it)
        for sigma_max in (1.0, 2.5, 11.3):
            value = robustness_diagnostic(sigma_max, 1.1907e-08,
                                          q0=self.Q0, q1=self.Q1, beta=self.BETA, m=1388)
            assert value == pytest.approx(-3.4012, abs=1e-3)
        report_pass(1, "diagnostic parameter-only term at zero redundancy")


# -------------------------------------------------------------------------
# 2. corruption recovery at desk scale


class TestCriterion2CorruptionRecovery:
    def test_dqrk_recovers_while_rk_stalls(self):
        problem = ProblemSpec(
            source=GeneratedSource("gaussian", 1000, 100, seed=0),
            normalize=True,
            corruption=CorruptionSpec(beta=0.05, seed=0),
        )
        trials = 20
        dqrk_spec = ExperimentSpec(
            problem=problem,
            runs=(RunSpec(label="dqrk", selector=DQRK(0.6, 0.8), max_iters=50_000),),
            trials=trials, seed=2024,
        )
        rk_spec = ExperimentSpec(
            problem=problem,
            runs=(RunSpec(label="rk", selector=RK(), max_iters=50_000),),
            trials=trials, seed=2024,
        )
        dqrk_result = time_to_threshold(dqrk_spec, threshold=1e-8)[0]
        rk_result = time_to_threshold(rk_spec, threshold=1e-4)[0]

        assert dqrk_result.reached_fraction >= 0.95, dqrk_result.iterations
        assert rk_result.reached_fraction == 0.0, (
            f"plain sampling escaped its error horizon: {rk_result.iterations}")
        report_pass(2, "two-sided band reaches 1e-8; plain sampling stuck above 1e-4")


# -------------------------------------------------------------------------
# 3. acceleration ordering across quantiles


class TestCriterion3AccelerationOrdering:
    def test_median_iterations_strictly_decreasing_in_q(self):
        spec = ExperimentSpec(
            problem=ProblemSpec(source=GeneratedSource("gaussian", 500, 50, seed=0),
                                normalize=True),
            runs=(
                RunSpec(label="rk", selector=RK(), max_iters=30_000),
                RunSpec(label="rqrk-0.5", selector=RQRK(0.5), max_iters=30_000),
                RunSpec(label="rqrk-0.6", selector=RQRK(0.6), max_iters=30_000),
                RunSpec(label="rqrk-0.7", selector=RQRK(0.7), max_iters=30_000),
                RunSpec(label="rqrk-0.8", selector=RQRK(0.8), max_iters=30_000),
                RunSpec(label="rqrk-0.9", selector=RQRK(0.9), max_iters=30_000),
                RunSpec(label="rqrk-max", selector=RQRK(499 / 500), max_iters=30_000),
            ),
            trials=20, seed=31,
            fresh_problem_per_trial=False,  # one system, twenty solver seeds
        )
        results = {r.label: r for r in time_to_threshold(spec, threshold=1e-6)}
        for r in results.values():
            assert r.reached_fraction == 1.0, (r.label, r.iterations)
        medians = [results[f"rqrk-{q}"].median_iterations
                   for q in ("0.5", "0.6", "0.7", "0.8", "0.9", "max")]
        assert all(a > b for a, b in zip(medians, medians[1:])), medians
        assert all(results["rk"].median_iterations > m for m in medians), (
            results["rk"].median_iterations, medians)
        report_pass(3, f"median iterations decrease across q: {medians}")


# -------------------------------------------------------------------------
# 4. two-quantile vs one-quantile iteration counts under corruption


class TestCriterion4BandVsUpperQuantile:
    @pytest.mark.parametrize("m,n", [(1000, 100), (2500, 250)])
    def test_band_needs_at_most_seventy_percent(self, m, n):
        spec = ExperimentSpec(
            problem=ProblemSpec(
                source=GeneratedSource("gaussian", m, n, seed=0),
                normalize=True,
                corruption=CorruptionSpec(beta=0.05, seed=0),
            ),
            runs=(
                RunSpec(label="dqrk", selector=DQRK(0.6, 0.8), max_iters=80_000),
                RunSpec(label="qrk", selector=QRK(0.8), max_iters=80_000),
            ),
            trials=20, seed=47,
        )
        results = {r.label: r for r in time_to_threshold(spec, threshold=1e-8)}
        assert results["dqrk"].reached_fraction == 1.0
        assert results["qrk"].reached_fraction == 1.0
        ratio = results["dqrk"].median_iterations / results["qrk"].median_iterations
        assert ratio <= 0.7, (m, n, ratio)
        report_pass(4, f"{m}x{n} median-iteration ratio {ratio:.3f} <= 0.7")


# -------------------------------------------------------------------------
# 5. per-iteration cost parity


class TestCriterion5CostParity:
    def test_band_within_ten_percent_of_upper_quantile(self):
        problem = ProblemSpec(
            source=GeneratedSource("uniform", 5000, 500, seed=0),
            normalize=True,
            corruption=CorruptionSpec(beta=0.05, seed=0),
        )
        runs = [RunSpec(label="qrk", selector=QRK(0.8), max_iters=1000),
                RunSpec(label="dqrk", selector=DQRK(0.6, 0.8), max_iters=1000)]
        rows, _ = cost_parity_benchmark(ExperimentSpec(problem, runs, trials=5, seed=0))
        seconds = {row.label: row.seconds_median for row in rows}
        ratio = seconds["dqrk"] / seconds["qrk"]
        assert 0.9 <= ratio <= 1.1, ratio
        report_pass(5, f"dqrk/qrk wall-clock ratio {ratio:.3f} within [0.9, 1.1]")


# -------------------------------------------------------------------------
# 6. exact one-step contraction against the per-step factor


class TestCriterion6OneStepContraction:
    def test_exact_expected_ratio_below_bound(self):
        m, n, q = 20, 4, 0.5
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", m, n, seed=6), normalize=True,
            solution_seed=7))
        a, b = system.A, system.b
        x_star = system.ground_truth.x_star

        x = b[0] * a[0]  # on the first row's hyperplane (unit-norm rows)
        e = x - x_star
        base = float(e @ e)
        assert base > 0

        residuals = np.abs(a @ x - b)
        upper, _, _ = partition_two_sided(residuals, *RQRK(q).ranks(m))
        assert upper.size == m - round(q * m)

        # rows are unit norm: selection over the upper block is uniform, and
        # each projection removes the squared component along its row
        ratios = 1.0 - (a[upper] @ (e / np.sqrt(base))) ** 2
        exact_expected_ratio = float(ratios.mean())

        sigma_min = float(np.linalg.svd(a, compute_uv=False)[-1])
        sigma_q = subset_sigma_min(a, q)  # C(20,10) = 184756 subsets, enumerated
        bound = rqrk_bound(sigma_min=sigma_min, sigma_q_min=sigma_q, q=q, m=m)

        assert exact_expected_ratio <= bound.per_step_factor + 1e-12, (
            exact_expected_ratio, bound.per_step_factor)
        report_pass(6, f"exact ratio {exact_expected_ratio:.6f} <= "
                       f"factor {bound.per_step_factor:.6f}")


# -------------------------------------------------------------------------
# 7. tail-conditioning bound chain, ten thousand instances


class TestCriterion7TailBoundChain:
    @staticmethod
    def random_instance(rng):
        n = int(rng.integers(2, 10))
        probs = rng.dirichlet(np.ones(n) * rng.uniform(0.2, 4.0))
        probs = np.maximum(probs, 1e-10)
        probs = probs / probs.sum()
        style = rng.integers(3)
        if style == 0:
            gaps = rng.exponential(size=n - 1)
        elif style == 1:
            gaps = rng.exponential(size=n - 1) * (rng.random(size=n - 1) < 0.5)
        else:
            gaps = np.zeros(n - 1)
        values = np.concatenate([[rng.normal()], gaps]).cumsum()
        ell = int(rng.integers(1, n))
        return TailConditioningInstance(probs=probs, values=values, drop_count=ell)

    def test_ten_thousand_random_instances_zero_violations(self):
        rng = np.random.default_rng(777)
        violations = 0
        nonconstant = 0
        for _ in range(10_000):
            inst = self.random_instance(rng)
            out = tail_conditioning_bounds(inst)
            tol = 1e-11 * max(1.0, abs(out.mean_full), abs(out.mean_tail))
            chain = (
                out.mean_tail >= out.telescoped_bound - tol
                and out.telescoped_bound >= out.step_bound - tol
                and out.step_bound >= out.mean_full - tol
                and out.mean_tail >= out.gap_bound - tol
                and out.gap_bound >= out.mean_full - tol
            )
            if not chain:
                violations += 1
            if np.ptp(inst.values) > 0:
                nonconstant += 1
                # tail_gain is the same difference summed without cancellation,
                # so strict positivity is exact
                if not out.tail_gain > 0.0:
                    violations += 1
        assert violations == 0
        assert nonconstant > 3000  # the strictness clause was actually exercised
        report_pass(7, f"10^4 instances, 0 violations ({nonconstant} non-constant)")


# -------------------------------------------------------------------------
# 8. always-on property suites


class TestCriterion8Properties:
    def test_projection_orthogonality_and_pythagoras(self):
        rng = np.random.default_rng(88)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            a_i = rng.normal(size=n)
            x_star = rng.normal(size=n)
            x = rng.normal(size=n)
            out, _ = step_from(a_i[None, :], np.array([a_i @ x_star]), x)
            move = out - x
            v = rng.normal(size=n)
            v -= (v @ a_i) / (a_i @ a_i) * a_i
            scale = max(1.0, np.linalg.norm(move) * np.linalg.norm(v))
            assert abs(move @ v) <= 1e-9 * scale
            lhs = np.sum((out - x_star) ** 2) + np.sum((out - x) ** 2)
            rhs = np.sum((x - x_star) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
        report_pass(8, "projection orthogonality and Pythagorean identity at 1e-9")

    def test_partition_cardinality_all_integer_quantiles(self):
        rng = np.random.default_rng(89)
        for m in range(5, 51):
            values = rng.uniform(size=m)
            ranked = np.sort(values)
            for j1 in range(1, m + 1):
                assert band_ranks(m, j1 / m) == (0, j1)
                block, low, high = partition_two_sided(values, 0, j1)
                assert block.size == j1
                assert (low, high) == (None, ranked[j1 - 1])
                for j0 in range(1, j1):
                    assert band_ranks(m, j1 / m, j0 / m) == (j0, j1)
                    block, low, high = partition_two_sided(values, j0, j1)
                    assert block.size == j1 - j0
                    assert (low, high) == (ranked[j0 - 1], ranked[j1 - 1])
        report_pass(8, "partition cardinality laws for all integer q*m, m in 5..50")

    def test_subset_sigma_exact_matches_bruteforce_everywhere(self):
        rng = np.random.default_rng(90)
        checked = 0
        for n in (1, 2, 3):
            for m in range(n, 9):
                a = rng.normal(size=(m, n))
                for s in range(0, m + 1):
                    expected = self._oracle(a, s)
                    got = subset_sigma_min(a, s / m)
                    assert got == pytest.approx(expected, abs=1e-9), (m, n, s)
                    checked += 1
        assert checked > 100
        report_pass(8, f"subset sigma matches brute force on {checked} cases")

    @staticmethod
    def _oracle(a, s):
        m, n = a.shape
        if s < n:
            return 0.0
        return float(min(
            np.linalg.svd(a[list(subset)], compute_uv=False)[-1]
            for subset in combinations(range(m), s)
        ))

    def test_repeated_specs_emit_identical_bytes(self, tmp_path):
        spec = ExperimentSpec(
            problem=ProblemSpec(
                source=GeneratedSource("gaussian", 80, 8, seed=1),
                normalize=True,
                corruption=CorruptionSpec(beta=0.05, seed=2),
            ),
            runs=(
                RunSpec(label="dqrk", selector=DQRK(0.6, 0.8), max_iters=60),
                RunSpec(label="motzkin", selector=Motzkin(), max_iters=60),
            ),
            trials=3, seed=91, record_every=5,
        )
        first = emit_artifacts(run_experiment(spec), tmp_path / "one")
        second = emit_artifacts(run_experiment(spec), tmp_path / "two")
        for key in ("trajectory", "summary"):
            assert first[key].read_bytes() == second[key].read_bytes()
        report_pass(8, "byte-identical artifacts for repeated specs")
