import math

import numpy as np
import pytest

from paper_bounds import (
    dqrk_bound,
    kth_largest_residual_factor,
    qrk_bound,
    rk_factor,
    rqrk_bound,
    subset_sigma_min,
)
from quantile_kaczmarz import (
    HypothesisViolationError,
    InvalidQuantilesError,
    corruption_penalty,
    extreme_singular_values,
    leave_one_out_sigma_min,
    robustness_diagnostic,
)
from quantile_kaczmarz.problems import GeneratedSource, ProblemSpec, generate_system


class TestCorruptionPenalty:
    def test_hand_computed_value(self):
        expected = 2 * math.sqrt(0.05) / math.sqrt(0.15) + 0.05 / 0.15
        assert corruption_penalty(0.8, 0.05) == pytest.approx(expected, rel=1e-12)
        assert corruption_penalty(0.8, 0.05) == pytest.approx(1.4880338717, abs=1e-9)

    def test_zero_corruption_is_free(self):
        assert corruption_penalty(0.8, 0.0) == 0.0

    def test_requires_slack(self):
        with pytest.raises(HypothesisViolationError):
            corruption_penalty(0.96, 0.05)


class TestRqrkBound:
    def test_degrades_to_rk_when_sigma_q_zero(self):
        report = rqrk_bound(sigma_min=0.4, sigma_q_min=0.0, q=0.5, m=20)
        assert report.per_step_factor == pytest.approx(rk_factor(0.4, 20.0), rel=1e-12)

    def test_row_normalized_plug_in(self):
        report = rqrk_bound(sigma_min=1.0, sigma_q_min=0.0, q=0.5, m=10)
        assert report.per_step_factor == pytest.approx(0.9, rel=1e-12)

    def test_extreme_quantile_matches_largest_residual_form(self):
        # at q=(m-1)/m the factor is 1 - smin^2/m - sloo^2/(m^2 - m)
        m, smin, sloo = 12, 0.3, 0.2
        report = rqrk_bound(sigma_min=smin, sigma_q_min=sloo, q=(m - 1) / m, m=m)
        expected = 1 - smin**2 / m - sloo**2 / (m * m - m)
        assert report.per_step_factor == pytest.approx(expected, rel=1e-12)

    def test_general_row_norms_formula(self):
        m = 4
        w = np.array([1.0, 2.0, 3.0, 4.0])
        report = rqrk_bound(sigma_min=0.5, sigma_q_min=0.25, q=0.5, m=m, row_sq_norms=w)
        frob_sq = 10.0
        expected = 1 - 0.25 / frob_sq - (0.0625 / (0.5 * m)) * ((1.0 / frob_sq) / 4.0)
        assert report.per_step_factor == pytest.approx(expected, rel=1e-12)

    def test_envelope_with_hyperplane_start(self):
        report = rqrk_bound(sigma_min=1.0, sigma_q_min=1.0, q=0.5, m=10)
        f = report.per_step_factor
        assert report.envelope(0) == 1.0
        assert report.envelope(3) == pytest.approx(f**3, rel=1e-12)

    def test_envelope_without_hyperplane_start(self):
        report = rqrk_bound(sigma_min=1.0, sigma_q_min=1.0, q=0.5, m=10,
                            hyperplane_start=False)
        rk = rk_factor(1.0, 10.0)
        assert report.envelope(0) == 1.0
        assert report.envelope(1) == pytest.approx(rk, rel=1e-12)
        assert report.envelope(2) == pytest.approx(report.per_step_factor * rk, rel=1e-12)

    def test_quantile_range_validated(self):
        with pytest.raises(InvalidQuantilesError):
            rqrk_bound(sigma_min=1.0, sigma_q_min=0.0, q=0.01, m=10)
        with pytest.raises(InvalidQuantilesError):
            rqrk_bound(sigma_min=1.0, sigma_q_min=0.0, q=0.99, m=10)

    def test_no_condition_reported(self):
        report = rqrk_bound(sigma_min=1.0, sigma_q_min=0.5, q=0.5, m=10)
        assert report.sufficient_condition_holds is None


class TestQrkBound:
    def test_zero_corruption_limit(self):
        report = qrk_bound(sigma_max=2.0, sigma_q_beta_min=0.5, q=0.8, beta=0.0, m=100)
        assert report.per_step_factor == pytest.approx(1 - 0.25 / (0.8 * 100), rel=1e-12)
        assert report.sufficient_condition_holds is True
        degenerate = qrk_bound(sigma_max=2.0, sigma_q_beta_min=0.0, q=0.8, beta=0.0, m=100)
        assert degenerate.sufficient_condition_holds is False

    def test_hypothesis_violations(self):
        with pytest.raises(HypothesisViolationError):
            qrk_bound(sigma_max=1.0, sigma_q_beta_min=0.5, q=0.05, beta=0.1, m=10)
        with pytest.raises(HypothesisViolationError):
            qrk_bound(sigma_max=1.0, sigma_q_beta_min=0.5, q=0.95, beta=0.1, m=10)

    def test_condition_equivalent_to_positive_decay(self):
        rng = np.random.default_rng(60)
        for _ in range(200):
            smax = rng.uniform(1.0, 3.0)
            sq = rng.uniform(0.0, 1.0)
            q = rng.uniform(0.3, 0.8)
            beta = rng.uniform(0.0, min(q, 1 - q) * 0.9)
            report = qrk_bound(smax, sq, q, beta, m=rng.integers(10, 500))
            assert report.sufficient_condition_holds == (report.per_step_factor < 1.0)


class TestDqrkBound:
    def test_q0_to_zero_limit_recovers_single_quantile_constant(self):
        # corruption-free so the hypothesis checks allow arbitrarily small q0
        smax, sq1, q1, m = 1.8, 0.45, 0.8, 200
        single = qrk_bound(smax, sq1, q=q1, beta=0.0, m=m)
        double = dqrk_bound(smax, sq1, sigma_q0_beta_min=0.0,
                            q0=1e-9, q1=q1, beta=0.0, m=m)
        assert double.per_step_factor == pytest.approx(single.per_step_factor, abs=1e-9)

    def test_band_narrower_than_corruption_rejected(self):
        with pytest.raises(HypothesisViolationError):
            dqrk_bound(1.0, 0.5, 0.4, q0=0.6, q1=0.64, beta=0.05, m=100)

    def test_other_hypotheses(self):
        with pytest.raises(HypothesisViolationError):
            dqrk_bound(1.0, 0.5, 0.4, q0=0.03, q1=0.8, beta=0.05, m=100)
        with pytest.raises(HypothesisViolationError):
            dqrk_bound(1.0, 0.5, 0.4, q0=0.6, q1=0.96, beta=0.05, m=100)
        with pytest.raises(HypothesisViolationError):
            dqrk_bound(1.0, 0.5, 0.4, q0=0.8, q1=0.6, beta=0.05, m=100)

    def test_condition_matches_independent_recomputation(self):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", 200, 10, seed=61), normalize=True))
        a = system.A
        m = 200
        q0, q1, beta = 0.4, 0.6, 0.01
        _, smax = extreme_singular_values(a)
        sq1 = subset_sigma_min_or_sample(a, q1 - beta)
        sq0 = subset_sigma_min_or_sample(a, q0 - beta)
        report = dqrk_bound(smax, sq1, sq0, q0=q0, q1=q1, beta=beta, m=m)
        lhs = (q1 / (q1 - q0 - beta)) * corruption_penalty(q1, beta)
        rhs = (sq1**2 + sq0**2 / (q0 * m)) / smax**2
        assert report.sufficient_condition_holds == (lhs < rhs)
        assert report.sufficient_condition_holds == (report.per_step_factor < 1.0)

    def test_decay_worsens_with_beta(self):
        factors = [
            dqrk_bound(1.5, 0.5, 0.4, q0=0.5, q1=0.8, beta=beta, m=300).per_step_factor
            for beta in (0.0, 0.02, 0.05, 0.08)
        ]
        assert all(b > a for a, b in zip(factors, factors[1:]))


def subset_sigma_min_or_sample(a, alpha):
    from paper_bounds import BudgetExceededError, subset_sigma_min_sampled
    try:
        return subset_sigma_min(a, alpha)
    except BudgetExceededError:
        return subset_sigma_min_sampled(a, alpha, trials=50, seed=0)


class TestKthLargestFactor:
    def test_matches_extreme_quantile_at_k_equals_m(self):
        m, smin, sloo = 15, 0.4, 0.3
        via_k = kth_largest_residual_factor(smin, sloo, k=m)
        via_q = rqrk_bound(sigma_min=smin, sigma_q_min=sloo, q=(m - 1) / m, m=m).per_step_factor
        assert via_k == pytest.approx(via_q, rel=1e-12)

    def test_vacuous_when_sigmas_zero(self):
        assert kth_largest_residual_factor(0.0, 0.0, k=5) == 1.0

    def test_plug_in(self):
        assert kth_largest_residual_factor(1.0, 1.0, k=2) == pytest.approx(0.0, abs=1e-15)

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            kth_largest_residual_factor(1.0, 1.0, k=1)


class TestRobustnessDiagnostic:
    def test_zero_redundancy_rows_value(self):
        # with a numerically zero leave-one-out sigma, only the parameter
        # term survives: -3.4012 at (q0, q1, beta) = (0.6, 0.8, 0.05)
        for smax in (1.0, 2.9, 11.3):
            value = robustness_diagnostic(smax, 1.1907e-08, q0=0.6, q1=0.8, beta=0.05, m=1388)
            assert value == pytest.approx(-3.4012, abs=1e-2)

    def test_negative_whenever_sigma_loo_zero(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            q1 = rng.uniform(0.3, 0.9)
            q0 = rng.uniform(0.05, q1 - 0.1)
            beta = rng.uniform(1e-4, min(q1 - q0 - 1e-4, 1 - q1 - 1e-4) * 0.9)
            value = robustness_diagnostic(rng.uniform(0.5, 5.0), 0.0, q0, q1, beta,
                                          m=int(rng.integers(10, 2000)))
            assert value < 0.0

    def test_negative_implies_condition_fails(self):
        # the diagnostic underestimates the condition's left-right gap, so a
        # negative value certifies failure with sigma_loo as the upper bound
        rng = np.random.default_rng(63)
        checked = 0
        for _ in range(300):
            smax = rng.uniform(1.0, 4.0)
            sloo = rng.uniform(0.0, 1.0)
            q1 = rng.uniform(0.3, 0.9)
            q0 = rng.uniform(0.05, q1 - 0.05)
            upper = min(q1 - q0 - 1e-3, 1 - q1 - 1e-3, q0 - 1e-3)
            if upper <= 1e-4:
                continue
            beta = rng.uniform(1e-4, upper)
            m = int(rng.integers(10, 2000))
            value = robustness_diagnostic(smax, sloo, q0, q1, beta, m)
            if value <= 0:
                report = dqrk_bound(smax, sloo, sloo, q0=q0, q1=q1, beta=beta, m=m)
                assert report.sufficient_condition_holds is False
                checked += 1
        assert checked > 50

    def test_positive_for_redundant_matrix_with_small_beta(self):
        # two stacked identities: removing any row keeps sigma_min = 1
        a = np.vstack([np.eye(3), np.eye(3)])
        sloo = leave_one_out_sigma_min(a)
        _, smax = extreme_singular_values(a)
        assert sloo == pytest.approx(1.0, abs=1e-10)
        value = robustness_diagnostic(smax, sloo, q0=0.6, q1=0.8, beta=0.001, m=6)
        assert value > 0.0
        report = dqrk_bound(smax, sloo, sloo, q0=0.6, q1=0.8, beta=0.001, m=6)
        assert report.sufficient_condition_holds is True

    def test_hypotheses(self):
        with pytest.raises(HypothesisViolationError):
            robustness_diagnostic(1.0, 0.5, q0=0.6, q1=0.96, beta=0.05, m=100)
        with pytest.raises(HypothesisViolationError):
            robustness_diagnostic(1.0, 0.5, q0=0.76, q1=0.8, beta=0.05, m=100)

    def test_sparse_suite_surrogates_fail_single_quantile_condition(self):
        # (sigma_loo, plausible sigma_max, m) surrogates for ill-conditioned
        # SuiteSparse matrices; every one has a negative diagnostic at
        # (0.6, 0.8, 0.05), and on these instances the single-quantile
        # condition fails too, even with sigma_loo standing in as an upper
        # bound for sigma_{q-beta}
        surrogates = [
            (0.7392, 2.997, 958),
            (1.1907e-08, 2.5, 1388),
            (2.9906e-18, 3.0, 1033),
            (1.0791e-18, 3.0, 1033),
            (0.1675, 11.3, 315),
            (0.5616, 2.811, 608),
        ]
        for sloo, smax, m in surrogates:
            value = robustness_diagnostic(smax, sloo, q0=0.6, q1=0.8, beta=0.05, m=m)
            assert value < 0.0
            report = qrk_bound(smax, sloo, q=0.8, beta=0.05, m=m)
            assert report.sufficient_condition_holds is False
