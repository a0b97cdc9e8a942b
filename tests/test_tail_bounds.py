import numpy as np
import pytest

from tail_bounds import (
    DegenerateConditioningError,
    TailConditioningInstance,
    tail_conditioning_bounds,
)


def random_instance(rng):
    n = int(rng.integers(2, 9))
    probs = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
    probs = np.maximum(probs, 1e-9)
    probs = probs / probs.sum()
    # mix strictly increasing, tied, and constant score vectors
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


class TestValidation:
    def test_requires_positive_probs(self):
        with pytest.raises(ValueError):
            TailConditioningInstance(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1)

    def test_requires_normalized_probs(self):
        with pytest.raises(ValueError):
            TailConditioningInstance(np.array([0.3, 0.3]), np.array([0.0, 1.0]), 1)

    def test_requires_monotone_values(self):
        with pytest.raises(ValueError):
            TailConditioningInstance(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 1)

    def test_requires_valid_cut(self):
        with pytest.raises(ValueError):
            TailConditioningInstance(np.array([0.5, 0.5]), np.array([0.0, 1.0]), 2)

    def test_degenerate_tail_mass(self):
        inst = TailConditioningInstance(
            np.array([1.0 - 1e-13, 1e-13]), np.array([0.0, 1.0]), 1)
        with pytest.raises(DegenerateConditioningError):
            tail_conditioning_bounds(inst)


class TestKnownValues:
    def test_constant_score_collapses_everything(self):
        inst = TailConditioningInstance(
            np.array([0.2, 0.3, 0.5]), np.array([4.0, 4.0, 4.0]), 2)
        out = tail_conditioning_bounds(inst)
        assert out.mean_full == out.mean_tail == 4.0
        assert out.tail_gain == 0.0
        assert out.step_bound == out.gap_bound == out.telescoped_bound == 4.0

    def test_hand_enumerated_example(self):
        inst = TailConditioningInstance(
            np.full(3, 1 / 3), np.array([0.0, 1.0, 2.0]), 1)
        out = tail_conditioning_bounds(inst)
        assert out.mean_full == pytest.approx(1.0)
        assert out.mean_tail == pytest.approx(1.5)
        assert out.tail_gain == pytest.approx(0.5)
        assert out.gap_bound == pytest.approx(4 / 3)
        assert out.step_bound == pytest.approx(4 / 3)       # same thing at ell = 1
        assert out.telescoped_bound == pytest.approx(4 / 3)

    def test_two_step_telescoping(self):
        # p = (1/3, 1/3, 1/3), f = (0, 1, 3), ell = 2:
        #   telescoped = Ef + 1 * 1/3 + 2 * (1/3)/(2/3) = 4/3 + 4/3
        inst = TailConditioningInstance(
            np.full(3, 1 / 3), np.array([0.0, 1.0, 3.0]), 2)
        out = tail_conditioning_bounds(inst)
        assert out.mean_full == pytest.approx(4 / 3)
        assert out.mean_tail == pytest.approx(3.0)
        assert out.telescoped_bound == pytest.approx(4 / 3 + 1 / 3 + 1.0)
        assert out.gap_bound == pytest.approx(4 / 3 + 2 * (2 / 3))

    def test_gap_bound_can_beat_telescoped_bound(self):
        # the two bounds are not ordered: a flat stretch before the cut makes
        # the single-gap form tighter
        inst = TailConditioningInstance(
            np.full(3, 1 / 3), np.array([0.0, 0.0, 1.0]), 2)
        out = tail_conditioning_bounds(inst)
        assert out.gap_bound == pytest.approx(1.0)
        assert out.telescoped_bound == pytest.approx(5 / 6)
        assert out.gap_bound > out.telescoped_bound
        # both are still valid lower bounds
        assert out.mean_tail >= out.gap_bound - 1e-12
        assert out.mean_tail >= out.telescoped_bound - 1e-12


class TestRandomSweep:
    def test_inequality_chain_holds(self):
        rng = np.random.default_rng(70)
        for _ in range(2000):
            out = tail_conditioning_bounds(random_instance(rng))
            tol = 1e-11 * max(1.0, abs(out.mean_full), abs(out.mean_tail))
            assert out.mean_tail >= out.telescoped_bound - tol
            assert out.telescoped_bound >= out.step_bound - tol
            assert out.step_bound >= out.mean_full - tol
            assert out.mean_tail >= out.gap_bound - tol
            assert out.gap_bound >= out.mean_full - tol

    def test_gain_consistent_with_mean_difference(self):
        rng = np.random.default_rng(72)
        for _ in range(500):
            out = tail_conditioning_bounds(random_instance(rng))
            tol = 1e-9 * max(1.0, abs(out.mean_full), abs(out.mean_tail))
            assert out.tail_gain == pytest.approx(out.mean_tail - out.mean_full, abs=tol)

    def test_strict_gain_for_nonconstant_scores(self):
        rng = np.random.default_rng(71)
        seen = 0
        for _ in range(2000):
            inst = random_instance(rng)
            if np.ptp(inst.values) == 0.0:
                continue
            out = tail_conditioning_bounds(inst)
            assert out.tail_gain > 0.0
            seen += 1
        assert seen > 500
