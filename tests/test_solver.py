import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import (
    DQRK,
    DenseSystem,
    DimensionMismatchError,
    GroundTruth,
    InvalidQuantilesError,
    Motzkin,
    OnHyperplane,
    Origin,
    QRK,
    RK,
    RQRK,
    SolveTrace,
    SolverConfig,
    StopRule,
    ZeroRowError,
    generate_system,
    parse_selector,
    solve,
)
from quantile_kaczmarz.linalg import row_norms
from quantile_kaczmarz.problems import CorruptionSpec, GeneratedSource, ProblemSpec
from quantile_kaczmarz.quantiles import band_ranks, partition_two_sided, quantile_rank
from quantile_kaczmarz.solver import SELECTORS, TraceRecord, select_row, weighted_sample

from paper_bounds import subset_sigma_min
from qk_helpers import step_from


def rng_with(seed):
    return np.random.Generator(np.random.PCG64(seed))


def consistent_system(m, n, seed, normalize=True):
    return generate_system(ProblemSpec(
        source=GeneratedSource("gaussian", m, n, seed=seed),
        normalize=normalize,
        solution_seed=seed + 1,
    ))


ALL_SELECTORS = [RK(), QRK(0.7), RQRK(0.5), DQRK(0.3, 0.8), Motzkin()]


def two_matvec_solve(system, config, record_every=1, record=True):
    """Reference recorded loop with two matvecs per recorded iteration.

    It computes ``A x - b`` for a record after each step and again, for the
    same x, at the top of the next iteration. ``solve``, which computes it
    once, must match it bit for bit in every record, the final iterate, the
    iteration count and the termination.
    """
    a, b = system.A, system.b
    m, n = a.shape
    norms = row_norms(a)
    inv_norms = 1.0 / norms
    sq_norms = norms * norms
    cum_sq_norms = np.cumsum(sq_norms)
    kind = config.selector
    ranks = kind.ranks(m) if isinstance(kind, (QRK, RQRK, DQRK)) else None
    gt = system.ground_truth
    stop = config.stop or StopRule()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    if isinstance(config.x0, OnHyperplane):
        row0 = config.x0.row if config.x0.row is not None else int(rng.integers(m))
        x = (b[row0] / sq_norms[row0]) * a[row0]
    else:
        x = np.zeros(n)

    def residual_norm_at(xv):
        return float(np.linalg.norm(np.abs(a @ xv - b) * inv_norms))

    def stop_met(sq_err, xv):
        if stop.target_sq_error is not None and sq_err <= stop.target_sq_error:
            return "target_sq_error"
        if stop.residual_norm is not None and residual_norm_at(xv) <= stop.residual_norm:
            return "residual_norm"
        return None

    records = []
    sq_err = system.sq_error(x) if gt is not None else None
    termination = stop_met(sq_err, x)
    if record:
        records.append(TraceRecord(0, None, None, None, sq_err, residual_norm_at(x)))
    iterations = 0
    for k in range(1, config.max_iters + 1):
        if termination is not None:
            break
        r = None
        nres = None
        if not isinstance(kind, RK):
            r = a @ x - b
            nres = np.abs(r) * inv_norms
        i, low, high = select_row(kind, ranks, nres, sq_norms, cum_sq_norms, rng)
        if r is not None:
            x = x - (r[i] / sq_norms[i]) * a[i]
        else:
            x = x + ((b[i] - a[i] @ x) / sq_norms[i]) * a[i]
        iterations = k
        if gt is not None:
            sq_err = system.sq_error(x)
        termination = stop_met(sq_err, x)
        if record and (k % record_every == 0 or k == config.max_iters
                       or termination is not None):
            records.append(TraceRecord(k, i, low, high, sq_err, residual_norm_at(x)))
    return SolveTrace(records=tuple(records), final_x=x, iterations=iterations,
                      termination=termination or "max_iters")


def float_bits(value):
    """A record field with floats replaced by their IEEE bit patterns."""
    return struct.pack("<d", value) if isinstance(value, float) else value


def record_bits(rec):
    return tuple(float_bits(getattr(rec, f.name)) for f in dataclasses.fields(rec))


def trace_bits(trace):
    return ([record_bits(rec) for rec in trace.records],
            trace.final_x.tobytes(), trace.iterations, trace.termination)


class TestSelectorKinds:
    def test_validation(self):
        with pytest.raises(InvalidQuantilesError):
            QRK(q=1.0)
        with pytest.raises(InvalidQuantilesError):
            RQRK(q=0.0)
        with pytest.raises(InvalidQuantilesError):
            DQRK(q0=0.8, q1=0.6)

    def test_parse_selector(self):
        assert parse_selector("rk") == RK()
        assert parse_selector("qrk", q=0.7) == QRK(0.7)
        assert parse_selector("dqrk", q0=0.2, q1=0.9) == DQRK(0.2, 0.9)
        assert parse_selector("motzkin") == Motzkin()
        # each selector reads only its own fields
        assert parse_selector("RK", q=0.5, q0=None) == RK()
        assert parse_selector("rqrk", q=0.5, q0=0.1, q1=0.9) == RQRK(0.5)
        with pytest.raises(InvalidQuantilesError):
            parse_selector("rqrk")
        with pytest.raises(ValueError, match="unknown method 'kaczmarz'"):
            parse_selector("kaczmarz")

    def test_selectors_are_keyed_by_their_names(self):
        assert SELECTORS == {"rk": RK, "qrk": QRK, "rqrk": RQRK, "dqrk": DQRK,
                             "motzkin": Motzkin}

    @pytest.mark.parametrize("method, quantiles, message", [
        ("qrk", {}, "qrk needs --q"),
        ("rqrk", {"q0": 0.2, "q1": 0.9}, "rqrk needs --q"),
        ("dqrk", {"q0": 0.2}, "dqrk needs --q0 and --q1"),
        ("dqrk", {"q": 0.5, "q0": 0.2, "q1": None}, "dqrk needs --q0 and --q1"),
    ])
    def test_missing_quantile_names_every_field(self, method, quantiles, message):
        with pytest.raises(InvalidQuantilesError, match=f"^{message}$"):
            parse_selector(method, **quantiles)


def reference_ranks(kind, m):
    """Reference band rule of each quantile selector over m rows.

    RQRK takes the rows above rank quantile_rank(q, m) and needs
    1/m <= q <= (m-1)/m; QRK and DQRK take the ranks of ``band_ranks``.
    """
    if isinstance(kind, QRK):
        return band_ranks(m, kind.q)
    if isinstance(kind, DQRK):
        return band_ranks(m, kind.q1, kind.q0)
    if kind.q * m < 1.0 - 1e-12 or kind.q * m > m - 1.0 + 1e-12:
        raise InvalidQuantilesError(
            f"rqrk needs 1/m <= q <= (m-1)/m, got q={kind.q} with m={m}")
    return quantile_rank(kind.q, m), m


def quantile_level(m):
    """A level in (0, 1], half the time on a rank edge of m items."""
    edges = st.integers(0, m).flatmap(lambda j: st.sampled_from([
        0.5 / m, (1 - 1e-13) / m, (1 + 1e-13) / m, (m - 1 - 1e-13) / m,
        (m - 1 + 1e-13) / m, (m - 0.5) / m, (j + 0.5) / m, j / m]))
    return (st.floats(0.0, 1.0, exclude_min=True) | edges).filter(lambda q: 0.0 < q <= 1.0)


class TestRanks:
    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_ranks_match_reference_rule(self, data):
        m = data.draw(st.integers(1, 300), label="m")
        qa = data.draw(quantile_level(m), label="qa")
        qb = data.draw(quantile_level(m), label="qb")
        kinds = [QRK(qa), RQRK(qa)] if qa < 1.0 else []
        if qa != qb:
            kinds.append(DQRK(min(qa, qb), max(qa, qb)))
        for kind in kinds:
            try:
                want = reference_ranks(kind, m)
            except InvalidQuantilesError as exc:
                with pytest.raises(InvalidQuantilesError) as err:
                    kind.ranks(m)
                assert str(err.value) == str(exc)
                continue
            assert kind.ranks(m) == want


def sample(weights, rng):
    return weighted_sample(np.cumsum(weights), rng)


class TestWeightedSample:
    def test_singleton(self):
        assert sample([2.5], rng_with(0)) == 0

    def test_even_weights_frequencies(self):
        rng = rng_with(1)
        draws = np.array([sample([1.0, 1.0], rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    def test_uneven_weights_frequencies(self):
        rng = rng_with(2)
        draws = np.array([sample([1.0, 3.0], rng) for _ in range(100_000)])
        freq1 = draws.mean()
        assert abs(freq1 - 0.75) < 0.01
        assert abs((1 - freq1) - 0.25) < 0.01

    def test_zero_weight_never_chosen(self):
        rng = rng_with(4)
        draws = {sample([1.0, 0.0, 1.0], rng) for _ in range(2000)}
        assert 1 not in draws

    def test_trailing_zero_weight_never_chosen(self):
        # a uniform that rounds up to the total lands past the last entry
        class Top:
            def random(self):
                return 1.0

        assert sample([1.0, 2.0, 0.0, 0.0], Top()) == 1


def uniform_weights(m):
    return np.ones(m), np.arange(1.0, m + 1)


class TestSelectRow:
    def test_motzkin_argmax(self):
        i, low, high = select_row(Motzkin(), None, np.array([0.1, 0.9, 0.4]),
                                  *uniform_weights(3), rng_with(0))
        assert (i, low, high) == (1, None, None)

    def test_motzkin_tie_smallest_index(self):
        i, _, _ = select_row(Motzkin(), None, np.array([0.4, 0.9, 0.9]), *uniform_weights(3),
                             rng_with(0))
        assert i == 1

    def test_dqrk_uniform_over_band(self):
        residuals = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        rng = rng_with(5)
        kind = DQRK(0.2, 0.8)
        counts = np.zeros(5)
        for _ in range(100_000):
            i, low, high = select_row(kind, kind.ranks(5), residuals, *uniform_weights(5), rng)
            counts[i] += 1
        freqs = counts / counts.sum()
        assert freqs[0] == 0.0 and freqs[4] == 0.0
        for j in (1, 2, 3):
            assert abs(freqs[j] - 1 / 3) < 0.01

    def test_dqrk_thresholds_reported(self):
        residuals = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        kind = DQRK(0.2, 0.8)
        _, low, high = select_row(kind, kind.ranks(5), residuals, *uniform_weights(5),
                                  rng_with(6))
        assert low == pytest.approx(0.1)
        assert high == pytest.approx(0.4)

    def test_rqrk_extreme_quantile_matches_motzkin(self):
        rng = np.random.default_rng(7)
        residuals = rng.uniform(size=10)  # unique max almost surely
        m = residuals.size
        kind = RQRK((m - 1) / m)
        i_rq, low, high = select_row(kind, kind.ranks(m), residuals, *uniform_weights(m),
                                     rng_with(8))
        i_mz, _, _ = select_row(Motzkin(), None, residuals, *uniform_weights(m), rng_with(9))
        assert i_rq == i_mz == int(np.argmax(residuals))
        # rqrk's set is bounded below by the q-quantile and unbounded above
        assert (low, high) == (np.sort(residuals)[m - 2], None)

    def test_rqrk_empty_upper_block(self):
        # round(0.9*4) = 4 leaves no row above the quantile
        with pytest.raises(InvalidQuantilesError,
                           match=r"rqrk needs 1/m <= q <= \(m-1\)/m, got q=0.9 with m=4"):
            RQRK(0.9).ranks(4)

    def test_containment_dqrk_within_qrk(self):
        rng = np.random.default_rng(11)
        residuals = rng.uniform(size=20)
        qrk_set = set(partition_two_sided(residuals, *QRK(0.8).ranks(20))[0].tolist())
        dqrk_set = set(partition_two_sided(residuals, *DQRK(0.3, 0.8).ranks(20))[0].tolist())
        assert dqrk_set <= qrk_set


class TestStep:
    # one step from an arbitrary x is a one-iteration solve from the origin
    # of the system shifted by x (qk_helpers.step_from)

    def test_solution_is_fixed_point(self):
        system = consistent_system(30, 4, seed=20)
        x_star = system.ground_truth.x_star
        for kind in ALL_SELECTORS:
            x_next, _ = step_from(system.A, system.b, x_star, kind, seed=1)
            assert np.allclose(x_next, x_star, atol=1e-12)

    def test_identity_motzkin_axis_projection(self):
        x_next, row = step_from(np.eye(2), np.array([1.0, 2.0]), np.zeros(2), Motzkin(), seed=2)
        assert row == 1
        assert x_next.tolist() == [0.0, 2.0]

    def test_rk_error_never_increases(self):
        system = consistent_system(50, 10, seed=21)
        x_star = system.ground_truth.x_star
        gen = np.random.default_rng(22)
        for seed in range(1000):
            x = gen.normal(size=10)
            before = np.linalg.norm(x - x_star)
            x_next, _ = step_from(system.A, system.b, x, RK(), seed=seed)
            after = np.linalg.norm(x_next - x_star)
            assert after <= before + 1e-12

    def test_hyperplane_membership_after_step(self):
        system = consistent_system(25, 5, seed=23)
        x = np.random.default_rng(24).normal(size=5)
        for seed, kind in enumerate(ALL_SELECTORS):
            x_next, row = step_from(system.A, system.b, x, kind, seed=seed)
            a_i = system.A[row]
            assert abs(x_next @ a_i - system.b[row]) <= 1e-10

    def test_zero_row_raises(self):
        with pytest.raises(ZeroRowError):
            step_from(np.array([[1.0, 0.0], [0.0, 0.0]]), np.zeros(2), np.zeros(2), RK(), seed=5)


class TestSystemChecks:
    """A ``DenseSystem`` is checked once, when it is built."""

    def test_zero_row_rejected_when_built(self):
        with pytest.raises(ZeroRowError) as err:
            DenseSystem(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), np.zeros(3))
        assert err.value.index == 1

    def test_row_norms_cached(self):
        system = DenseSystem(np.array([[3.0, 4.0], [0.0, 2.0]]), np.zeros(2))
        assert system.row_norms.tolist() == [5.0, 2.0]
        assert system.inv_norms.tolist() == [0.2, 0.5]
        assert system.sq_norms.tolist() == [25.0, 4.0]

    @pytest.mark.parametrize("support, error, message", [
        ([-1], DimensionMismatchError, "corrupt_support index -1 outside [0, 3)"),
        ([0, 3], DimensionMismatchError, "corrupt_support index 3 outside [0, 3)"),
        ([2, 1, 1], ValueError, "corrupt_support repeats index 1"),
    ], ids=["negative", "past-the-end", "repeated"])
    def test_corrupt_support_outside_or_repeated_rejected(self, support, error, message):
        x_star = np.array([1.0, 2.0])
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        b_true = a @ x_star
        with pytest.raises(error, match=re.escape(message)):
            DenseSystem(a, b_true, GroundTruth(x_star, b_true, support))


def signed_zero_system(seed, m, n):
    """A, b and x with exact +-0.0 entries, row norms from 1e-3 to 1e3 and
    some rows whose residual at x is exactly 0.0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    a[rng.random((m, n)) < 0.3] = 0.0
    a[rng.random((m, n)) < 0.15] = -0.0
    a[np.arange(m), rng.integers(n, size=m)] = rng.normal(size=m)  # no zero rows
    a *= (10.0 ** rng.uniform(-3, 3, size=m) / np.linalg.norm(a, axis=1))[:, None]
    x = rng.normal(size=n)
    x[rng.random(n) < 0.3] = 0.0
    x[rng.random(n) < 0.3] = -0.0
    b = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
    b[rng.random(m) < 0.2] = rng.choice([0.0, -0.0])
    exact = rng.random(m) < 0.3
    b[exact] = [a[j] @ x for j in np.flatnonzero(exact)]
    return a, b, x


class TestSystemProducts:
    """``residual`` and ``project`` against the expressions ``solve`` inlined
    before the system owned them, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    # row 1 has an exact zero residual at an x with -0.0 entries: there RK's
    # step gives +0.0, and x - ((<a_i, x> - b_i)/||a_i||^2) a_i keeps -0.0
    @example(0, 3, 4)
    def test_bits_match_inline_expressions(self, seed, m, n):
        a, b, x = signed_zero_system(seed, m, n)
        system = DenseSystem(a, b)
        sq = row_norms(a) * row_norms(a)
        r, nres = system.residual(x)
        assert r.tobytes() == (a @ x - b).tobytes()
        assert nres.tobytes() == (np.abs(a @ x - b) * (1.0 / row_norms(a))).tobytes()
        for i in range(m):
            rk_step = x + ((b[i] - a[i] @ x) / sq[i]) * a[i]
            assert system.project(x, i).tobytes() == rk_step.tobytes()
            residual_step = x - (r[i] / sq[i]) * a[i]
            assert system.project(x, i, r[i]).tobytes() == residual_step.tobytes()


class TestSolve:
    def test_zero_iterations_trace_only_x0(self):
        system = consistent_system(10, 3, seed=30)
        trace = solve(system, SolverConfig(selector=RK(), max_iters=0, seed=1))
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0
        assert trace.iterations == 0
        assert np.array_equal(trace.final_x, np.zeros(3))

    @pytest.mark.parametrize("kind", ALL_SELECTORS, ids=lambda k: k.name)
    def test_same_seed_identical_traces(self, kind):
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", 40, 6, seed=31),
            corruption=CorruptionSpec(beta=0.05, seed=32),
            solution_seed=33,
        ))
        config = SolverConfig(selector=kind, max_iters=50, seed=99)
        t1 = solve(system, config)
        t2 = solve(system, config)
        assert t1.records == t2.records
        assert np.array_equal(t1.final_x, t2.final_x)
        assert t1.termination == t2.termination

    def test_record_every_and_final_record(self):
        system = consistent_system(20, 4, seed=34)
        trace = solve(system, SolverConfig(selector=RK(), max_iters=25, seed=2), record_every=10)
        assert [r.iteration for r in trace.records] == [0, 10, 20, 25]

    def test_record_count_bounded(self):
        system = consistent_system(20, 4, seed=35)
        trace = solve(system, SolverConfig(selector=QRK(0.5), max_iters=30, seed=3))
        assert len(trace.records) <= 31

    def test_x0_on_hyperplane(self):
        system = consistent_system(15, 4, seed=36)
        trace = solve(system, SolverConfig(selector=RK(), max_iters=0, seed=4,
                                           x0=OnHyperplane(row=3)))
        assert abs(trace.final_x @ system.A[3] - system.b[3]) <= 1e-10

    def test_x0_random_hyperplane_deterministic(self):
        system = consistent_system(15, 4, seed=37)
        config = SolverConfig(selector=RK(), max_iters=5, seed=5, x0=OnHyperplane())
        assert np.array_equal(solve(system, config).final_x, solve(system, config).final_x)

    def test_stop_at_initial_error(self):
        system = consistent_system(15, 4, seed=38)
        x0_err = system.sq_error(np.zeros(4))
        trace = solve(system, SolverConfig(
            selector=RK(), max_iters=100, seed=6,
            stop=StopRule(target_sq_error=x0_err)))
        assert trace.iterations == 0
        assert trace.termination == "target_sq_error"

    def test_residual_norm_stop(self):
        system = consistent_system(30, 4, seed=39)
        trace = solve(system, SolverConfig(
            selector=Motzkin(), max_iters=5000, seed=7,
            stop=StopRule(residual_norm=1e-6)))
        assert trace.termination == "residual_norm"
        res = np.abs(system.A @ trace.final_x - system.b)
        assert np.linalg.norm(res) <= 1e-6 + 1e-12

    def test_target_stop_requires_ground_truth(self):
        system = DenseSystem(A=np.eye(3), b=np.ones(3))
        with pytest.raises(ValueError):
            solve(system, SolverConfig(selector=RK(), max_iters=10, seed=8,
                                       stop=StopRule(target_sq_error=1e-8)))

    def test_rqrk_quantile_out_of_range_for_m(self):
        system = consistent_system(10, 3, seed=40)
        config = SolverConfig(selector=RQRK(0.05), max_iters=10, seed=9)
        with pytest.raises(InvalidQuantilesError):
            solve(system, config)

    @pytest.mark.parametrize("kind", ALL_SELECTORS, ids=lambda k: k.name)
    def test_error_monotone_on_consistent_systems(self, kind):
        system = consistent_system(60, 8, seed=41)
        trace = solve(system, SolverConfig(selector=kind, max_iters=300, seed=10))
        errors = [r.sq_error for r in trace.records]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_converges_to_solution(self):
        system = consistent_system(100, 8, seed=42)
        trace = solve(system, SolverConfig(selector=RQRK(0.8), max_iters=3000, seed=11))
        assert system.sq_error(trace.final_x) < 1e-12


# DQRK(0.3, 0.35) has an empty band when round(0.3 m) == round(0.35 m), as
# for m = 4, so ``solve`` must raise for those m before its first record.
DIFFERENTIAL_SELECTORS = ALL_SELECTORS + [DQRK(0.3, 0.35)]


def band_is_empty(kind, m):
    """Whether a dqrk band holds no row of m, rounding halves up."""
    return isinstance(kind, DQRK) and \
        math.floor(kind.q0 * m + 0.5) >= math.floor(kind.q1 * m + 0.5)


def start_record(system, seed, x0):
    """The iteration-0 record, which depends on the seed and x0 policy alone."""
    return solve(system, SolverConfig(RK(), 0, seed=seed, x0=x0)).records[0]


# the record field each stop rule compares with its threshold
STOPPED_FIELD = {"target_sq_error": "sq_error", "residual_norm": "residual_norm"}


class TestCarriedResidual:
    """``solve`` reuses a record's residual for the next selection."""

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(4, 24),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        normalize=st.booleans(),
        planted=st.booleans(),
        kind=st.sampled_from(DIFFERENTIAL_SELECTORS),
        x0=st.sampled_from([Origin(), OnHyperplane(), OnHyperplane(row=1)]),
        record_every=st.sampled_from([None, 1, 2, 3, 7]),
        stop_kind=st.sampled_from([None, "target_sq_error", "residual_norm"]),
        stop_fraction=st.floats(0.0, 1.2),
        max_iters=st.integers(0, 60),
    )
    def test_matches_two_matvec_loop(self, m, n, seed, normalize, planted, kind, x0,
                                     record_every, stop_kind, stop_fraction, max_iters):
        n = min(n, m - 1)  # generated systems are over-determined
        if isinstance(kind, RQRK) and not 1 <= kind.q * m <= m - 1:
            kind = RQRK(0.5)
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", m, n, seed=seed), normalize=normalize,
            corruption=CorruptionSpec(beta=0.25, seed=seed + 1), solution_seed=seed + 2))
        if not planted:
            system = DenseSystem(system.A, system.b)
            if stop_kind == "target_sq_error":
                stop_kind = "residual_norm"
        start = start_record(system, seed, x0)
        stop = None
        if stop_kind == "target_sq_error":
            stop = StopRule(target_sq_error=stop_fraction * start.sq_error)
        elif stop_kind == "residual_norm":
            stop = StopRule(residual_norm=stop_fraction * start.residual_norm)
        config = SolverConfig(kind, max_iters, seed=seed, x0=x0, stop=stop)
        if band_is_empty(kind, m):
            with pytest.raises(InvalidQuantilesError, match="admissible block is empty"):
                solve(system, config, record_every=record_every)
            return
        got = solve(system, config, record_every=record_every)
        # the reference records nothing with record=False, which never reads record_every
        want = two_matvec_solve(system, config, record_every=record_every,
                                record=record_every is not None)
        assert trace_bits(got) == trace_bits(want)

    @pytest.mark.parametrize("max_iters", [0, 20])
    def test_empty_band_raises_before_first_record(self, max_iters):
        # the band's emptiness depends on m alone, so no iterate could fill it
        system = consistent_system(4, 2, seed=0)
        config = SolverConfig(DQRK(0.3, 0.35), max_iters, seed=3)
        with pytest.raises(InvalidQuantilesError,
                           match=r"admissible block is empty: round\(q0\*m\)=1, "
                                 r"round\(q1\*m\)=1 for m=4"):
            solve(system, config, record_every=7)

    def test_residual_norm_stop_records_the_stopping_iterate(self):
        system = consistent_system(30, 4, seed=39)
        config = SolverConfig(Motzkin(), 5000, seed=7, stop=StopRule(residual_norm=1e-6))
        trace = solve(system, config, record_every=5)
        assert trace.termination == "residual_norm"
        assert trace.iterations % 5 != 0
        last = trace.records[-1]
        assert last.iteration == trace.iterations
        assert last.row is not None
        assert last.residual_norm <= 1e-6
        assert record_bits(last) == record_bits(solve(system, config).records[-1])
        assert trace_bits(trace) == trace_bits(
            two_matvec_solve(system, config, record_every=5))


class TestRecordDensity:
    """Recording changes no bit of a trajectory."""

    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(4, 24),
        n=st.integers(2, 6),
        seed=st.integers(0, 2**16),
        normalize=st.booleans(),
        kind=st.sampled_from(ALL_SELECTORS),
        x0=st.sampled_from([Origin(), OnHyperplane(), OnHyperplane(row=1)]),
        record_every=st.sampled_from([None, 1, 2, 3, 7]),
        stop_kind=st.sampled_from([None, "target_sq_error", "residual_norm"]),
        stop_fraction=st.floats(0.0, 1.2),
        max_iters=st.integers(0, 60),
    )
    def test_record_density_changes_no_bit(self, m, n, seed, normalize, kind, x0,
                                           record_every, stop_kind, stop_fraction,
                                           max_iters):
        n = min(n, m - 1)  # generated systems are over-determined
        if isinstance(kind, RQRK) and not 1 <= kind.q * m <= m - 1:
            kind = RQRK(0.5)
        if band_is_empty(kind, m):
            kind = DQRK(0.25, 0.75)
        system = generate_system(ProblemSpec(
            source=GeneratedSource("gaussian", m, n, seed=seed), normalize=normalize,
            corruption=CorruptionSpec(beta=0.25, seed=seed + 1), solution_seed=seed + 2))
        start = start_record(system, seed, x0)
        stop = None
        if stop_kind is not None:
            stop = StopRule(**{stop_kind: stop_fraction
                               * getattr(start, STOPPED_FIELD[stop_kind])})
        config = SolverConfig(kind, max_iters, seed=seed, x0=x0, stop=stop)
        dense = solve(system, config, record_every=1)
        by_iteration = {rec.iteration: rec for rec in dense.records}
        assert list(by_iteration) == list(range(dense.iterations + 1))
        trace = solve(system, config, record_every=record_every)
        assert trace.final_x.tobytes() == dense.final_x.tobytes()
        assert (trace.iterations, trace.termination) == (dense.iterations, dense.termination)
        if record_every is None:
            assert trace.records == ()
        for rec in trace.records:
            assert record_bits(rec) == record_bits(by_iteration[rec.iteration])


class TestSquaredErrorOnDemand:
    """``sq_error`` runs only where a record or a ``target_sq_error`` stop reads it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = DenseSystem.sq_error

        def spy(system, x):
            calls.append(x)
            return original(system, x)

        monkeypatch.setattr(DenseSystem, "sq_error", spy)
        return calls

    @pytest.mark.parametrize("kind", ALL_SELECTORS, ids=lambda k: k.name)
    def test_unread_error_is_not_computed(self, calls, kind):
        system = consistent_system(30, 4, seed=45)
        config = SolverConfig(kind, 25, seed=14)
        recorded = solve(system, config)
        calls.clear()
        trace = solve(system, config, record_every=None)
        assert calls == []
        assert trace.records == ()
        assert trace.final_x.tobytes() == recorded.final_x.tobytes()
        assert trace.iterations == recorded.iterations == 25
        assert trace.termination == recorded.termination

    def test_computed_once_per_record_or_stop_check(self, calls):
        system = consistent_system(30, 4, seed=46)
        trace = solve(system, SolverConfig(QRK(0.7), 25, seed=15), record_every=10)
        assert [rec.iteration for rec in trace.records] == [0, 10, 20, 25]
        assert len(calls) == 4
        calls.clear()
        trace = solve(system, SolverConfig(QRK(0.7), 25, seed=15,
                                           stop=StopRule(target_sq_error=0.0)),
                      record_every=None)
        assert len(calls) == trace.iterations + 1 == 26


@pytest.mark.parametrize("kind", [RK(), DQRK(0.6, 0.8)], ids=lambda k: k.name)
def test_solve_makes_no_pass_over_a_but_its_matvecs(kind):
    # the system checked A and cached its row norms; a solve that re-checked
    # A would allocate an m x n boolean mask, an eighth of A
    system = consistent_system(2500, 250, seed=47)
    config = SolverConfig(kind, max_iters=0)
    solve(system, config, record_every=None)  # a first call imports numpy submodules
    tracemalloc.start()
    try:
        solve(system, config, record_every=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < system.A.nbytes / 16


class TestStopRuleEdges:
    """Both stop rules are checked on x0 and on each iterate after its step."""

    @pytest.mark.parametrize("stop_kind", ["target_sq_error", "residual_norm"])
    def test_stop_met_at_x0_with_no_iterations(self, stop_kind):
        system = consistent_system(20, 4, seed=43)
        start = start_record(system, 12, Origin())
        config = SolverConfig(RK(), 0, seed=12,
                              stop=StopRule(**{stop_kind: getattr(
                                  start, STOPPED_FIELD[stop_kind])}))
        trace = solve(system, config)
        assert (trace.iterations, trace.termination) == (0, stop_kind)
        assert trace.records == (start,)

    @pytest.mark.parametrize("stop_kind", ["target_sq_error", "residual_norm"])
    def test_stop_met_at_the_last_iteration(self, stop_kind):
        system = consistent_system(20, 4, seed=44)
        free = solve(system, SolverConfig(RK(), 40, seed=13))
        values = [getattr(rec, STOPPED_FIELD[stop_kind]) for rec in free.records]
        last = int(np.argmin(values))  # first iterate at the smallest value
        assert last > 0
        config = SolverConfig(RK(), last, seed=13,
                              stop=StopRule(**{stop_kind: values[last]}))
        trace = solve(system, config)
        assert (trace.iterations, trace.termination) == (last, stop_kind)
        assert trace.records == free.records[:last + 1]


class TestContractionAgainstTheory:
    def test_monte_carlo_one_step_contraction(self):
        # fixed iterate on a hyperplane; the mean squared-error ratio over
        # reverse-quantile selections must respect the per-step factor
        system = consistent_system(16, 3, seed=50)
        a, b = system.A, system.b
        x_star = system.ground_truth.x_star
        x = (b[0] / (a[0] @ a[0])) * a[0]
        base = system.sq_error(x)

        residuals = np.abs(a @ x - b)
        kind = RQRK(0.5)
        ranks = kind.ranks(16)
        rng = rng_with(51)
        trials = 100_000
        ratios = np.empty(trials)
        for t in range(trials):
            i, _, _ = select_row(kind, ranks, residuals, *uniform_weights(16), rng)
            x_next = x + ((b[i] - a[i] @ x)) * a[i]
            ratios[t] = system.sq_error(x_next) / base

        smin = np.linalg.svd(a, compute_uv=False)[-1]
        sq = subset_sigma_min(a, 0.5)  # C(16,8) = 12870 subsets
        m = 16
        bound = 1 - smin**2 / m - sq**2 / (0.5 * m * m)
        mc_se = ratios.std(ddof=1) / np.sqrt(trials)
        assert ratios.mean() <= bound + 3 * mc_se

    def test_final_error_beats_k_step_envelope(self):
        # reverse-quantile runs land far below the guaranteed k-step envelope
        from paper_bounds import rqrk_bound, subset_sigma_min_sampled

        m, n, q, k_steps = 500, 50, 0.9, 2000
        system = consistent_system(m, n, seed=54)
        smin = float(np.linalg.svd(system.A, compute_uv=False)[-1])
        # sampled mode upper-bounds the subset minimum, which only tightens
        # the envelope this test must beat
        sq = subset_sigma_min_sampled(system.A, q, trials=30, seed=55)
        envelope = rqrk_bound(sigma_min=smin, sigma_q_min=sq, q=q, m=m).envelope(k_steps)

        wins = 0
        for trial in range(50):
            config = SolverConfig(selector=RQRK(q), max_iters=k_steps,
                                  seed=600 + trial, x0=OnHyperplane(row=0))
            trace = solve(system, config, record_every=None)
            x0 = (system.b[0] / (system.A[0] @ system.A[0])) * system.A[0]
            start = system.sq_error(x0)
            if system.sq_error(trace.final_x) <= envelope * start:
                wins += 1
        assert wins >= 45

    def test_exact_expectation_beats_plain_sampling(self):
        # direct-summation expectation of the squared projection coefficient:
        # dropping the smallest-residual block can only help
        system = consistent_system(12, 3, seed=52)
        a, b = system.A, system.b
        x = np.random.default_rng(99).normal(size=3)
        e = x - system.ground_truth.x_star
        e_hat = e / np.linalg.norm(e)
        f = (a @ e_hat) ** 2
        assert np.unique(np.round(f, 12)).size >= 2

        residuals = np.abs(a @ x - b)
        upper, _, _ = partition_two_sided(residuals, *RQRK(0.5).ranks(12))
        exp_rqrk = f[upper].mean()          # uniform: rows are normalized
        exp_rk = f.mean()
        assert exp_rqrk > exp_rk
