import csv
import dataclasses
import faulthandler
import io
import json
import multiprocessing
import os
import time
import tracemalloc
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_kaczmarz import (
    DQRK,
    DenseSystem,
    ExperimentSpec,
    FileSource,
    Motzkin,
    OnHyperplane,
    Origin,
    QRK,
    RK,
    RQRK,
    RunSpec,
    SolverConfig,
    StopRule,
    cost_parity_benchmark,
    derive_seed,
    diagnostic_report,
    emit_artifacts,
    generate_system,
    run_experiment,
    save_matrix_market,
    solve,
    spec_from_dict,
    spec_to_dict,
    time_to_threshold,
)
from quantile_kaczmarz import harness
from quantile_kaczmarz.harness import (
    TRAJECTORY_COLUMNS,
    BenchRow,
    DiagnosticRow,
    ThresholdResult,
    problem_for_trial,
    summary_dict,
    write_table,
)
from quantile_kaczmarz.problems import CorruptionSpec, GeneratedSource, ProblemSpec

from test_pinned_artifacts import PINNED_SPEC


def small_spec(**overrides):
    base = dict(
        problem=ProblemSpec(source=GeneratedSource("gaussian", 30, 4, seed=1),
                            normalize=True,
                            corruption=CorruptionSpec(beta=0.1, seed=2),
                            solution_seed=3),
        runs=(RunSpec(label="rk", selector=RK(), max_iters=10),),
        trials=1,
        seed=42,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def assert_defaults(obj, given=()):
    """Every field of ``obj`` not named in ``given`` holds its dataclass default."""
    for f in dataclasses.fields(obj):
        if f.name not in given:
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(obj, f.name) == default, f.name


def _specs():
    """Experiment specs over both sources, every selector, x0 policy, stop rule
    and corruption; file paths come as str or Path."""
    seeds = st.integers(0, 2**63 - 1)
    reals = st.floats(-1e6, 1e6, allow_nan=False)
    fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    generated = st.builds(lambda dist, n, extra, seed: GeneratedSource(dist, n + extra, n, seed),
                          st.sampled_from(["gaussian", "uniform"]), st.integers(1, 50),
                          st.integers(1, 50), seeds)
    file = st.builds(FileSource, st.one_of(st.text(min_size=1), st.text(min_size=1).map(Path)))
    corruption = st.one_of(st.none(), st.tuples(
        st.floats(0.0, 1.0, exclude_max=True), reals, reals, reals, seeds).map(
            lambda t: CorruptionSpec(t[0], min(t[1:3]), max(t[1:3]), t[3], t[4])))
    problem = st.builds(ProblemSpec, st.one_of(generated, file), st.booleans(), corruption,
                        seeds)
    band = st.tuples(fractions, fractions).filter(lambda t: t[0] != t[1]).map(sorted)
    selector = st.one_of(st.just(RK()), st.just(Motzkin()), fractions.map(QRK),
                         fractions.map(RQRK), band.map(lambda t: DQRK(*t)))
    thresholds = st.none() | st.floats(0.0, 1e6)
    stop = st.one_of(st.none(), st.builds(StopRule, thresholds, thresholds))
    x0 = st.one_of(st.just(Origin()), st.builds(OnHyperplane, st.none() | st.integers(0, 10**6)))
    run = st.builds(RunSpec, st.text(), selector, st.integers(0, 10**6), stop, x0)
    runs = st.lists(run, min_size=1, max_size=6, unique_by=lambda r: r.label)
    return st.builds(ExperimentSpec, problem, runs, st.integers(1, 100), seeds,
                     st.none() | st.integers(1, 100), st.booleans())


def _cell(value) -> str:
    """CSV cell: shortest round-trip decimals, empty for absent values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (np.floating,)):
        return repr(float(value))
    return str(value)


def cell_trajectory_csv(result) -> bytes:
    """Reference trajectory writer: one dict per record, every cell through
    ``_cell``. ``emit_artifacts``'s trajectory must match it byte for byte."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TRAJECTORY_COLUMNS)
    for label, trial in sorted(result.traces):
        for rec in result.traces[(label, trial)].records:
            row = {"label": label, "trial": trial, "iteration": rec.iteration,
                   "squared_error": rec.sq_error, "residual_norm": rec.residual_norm,
                   "chosen_row": rec.row, "Q0": rec.q0_value, "Q1": rec.q1_value}
            writer.writerow([_cell(row[c]) for c in TRAJECTORY_COLUMNS])
    return buf.getvalue().encode()


class TestSeedDerivation:
    def test_pinned_value(self):
        # frozen so artifacts stay reproducible across releases
        assert derive_seed(42, "rk", 0) == 3811851563691494438

    def test_distinct_labels_and_trials(self):
        seeds = {derive_seed(1, label, trial)
                 for label in ("a", "b") for trial in range(50)}
        assert len(seeds) == 100


class TestRunExperiment:
    def test_single_run_record_count(self):
        result = run_experiment(small_spec())
        trace = result.traces[("rk", 0)]
        assert len(trace.records) == 11

    def test_deterministic_artifacts(self, tmp_path):
        spec = small_spec(trials=3, runs=(
            RunSpec(label="rk", selector=RK(), max_iters=20),
            RunSpec(label="dqrk", selector=DQRK(0.3, 0.8), max_iters=20),
        ))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        emit_artifacts(run_experiment(spec), out1)
        emit_artifacts(run_experiment(spec), out2)
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_trial_traces_unaffected_by_other_trials(self):
        spec2 = small_spec(trials=2)
        spec3 = small_spec(trials=3)
        r2 = run_experiment(spec2)
        r3 = run_experiment(spec3)
        for trial in range(2):
            assert r2.traces[("rk", trial)].records == r3.traces[("rk", trial)].records

    def test_problem_shared_across_runs_within_trial(self):
        spec = small_spec(runs=(
            RunSpec(label="a", selector=RK(), max_iters=5),
            RunSpec(label="b", selector=RK(), max_iters=5),
        ))
        p0a = problem_for_trial(spec, 0)
        assert p0a == problem_for_trial(spec, 0)
        assert p0a != problem_for_trial(spec, 1)

    @pytest.mark.parametrize("fresh, built", [(True, 3), (False, 1)])
    def test_shared_problem_built_once(self, monkeypatch, fresh, built):
        calls = []

        def spy(problem):
            calls.append(problem)
            return generate_system(problem)

        monkeypatch.setattr(harness, "generate_system", spy)
        spec = small_spec(trials=3, fresh_problem_per_trial=fresh, runs=(
            RunSpec(label="rk", selector=RK(), max_iters=8),
            RunSpec(label="dqrk", selector=DQRK(0.3, 0.8), max_iters=8),
        ))
        result = run_experiment(spec)
        assert len(calls) == built
        # each trace is the solve of that trial's own freshly built system
        for (label, trial), trace in result.traces.items():
            run = next(run for run in spec.runs if run.label == label)
            alone = solve(generate_system(problem_for_trial(spec, trial)), SolverConfig(
                run.selector, run.max_iters, seed=derive_seed(spec.seed, label, trial)))
            assert trace.records == alone.records
            assert trace.final_x.tobytes() == alone.final_x.tobytes()

    def test_next_trial_built_after_last_solve(self, monkeypatch):
        events, built = [], []

        def spy_generate(problem):
            # every earlier trial's system is already freed
            assert all(ref() is None for ref in built)
            system = generate_system(problem)
            built.append(weakref.ref(system))
            events.append("build")
            return system

        def spy_solve(system, config, **kwargs):
            events.append("solve")
            return solve(system, config, **kwargs)

        monkeypatch.setattr(harness, "generate_system", spy_generate)
        monkeypatch.setattr(harness, "solve", spy_solve)
        run_experiment(small_spec(trials=3, runs=(
            RunSpec(label="rk", selector=RK(), max_iters=8),
            RunSpec(label="dqrk", selector=DQRK(0.3, 0.8), max_iters=8),
        )))
        assert events == ["build", "solve", "solve"] * 3

    def test_fresh_trials_peak_near_one_matrix(self):
        # building all five systems first would hold five matrices at once
        m, n = 1000, 100
        spec = small_spec(trials=5, record_every=None, problem=ProblemSpec(
            source=GeneratedSource("gaussian", m, n, seed=1),
            corruption=CorruptionSpec(beta=0.05, seed=2)), runs=(
            RunSpec(label="rk", selector=RK(), max_iters=5),
            RunSpec(label="qrk", selector=QRK(0.8), max_iters=5),
        ))
        # a first call imports numpy submodules; keep that out of the peak
        run_experiment(small_spec(runs=spec.runs, record_every=None))
        tracemalloc.start()
        try:
            run_experiment(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * m * n * 8

    def test_failures_recorded_without_aborting(self):
        spec = small_spec(runs=(
            RunSpec(label="bad", selector=RQRK(0.01), max_iters=5),  # 0.01*30 < 1
            RunSpec(label="good", selector=RK(), max_iters=5),
        ))
        result = run_experiment(spec)
        assert ("good", 0) in result.traces
        assert ("bad", 0) in result.failures
        assert "InvalidQuantilesError" in result.failures[("bad", 0)]

    def test_monotone_squared_error_on_consistent_systems(self):
        spec = ExperimentSpec(
            problem=ProblemSpec(source=GeneratedSource("gaussian", 40, 5, seed=4),
                                normalize=True, solution_seed=5),
            runs=tuple(RunSpec(label=k.name, selector=k, max_iters=100)
                       for k in (RK(), QRK(0.7), RQRK(0.5), DQRK(0.3, 0.8), Motzkin())),
            trials=2,
            seed=7,
        )
        result = run_experiment(spec)
        assert not result.failures
        for trace in result.traces.values():
            errs = [r.sq_error for r in trace.records]
            assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_record_every_must_be_positive(self):
        # rejected up front, for time_to_threshold too, which records nothing
        with pytest.raises(ValueError):
            small_spec(record_every=0)

    def test_record_every_none_records_nothing(self):
        result = run_experiment(small_spec(trials=2, record_every=None))
        recorded = run_experiment(small_spec(trials=2))
        assert result.traces.keys() == recorded.traces.keys()
        for key, trace in result.traces.items():
            assert trace.records == ()
            assert trace.final_x.tobytes() == recorded.traces[key].final_x.tobytes()

    def test_negative_iters_rejected(self):
        # rejected when the spec is built, before another run is solved
        with pytest.raises(ValueError, match="run 'rk': iters must be >= 0, got -1"):
            RunSpec(label="rk", selector=RK(), max_iters=-1)

    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError):
            small_spec(runs=(
                RunSpec(label="x", selector=RK(), max_iters=1),
                RunSpec(label="x", selector=Motzkin(), max_iters=1),
            ))


class TestArtifacts:
    def test_trajectory_row_count_and_empty_cells(self, tmp_path):
        spec = small_spec(trials=2)
        result = run_experiment(spec)
        path = emit_artifacts(result, tmp_path)["trajectory"]
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        expected = sum(len(t.records) for t in result.traces.values())
        assert len(rows) == expected
        first = rows[0]
        assert first["iteration"] == "0"
        assert first["chosen_row"] == ""   # not a zero
        assert first["Q0"] == "" and first["Q1"] == ""

    @pytest.mark.parametrize("planted", [True, False])
    def test_trajectory_matches_cell_writer(self, tmp_path, monkeypatch, planted):
        if not planted:  # no ground truth: every squared_error cell is empty
            def without_truth(problem):
                system = generate_system(problem)
                return DenseSystem(system.A, system.b)
            monkeypatch.setattr(harness, "generate_system", without_truth)
        spec = small_spec(trials=2, record_every=3, runs=(
            RunSpec(label='rk, "plain"', selector=RK(), max_iters=10),
            RunSpec(label="motzkin", selector=Motzkin(), max_iters=7),
            RunSpec(label="q,rk", selector=QRK(0.7), max_iters=9),
            RunSpec(label='d"q"rk', selector=DQRK(0.3, 0.8), max_iters=8),
            RunSpec(label="bad", selector=RQRK(0.01), max_iters=5),  # fails: 0.01*30 < 1
        ))
        result = run_experiment(spec)
        assert set(result.failures) == {("bad", 0), ("bad", 1)}
        text = emit_artifacts(result, tmp_path)["trajectory"].read_bytes()
        assert text == cell_trajectory_csv(result)
        assert b'"rk, ""plain"""' in text and b'"q,rk"' in text
        rows = list(csv.DictReader(io.StringIO(text.decode())))
        assert all((row["squared_error"] == "") == (not planted) for row in rows)
        assert any(row["label"] == "motzkin" and row["chosen_row"] and row["Q1"] == ""
                   for row in rows)

    def test_failed_trajectory_write_keeps_previous_file(self, tmp_path):
        result = run_experiment(small_spec(trials=2))
        path = tmp_path / "trajectory.csv"
        path.write_text("previous\n")
        trace = result.traces[("rk", 1)]
        # the last trace breaks after the rows before it went to the temp file
        result.traces[("rk", 1)] = dataclasses.replace(trace, residual_norm=None)
        with pytest.raises(AttributeError):
            emit_artifacts(result, tmp_path)
        assert path.read_text() == "previous\n"
        assert [f.name for f in tmp_path.iterdir()] == ["trajectory.csv"]

    def test_csv_floats_roundtrip(self, tmp_path):
        result = run_experiment(small_spec())
        path = emit_artifacts(result, tmp_path)["trajectory"]
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        trace = result.traces[("rk", 0)]
        for row, rec in zip(rows, trace.records):
            if rec.sq_error is not None:
                assert float(row["squared_error"]) == rec.sq_error

    def test_summary_json_roundtrip_exact(self, tmp_path):
        result = run_experiment(small_spec())
        out = emit_artifacts(result, tmp_path)
        with open(out["summary"]) as fh:
            loaded = json.load(fh)
        assert loaded == summary_dict(result)
        run0 = loaded["runs"][0]
        trace = result.traces[("rk", 0)]
        assert run0["final_sq_error"] == trace.records[-1].sq_error

    def test_spec_dict_roundtrip(self):
        spec = small_spec(runs=(
            RunSpec(label="dqrk", selector=DQRK(0.6, 0.8), max_iters=50,
                    stop=StopRule(target_sq_error=1e-8)),
            RunSpec(label="motzkin", selector=Motzkin(), max_iters=10),
        ))
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @settings(max_examples=100, deadline=None)
    @given(spec=_specs())
    def test_spec_json_roundtrip(self, spec):
        data = json.loads(json.dumps(spec_to_dict(spec)))
        if spec.record_every is None:
            # a library spec that records nothing echoes null, which is not a user setting
            message = r"^'record_every' must be an integer, got None in spec$"
            with pytest.raises(ValueError, match=message):
                spec_from_dict(data)
        else:
            assert spec_from_dict(data) == spec

    def test_absent_optional_keys_take_the_dataclass_defaults(self):
        source = {"dist": "gaussian", "m": 40, "n": 5}
        spec = spec_from_dict({
            "problem": {"source": source, "corruption": {"beta": 0.1}},
            "runs": [{"label": "stopped", "method": "rk", "iters": 3, "stop": {}},
                     {"label": "free", "method": "rk", "iters": 3}],
        })
        assert_defaults(spec, given=("problem", "runs"))
        assert_defaults(spec.problem, given=("source", "corruption"))
        assert isinstance(spec.problem.source, GeneratedSource)
        assert_defaults(spec.problem.source, given=("dist", "m", "n"))
        assert_defaults(spec.problem.corruption, given=("beta",))
        stopped, free = spec.runs
        assert_defaults(stopped, given=("label", "selector", "max_iters", "stop"))
        assert_defaults(stopped.stop)
        assert_defaults(free, given=("label", "selector", "max_iters"))
        bare = spec_from_dict({"problem": {"source": source},
                               "runs": [{"label": "free", "method": "rk", "iters": 3}]})
        assert_defaults(bare.problem, given=("source",))

    def test_integral_floats_are_integers(self):
        # JSON has one number type; 2.0 is as integral as 2
        data = spec_to_dict(small_spec(trials=2))
        assert spec_from_dict({**data, "trials": 2.0}) == spec_from_dict(data)

    def test_emit_writes_both_artifacts(self, tmp_path):
        paths = emit_artifacts(run_experiment(small_spec()), tmp_path)
        assert paths == {"trajectory": tmp_path / "trajectory.csv",
                         "summary": tmp_path / "summary.json"}
        assert sorted(f.name for f in tmp_path.iterdir()) == ["summary.json", "trajectory.csv"]
        summary = json.loads(paths["summary"].read_text())
        assert summary["schema"] == "quantile-kaczmarz/experiment-summary/v2"
        assert "workers" not in summary["spec"] and "outputs" not in summary["spec"]


@pytest.mark.parametrize("reduce", [lambda spec: time_to_threshold(spec, 1e-6),
                                    cost_parity_benchmark], ids=["threshold", "bench"])
def test_reductions_record_nothing(monkeypatch, reduce):
    seen = []

    def spy(system, config, record_every=1):
        seen.append(record_every)
        return solve(system, config, record_every=record_every)

    monkeypatch.setattr(harness, "solve", spy)
    reduce(small_spec(trials=2, record_every=3))
    assert seen and set(seen) == {None}


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="fan-out needs fork")


def force_fan_out(monkeypatch, cpus=2) -> list:
    """Put every group of solves with a second solve on the pool, as if
    ``cpus`` CPUs were allowed; returns the worker counts ``_fan_out`` is
    called with."""
    calls, fan_out = [], harness._fan_out

    def spy(system, spec, jobs, workers):
        calls.append(workers)
        return fan_out(system, spec, jobs, workers)

    monkeypatch.setattr(harness, "_FAN_OUT_FLOOR", -1)
    monkeypatch.setattr(harness, "_fan_out", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    return calls


def artifact_bytes(result, outdir) -> tuple[bytes, bytes]:
    paths = emit_artifacts(result, outdir)
    return paths["trajectory"].read_bytes(), paths["summary"].read_bytes()


@needs_fork
class TestFanOut:
    @pytest.fixture(autouse=True)
    def no_hang(self):
        # a pool that hangs ends the session with every thread's traceback
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    SPECS = {
        "pinned": PINNED_SPEC,
        "failing": small_spec(trials=3, fresh_problem_per_trial=False, runs=(
            RunSpec(label="bad", selector=RQRK(0.01), max_iters=5),  # 0.01*30 < 1
            RunSpec(label="rk", selector=RK(), max_iters=40),
            RunSpec(label="dqrk", selector=DQRK(0.3, 0.8), max_iters=60))),
        "fresh": small_spec(trials=3, runs=(
            RunSpec(label="qrk", selector=QRK(0.7), max_iters=50),
            RunSpec(label="motzkin", selector=Motzkin(), max_iters=20))),
    }

    @pytest.mark.parametrize("name", list(SPECS))
    def test_artifacts_match_the_in_process_path(self, monkeypatch, tmp_path, name):
        spec = self.SPECS[name]
        alone = run_experiment(spec)
        calls = force_fan_out(monkeypatch)
        pooled = run_experiment(spec)
        assert calls == [2] * (1 if name == "failing" else spec.trials)
        assert artifact_bytes(pooled, tmp_path / "pooled") == artifact_bytes(
            alone, tmp_path / "serial")
        assert pooled.failures == alone.failures
        assert list(pooled.traces) == list(alone.traces)
        assert list(pooled.seconds) == list(alone.seconds)
        if name == "failing":
            assert list(pooled.failures) == [("bad", t) for t in range(3)]

    def test_longest_runs_are_sent_first(self, monkeypatch):
        sent = []
        submit = ProcessPoolExecutor.submit

        def spy(pool, fn, run, trial):
            sent.append((run.label, trial))
            return submit(pool, fn, run, trial)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", spy)
        force_fan_out(monkeypatch)
        run_experiment(self.SPECS["failing"])
        assert sent == [("dqrk", t) for t in range(3)] + [("rk", t) for t in range(3)] + [
            ("bad", t) for t in range(3)]

    def test_no_worker_outlives_a_return(self, monkeypatch):
        force_fan_out(monkeypatch)
        run_experiment(self.SPECS["fresh"])
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_an_exception_in_the_parent(self, monkeypatch):
        submit = ProcessPoolExecutor.submit
        sent = []

        def third_submit_raises(pool, *args):
            sent.append(args)
            if len(sent) == 3:  # the workers were forked at the first
                raise KeyboardInterrupt
            return submit(pool, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", third_submit_raises)
        force_fan_out(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(self.SPECS["failing"])
        assert multiprocessing.active_children() == []

    def test_a_worker_error_reaches_the_parent(self, monkeypatch):
        def solve_or_raise(system, config, **kwargs):
            if config.selector.name == "motzkin":
                raise RuntimeError("not a handled error")
            return solve(system, config, **kwargs)

        monkeypatch.setattr(harness, "solve", solve_or_raise)
        force_fan_out(monkeypatch)
        with pytest.raises(RuntimeError, match="not a handled error"):
            run_experiment(self.SPECS["fresh"])
        assert multiprocessing.active_children() == []

    def test_a_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        def solve_or_die(system, config, **kwargs):
            if config.selector.name == "motzkin":
                os._exit(3)
            return solve(system, config, **kwargs)

        monkeypatch.setattr(harness, "solve", solve_or_die)
        force_fan_out(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(BrokenProcessPool):
            run_experiment(self.SPECS["fresh"])
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, spec", [(1, "fresh"), (2, "single")])
    def test_one_cpu_or_one_solve_runs_in_process(self, monkeypatch, cpus, spec):
        spec = self.SPECS.get(spec) or small_spec(trials=2)
        calls = force_fan_out(monkeypatch, cpus=cpus)
        run_experiment(spec)
        assert calls == []

    def test_work_at_the_floor_runs_in_process(self, monkeypatch):
        spec = self.SPECS["fresh"]
        m, n = spec.problem.source.m, spec.problem.source.n
        calls = force_fan_out(monkeypatch)
        monkeypatch.setattr(harness, "_FAN_OUT_FLOOR", m * n * (50 + 20))
        run_experiment(spec)
        assert calls == []
        monkeypatch.setattr(harness, "_FAN_OUT_FLOOR", m * n * (50 + 20) - 1)
        run_experiment(spec)
        assert calls == [2] * spec.trials

    def test_timing_studies_never_fan_out(self, monkeypatch):
        spec = self.SPECS["fresh"]
        calls = force_fan_out(monkeypatch)
        time_to_threshold(spec, 1e-6)
        cost_parity_benchmark(spec)
        assert calls == []
        run_experiment(spec)  # the same spec does fan out
        assert calls == [2] * spec.trials


class TestThreshold:
    @settings(max_examples=500, deadline=None)
    @given(values=st.one_of(
        st.lists(st.integers(0, 10**9), min_size=1, max_size=12),
        st.lists(st.floats(0.0, 1e3), min_size=1, max_size=12)))
    def test_iqr_has_the_bits_of_np_percentile(self, values):
        q1, q3 = np.percentile(values, [25, 75])
        _, iqr = harness._median_iqr(values)
        assert iqr.hex() == float(q3 - q1).hex()

    def test_zero_iterations_when_already_reached(self):
        spec = small_spec(runs=(RunSpec(label="rk", selector=RK(), max_iters=50),))
        # initial error equals |x*|^2 from the origin start; any bigger target
        # is satisfied at iteration 0
        results = time_to_threshold(spec, threshold=1e9)
        assert results[0].iterations == (0,)
        assert results[0].reached_fraction == 1.0
        assert results[0].median_iterations == 0

    def test_censoring_without_fabricated_values(self):
        spec = small_spec(runs=(RunSpec(label="rk", selector=RK(), max_iters=3),))
        results = time_to_threshold(spec, threshold=1e-30)
        assert results[0].iterations == (None,)
        assert results[0].reached_fraction == 0.0
        assert results[0].median_iterations is None
        assert results[0].median_seconds is None

    def test_faster_method_needs_fewer_iterations(self):
        spec = ExperimentSpec(
            problem=ProblemSpec(source=GeneratedSource("gaussian", 120, 10, seed=8),
                                normalize=True, solution_seed=9),
            runs=(RunSpec(label="rk", selector=RK(), max_iters=20000),
                  RunSpec(label="rqrk", selector=RQRK(0.8), max_iters=20000)),
            trials=3,
            seed=11,
        )
        results = {r.label: r for r in time_to_threshold(spec, threshold=1e-6)}
        assert results["rk"].reached_fraction == 1.0
        assert results["rqrk"].reached_fraction == 1.0
        assert results["rqrk"].median_iterations < results["rk"].median_iterations

    def test_table_writers(self, tmp_path):
        spec = small_spec(runs=(RunSpec(label="rk", selector=RK(), max_iters=30),))
        results = time_to_threshold(spec, threshold=1e9)
        write_table(results, ThresholdResult, tmp_path / "t.csv", fmt="csv")
        write_table(results, ThresholdResult, tmp_path / "t.json", fmt="json")
        with open(tmp_path / "t.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["label"] == "rk"
        assert rows[0]["reached_fraction"] == "1.0"
        assert json.loads((tmp_path / "t.json").read_text())[0]["label"] == "rk"

    def test_table_numpy_float_cell(self, tmp_path):
        row = dataclasses.replace(
            time_to_threshold(small_spec(), threshold=1e9)[0],
            median_seconds=np.float64(0.5), iqr_seconds=np.float32(0.25))
        write_table([row], ThresholdResult, tmp_path / "t.csv")
        with open(tmp_path / "t.csv") as fh:
            parsed = next(csv.DictReader(fh))
        assert (parsed["median_seconds"], parsed["iqr_seconds"]) == ("0.5", "0.25")


class TestBench:
    PROBLEM = ProblemSpec(source=GeneratedSource("uniform", 60, 6, seed=16),
                          normalize=True, solution_seed=17)

    def test_rows_and_rk_cheaper_than_qrk(self, tmp_path):
        problem = ProblemSpec(source=GeneratedSource("uniform", 400, 40, seed=12),
                              normalize=True, solution_seed=13)
        runs = [RunSpec(label="rk", selector=RK(), max_iters=300),
                RunSpec(label="qrk", selector=QRK(0.8), max_iters=300)]
        rows, failures = cost_parity_benchmark(ExperimentSpec(problem, runs, trials=3, seed=1))
        assert failures == {}
        seconds = {row.label: row.seconds_median for row in rows}
        assert seconds["rk"] > 0
        # no residuals and no quantile pass: plain sampling must be cheaper
        assert seconds["rk"] < seconds["qrk"]
        write_table(rows, BenchRow, tmp_path / "b.csv")
        with open(tmp_path / "b.csv") as fh:
            parsed = list(csv.DictReader(fh))
        assert [r["label"] for r in parsed] == ["rk", "qrk"]

    def test_repeats_interleave_across_runs_after_warmups(self, monkeypatch):
        # a host that slows down halfway must slow every run alike
        calls = []

        def spy(system, config, record_every=1):
            calls.append(config.selector.name)
            return solve(system, config, record_every=record_every)

        monkeypatch.setattr(harness, "solve", spy)
        runs = [RunSpec(label="qrk", selector=QRK(0.8), max_iters=5),
                RunSpec(label="dqrk", selector=DQRK(0.6, 0.8), max_iters=5)]
        rows, _ = cost_parity_benchmark(ExperimentSpec(self.PROBLEM, runs, trials=3, seed=3))
        assert calls == ["qrk", "dqrk"] * 4
        assert [row.label for row in rows] == ["qrk", "dqrk"]
        assert all(len(row.seconds) == 3 for row in rows)

    def test_each_run_solves_its_own_iters_without_stopping(self, monkeypatch):
        iterations = []

        def spy(system, config, record_every=1):
            trace = solve(system, config, record_every=record_every)
            iterations.append((config.selector.name, trace.iterations, trace.termination))
            return trace

        monkeypatch.setattr(harness, "solve", spy)
        stop = StopRule(target_sq_error=1e300)  # met before the first step
        runs = [RunSpec(label="short", selector=RK(), max_iters=7, stop=stop),
                RunSpec(label="long", selector=QRK(0.8), max_iters=11, stop=stop)]
        rows, _ = cost_parity_benchmark(ExperimentSpec(self.PROBLEM, runs, trials=2))
        assert iterations == [("rk", 7, "max_iters"), ("qrk", 11, "max_iters")] * 3
        assert [(row.label, row.iters) for row in rows] == [("short", 7), ("long", 11)]

    def test_zero_iters_rejected_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kwargs: calls.append(args))
        runs = [RunSpec(label="qrk", selector=QRK(0.8), max_iters=0)]
        with pytest.raises(ValueError, match="iters must be >= 1"):
            cost_parity_benchmark(ExperimentSpec(self.PROBLEM, runs))
        assert calls == []

    @pytest.mark.parametrize("labels, message", [
        ((), "at least one run is required"),
        (("qrk", "qrk"), "run labels must be unique"),
    ])
    def test_bad_labels_rejected_before_any_solve(self, monkeypatch, labels, message):
        calls = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kwargs: calls.append(args))
        runs = [RunSpec(label=label, selector=QRK(0.8), max_iters=5) for label in labels]
        with pytest.raises(ValueError, match=message):
            cost_parity_benchmark(ExperimentSpec(self.PROBLEM, runs))
        assert calls == []

    def test_wall_clock_roughly_linear_in_iterations(self):
        # solves of about 0.15 and 0.3 s: a host stall of some tens of ms
        # cannot move their ratio out of the window
        problem = ProblemSpec(source=GeneratedSource("uniform", 800, 80, seed=14),
                              normalize=True, solution_seed=15)
        runs = [RunSpec(label=str(iters), selector=QRK(0.8), max_iters=iters)
                for iters in (2500, 5000)]
        rows, _ = cost_parity_benchmark(ExperimentSpec(problem, runs, trials=5, seed=2))
        seconds = {row.label: row.seconds_median for row in rows}
        ratio = seconds["5000"] / seconds["2500"]
        assert 1.5 <= ratio <= 2.5


class TestDiagnosticReport:
    def test_synthetic_matrix_cross_checked(self, tmp_path):
        # stacked identity: sigma_loo = 1 exactly, E computable by hand
        a = np.vstack([np.eye(3), np.eye(3)])
        path = tmp_path / "stacked.mtx"
        save_matrix_market(path, a)
        rows = diagnostic_report([path], q0=0.6, q1=0.8, beta=0.001)
        row = rows[0]
        assert row.error is None
        assert row.matrix == "stacked"
        assert (row.rows, row.cols) == (6, 3)
        assert row.sigma_loo_min == pytest.approx(1.0, abs=1e-10)
        from quantile_kaczmarz import robustness_diagnostic
        expected = robustness_diagnostic(np.sqrt(2.0), 1.0, 0.6, 0.8, 0.001, 6)
        assert row.diagnostic == pytest.approx(expected, abs=1e-9)
        assert row.diagnostic > 0

    def test_per_file_errors_captured(self, tmp_path):
        good = tmp_path / "good.mtx"
        save_matrix_market(good, np.vstack([np.eye(2), np.eye(2), np.eye(2)]))
        rows = diagnostic_report([tmp_path / "missing.mtx", good],
                                 q0=0.6, q1=0.8, beta=0.01)
        assert rows[0].error is not None
        assert rows[1].error is None

    def test_table_writer(self, tmp_path):
        a = np.vstack([np.eye(2), np.eye(2)])
        path = tmp_path / "m.mtx"
        save_matrix_market(path, a)
        rows = diagnostic_report([path], q0=0.6, q1=0.8, beta=0.01)
        write_table(rows, DiagnosticRow, tmp_path / "d.csv")
        with open(tmp_path / "d.csv") as fh:
            parsed = list(csv.DictReader(fh))
        assert parsed[0]["matrix"] == "m"
        assert float(parsed[0]["sigma_loo_min"]) == pytest.approx(1.0)
