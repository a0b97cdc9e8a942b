"""Batch experiment runner: seeded trials, timing studies, artifact emission.

An experiment is a problem family, a list of labeled solver runs, and a
trial count. Trial t of run "label" solves with seed derived as the first 8
little-endian bytes of SHA-256 of ``f"{master}\\x1f{label}\\x1f{trial}"``;
problem seeds use the reserved labels ``problem/matrix:<base>``,
``problem/solution:<base>`` and ``problem/corruption:<base>``. Every trial's
seeds depend only on its own index, so adding or removing other trials never
changes its trace.

Emitted artifacts (trajectory CSV, summary JSON, tables) sort rows by
(label, trial, iteration) and are byte-deterministic functions of the spec,
wall-clock columns excepted. Floats serialize as shortest round-trip
decimals; absent optional fields serialize as empty CSV cells.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np
import scipy

from ._util import atomic_writer
from ._version import __version__
from .errors import HANDLED_ERRORS, HypothesisViolationError, QuantileKaczmarzError
from .linalg import normalize_rows
from .linalg import extreme_singular_values  # unused here; the benchmark tracer wraps this name
from .matrixmarket import load_matrix_market
from .problems import (
    CorruptionSpec,
    FileSource,
    GeneratedSource,
    ProblemSpec,
    generate_system,
)
from .solver import (
    OnHyperplane,
    Origin,
    SELECTORS,
    SelectorKind,
    SolveTrace,
    SolverConfig,
    StopRule,
    X0Policy,
    solve,
)
from .spectral import leave_one_out_spectrum
from .spectral import leave_one_out_sigma_min  # unused here; the benchmark tracer wraps this name


def derive_seed(master: int, label: str, trial: int) -> int:
    """Stable 64-bit seed from (master seed, label, trial index)."""
    digest = hashlib.sha256(f"{master}\x1f{label}\x1f{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# --------------------------------------------------------------------------
# experiment specification


@dataclass(frozen=True)
class RunSpec:
    """One labeled solver configuration; the seed is derived per trial."""

    label: str
    selector: SelectorKind
    max_iters: int
    stop: StopRule | None = None
    x0: X0Policy = field(default_factory=Origin)

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"run {self.label!r}: iters must be >= 0, got {self.max_iters}")


@dataclass(frozen=True)
class ExperimentSpec:
    problem: ProblemSpec
    runs: tuple[RunSpec, ...]
    trials: int = 1
    seed: int = 0
    record_every: int | None = 1  # None records nothing
    fresh_problem_per_trial: bool = True

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.record_every is not None and self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        labels = [run.label for run in self.runs]
        if len(set(labels)) != len(labels):
            raise ValueError("run labels must be unique")
        for label in labels:
            if label.startswith("problem/"):  # problem_for_trial derives its seeds from these
                raise ValueError(f"run label {label!r} is reserved for the problem's seeds")
        if not self.runs:
            raise ValueError("at least one run is required")


def problem_for_trial(spec: ExperimentSpec, trial: int) -> ProblemSpec:
    """The trial's problem, with seeds derived from the master seed."""
    t = trial if spec.fresh_problem_per_trial else 0
    problem = spec.problem
    source = problem.source
    if isinstance(source, GeneratedSource):
        source = dataclasses.replace(
            source, seed=derive_seed(spec.seed, f"problem/matrix:{source.seed}", t)
        )
    corruption = problem.corruption
    if corruption is not None:
        corruption = dataclasses.replace(
            corruption, seed=derive_seed(spec.seed, f"problem/corruption:{corruption.seed}", t)
        )
    return dataclasses.replace(
        problem,
        source=source,
        corruption=corruption,
        solution_seed=derive_seed(spec.seed, f"problem/solution:{problem.solution_seed}", t),
    )


# --------------------------------------------------------------------------
# running


@dataclass(frozen=True)
class ExperimentResult:
    """Every (label, trial) solve's trace or failure, and its wall-clock
    ``seconds``: the time of the solve alone, measured by the process that ran
    it, so a worker's own wall time under fan-out."""

    spec: ExperimentSpec
    traces: dict[tuple[str, int], SolveTrace]
    failures: dict[tuple[str, int], str]
    seconds: dict[tuple[str, int], float]


# A group of solves fans out only if its work, m * n * (the sum of its solves'
# max_iters), exceeds this floor. On a 2-vCPU Xeon the pool costs C = 25 ms:
# 11 ms to import multiprocessing and concurrent.futures, 14 ms to start and
# stop two workers. Two workers that give f times one process's throughput
# break even at C f / (f - 1) of work in-process: 56 ms for the 1.8x that
# Python-bound work reached there, which is 10**8 at the 0.55 ns per entry of
# a 1000 x 100 quantile step. Matvec-bound 1000 x 100 groups reached only
# about 1.1x, so just above the floor they may lose up to C; 2500 x 250
# groups won from the floor up, and 200 x 20 ones from a quarter of it.
_FAN_OUT_FLOOR = 10**8


def _solve_one(system, spec: ExperimentSpec, run: RunSpec, trial: int):
    """(trace or None, failure or None, seconds) of one (run, trial) solve."""
    config = SolverConfig(selector=run.selector, max_iters=run.max_iters,
                          seed=derive_seed(spec.seed, run.label, trial),
                          x0=run.x0, stop=run.stop)
    trace = failure = None
    start = time.perf_counter()
    try:
        trace = solve(system, config, record_every=spec.record_every)
    except QuantileKaczmarzError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    return trace, failure, time.perf_counter() - start


def _pool_size(system, jobs, max_workers: int | None) -> int:
    """Worker processes for one group of solves; 1 runs them in-process.

    The pool needs ``fork``, at least two allowed CPUs and work above
    ``_FAN_OUT_FLOOR``; then it has one worker per allowed CPU, at most one
    per solve and at most ``max_workers``.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    m, n = system.shape
    if m * n * sum(run.max_iters for run, _ in jobs) <= _FAN_OUT_FLOOR:
        return 1
    return min(len(os.sched_getaffinity(0)), len(jobs), max_workers or len(jobs))


_ADOPTED = None  # a worker's (system, spec), inherited through fork


def _adopt(system, spec) -> None:
    global _ADOPTED
    _ADOPTED = system, spec


def _solve_adopted(run: RunSpec, trial: int):
    return _solve_one(*_ADOPTED, run, trial)


def _fan_out(system, spec: ExperimentSpec, jobs, workers: int) -> dict:
    """``_solve_one`` of every (run, trial) job, by (label, trial), solved in
    ``workers`` processes forked from this one, so that they share A
    copy-on-write. The runs with the largest caps are sent first. Every
    worker has exited when this returns or raises; a worker that dies
    raises ``BrokenProcessPool``."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt, initargs=(system, spec))
    try:
        futures = {(run.label, trial): pool.submit(_solve_adopted, run, trial)
                   for run, trial in sorted(jobs, key=lambda job: -job[0].max_iters)}
        return {key: future.result() for key, future in futures.items()}
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_experiment(spec: ExperimentSpec, *,
                   _max_workers: int | None = None) -> ExperimentResult:
    """Solve every (run, trial) pair; per-run failures do not abort the rest.
    ``seconds`` holds each solve's wall-clock time.

    The solves that share a system form a group: one trial's runs, or, with
    ``fresh_problem_per_trial=False``, every solve, on the system built
    before the first trial. A group's system is built right before its
    solves and released before the next group's is built, so one system,
    and so one m x n matrix, is alive at a time.

    A group whose work is above ``_FAN_OUT_FLOOR`` fans out over worker
    processes forked after its system is built (``_pool_size``); any other
    runs in-process, trial by trial and run by run. The result is the same,
    bit for bit, either way. ``time_to_threshold`` and
    ``cost_parity_benchmark`` pass ``_max_workers=1``: they report
    per-solve seconds, which a second solve on the other CPU would disturb.
    """
    groups = ([(trial,) for trial in range(spec.trials)] if spec.fresh_problem_per_trial
              else [range(spec.trials)])
    outcomes = {}
    for trials in groups:
        system = generate_system(problem_for_trial(spec, trials[0]))
        jobs = [(run, trial) for trial in trials for run in spec.runs]
        workers = _pool_size(system, jobs, _max_workers)
        if workers > 1:
            outcomes.update(_fan_out(system, spec, jobs, workers))
        else:
            for run, trial in jobs:
                outcomes[(run.label, trial)] = _solve_one(system, spec, run, trial)
        del system  # before the next group's system is built
    traces, failures, seconds = {}, {}, {}
    for trial in range(spec.trials):
        for run in spec.runs:
            key = (run.label, trial)
            trace, failure, seconds[key] = outcomes.pop(key)
            if failure is None:
                traces[key] = trace
            else:
                failures[key] = failure
    return ExperimentResult(spec=spec, traces=traces, failures=failures, seconds=seconds)


# --------------------------------------------------------------------------
# thresholds and timing


@dataclass(frozen=True)
class ThresholdResult:
    """Iterations/wall-clock to reach a squared-error target, per trial.

    ``iterations`` holds None for censored trials (target not reached) and
    for failed trials; ``failures`` holds a failed trial's error and None for
    every trial that ran, so failed trials are not counted as censored.
    Medians and interquartile ranges cover only the trials that reached it.
    """

    label: str
    threshold: float
    iterations: tuple[int | None, ...]
    seconds: tuple[float, ...]
    failures: tuple[str | None, ...]
    reached_fraction: float
    median_iterations: float | None
    iqr_iterations: float | None
    median_seconds: float | None
    iqr_seconds: float | None

    CSV_COLUMNS: ClassVar = ("label", "threshold", "trials", "reached_fraction",
                             "median_iterations", "iqr_iterations",
                             "median_seconds", "iqr_seconds", "failed")

    @property
    def trials(self) -> int:
        return len(self.iterations)

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.failures)


def _median_iqr(values) -> tuple[float | None, float | None]:
    """The median and the interquartile range, whose quartiles have the bits of
    ``np.percentile``'s default 'linear' rule; that call imports ``numpy.ma``."""
    if not values:
        return None, None
    ordered = sorted(values)

    def quartile(p):
        h = (len(ordered) - 1) * p
        j = int(h)
        a, b, t = ordered[j], ordered[min(j + 1, len(ordered) - 1)], h - j
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    return float(statistics.median(values)), float(quartile(0.75) - quartile(0.25))


def time_to_threshold(spec: ExperimentSpec, threshold: float) -> list[ThresholdResult]:
    """Per run: iterations and wall-clock until the squared error reaches
    ``threshold``, censored at the run's iteration cap.

    The trials are those of ``run_experiment`` with every run's stop rule
    replaced by the threshold and recording off.
    """
    stop = StopRule(target_sq_error=threshold)
    result = run_experiment(dataclasses.replace(
        spec, record_every=None,
        runs=tuple(dataclasses.replace(run, stop=stop) for run in spec.runs)), _max_workers=1)
    results = []
    for run in spec.runs:
        keys = [(run.label, trial) for trial in range(spec.trials)]
        traces = [result.traces.get(key) for key in keys]
        iters = tuple(None if trace is None or trace.termination != "target_sq_error"
                      else trace.iterations for trace in traces)
        secs = tuple(result.seconds[key] for key in keys)
        reached_iters = [i for i in iters if i is not None]
        reached_secs = [s for s, i in zip(secs, iters) if i is not None]
        med_i, iqr_i = _median_iqr(reached_iters)
        med_s, iqr_s = _median_iqr(reached_secs)
        results.append(ThresholdResult(
            label=run.label,
            threshold=threshold,
            iterations=iters,
            seconds=secs,
            failures=tuple(result.failures.get(key) for key in keys),
            reached_fraction=len(reached_iters) / spec.trials,
            median_iterations=med_i,
            iqr_iterations=iqr_i,
            median_seconds=med_s,
            iqr_seconds=iqr_s,
        ))
    return results


@dataclass(frozen=True)
class BenchRow:
    label: str
    iters: int
    seconds: tuple[float, ...]
    seconds_median: float

    CSV_COLUMNS: ClassVar = ("label", "iters", "seconds_median", "seconds_per_iteration")

    @property
    def seconds_per_iteration(self) -> float:
        return self.seconds_median / self.iters


def cost_parity_benchmark(
        spec: ExperimentSpec) -> tuple[list[BenchRow], dict[tuple[str, int], str]]:
    """Median-of-``spec.trials`` wall-clock for exactly each run's ``max_iters``.

    The solves are ``run_experiment``'s with recording off, no stop rules, one
    problem for every trial and an untimed warmup trial 0 in front. Every run
    of a trial is solved before the next trial, so after one warmup per run
    the timed solves go round-robin across the runs, and a drift in host speed
    hits every run alike instead of showing up as a ratio between runs. A run
    with a failed trial gets no row. Returns the rows, in run order, and
    ``run_experiment``'s failures, warmup included.
    """
    if any(run.max_iters < 1 for run in spec.runs):
        raise ValueError("iters must be >= 1")
    result = run_experiment(dataclasses.replace(
        spec, trials=spec.trials + 1, fresh_problem_per_trial=False, record_every=None,
        runs=tuple(dataclasses.replace(run, stop=None) for run in spec.runs)), _max_workers=1)
    failed = {label for label, _ in result.failures}
    rows = []
    for run in spec.runs:
        times = tuple(result.seconds[(run.label, t)] for t in range(1, spec.trials + 1))
        if run.label not in failed:
            rows.append(BenchRow(label=run.label, iters=run.max_iters, seconds=times,
                                 seconds_median=float(statistics.median(times))))
    return rows, result.failures


# --------------------------------------------------------------------------
# diagnostics table


@dataclass(frozen=True)
class DiagnosticRow:
    matrix: str
    rows: int | None
    cols: int | None
    sigma_loo_min: float | None
    diagnostic: float | None
    error: str | None = None

    CSV_COLUMNS: ClassVar = ("matrix", "rows", "cols", "sigma_loo_min", "E", "error")

    @property
    def E(self) -> float | None:  # the diagnostic's name in the paper and the CSV header
        return self.diagnostic


def corruption_penalty(q_upper: float, beta: float) -> float:
    """The term 2 sqrt(beta)/sqrt(1-q-beta) + beta/(1-q-beta).

    Grows without bound as q + beta approaches 1; requires q + beta < 1.
    """
    slack = 1.0 - q_upper - beta
    if slack <= 0:
        raise HypothesisViolationError(f"need q + beta < 1, got q={q_upper}, beta={beta}")
    return 2.0 * math.sqrt(beta) / math.sqrt(slack) + beta / slack


def robustness_diagnostic(
    sigma_max: float,
    sigma_loo_min: float,
    q0: float,
    q1: float,
    beta: float,
    m: int,
) -> float:
    """Cheap certificate that the two-quantile sufficient condition fails.

    Evaluates

        (sigma_loo^2 + sigma_loo^2/(q0 m)) / sigma_max^2
            - (q1/(1-q0-beta)) P(q1, beta)

    with sigma_loo the leave-one-out subset minimum. Because subset minima
    are non-decreasing in the subset fraction, sigma_loo upper-bounds the
    sigma_{q-beta} values in the real condition, and the coefficient
    q1/(1-q0-beta) never exceeds the condition's q1/(q1-q0-beta); so a
    negative value certifies the sufficient condition fails. A positive
    value is only suggestive.
    """
    if not q1 + beta < 1.0:
        raise HypothesisViolationError(f"need q1 + beta < 1, got q1={q1}, beta={beta}")
    if not q1 - q0 > beta:
        raise HypothesisViolationError(f"need q1 - q0 > beta, got q1-q0={q1 - q0}, beta={beta}")
    if not 0.0 < q0:
        raise HypothesisViolationError(f"need q0 > 0, got q0={q0}")
    penalty = corruption_penalty(q1, beta)
    redundancy = (sigma_loo_min**2 + sigma_loo_min**2 / (q0 * m)) / sigma_max**2
    return redundancy - (q1 / (1.0 - q0 - beta)) * penalty


def diagnostic_report(paths, q0: float, q1: float, beta: float) -> list[DiagnosticRow]:
    """Row-normalize each matrix file and report (sigma_loo_min, diagnostic).

    Each matrix is checked once, by ``normalize_rows``, and factored once:
    sigma_max comes from the Gram eigendecomposition that gives sigma_loo_min,
    so no SVD runs. Per-file errors are captured in the row rather than
    raised, so one bad file does not sink the table.
    """
    out = []
    for path in paths:
        path = Path(path)
        try:
            a = load_matrix_market(path)
            a, _ = normalize_rows(a)
            m, n = a.shape
            sigma_loo, sigma_max = leave_one_out_spectrum(a)
            value = robustness_diagnostic(sigma_max, sigma_loo, q0, q1, beta, m)
            out.append(DiagnosticRow(matrix=path.stem, rows=m, cols=n,
                                     sigma_loo_min=sigma_loo, diagnostic=value))
        except HANDLED_ERRORS as exc:
            out.append(DiagnosticRow(matrix=path.stem, rows=None, cols=None,
                                     sigma_loo_min=None, diagnostic=None,
                                     error=f"{type(exc).__name__}: {exc}"))
    return out


# --------------------------------------------------------------------------
# artifact emission


TRAJECTORY_COLUMNS = ["label", "trial", "iteration", "squared_error",
                      "residual_norm", "chosen_row", "Q0", "Q1"]


def write_csv(path, columns, rows) -> None:
    """Write the header ``columns``, then stream ``rows``, an iterable of sequences."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON with sorted keys, two-space indents and a final newline."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_table(rows, row_type, path, fmt: str = "csv") -> None:
    """Write dataclass rows of ``row_type`` as CSV or as a JSON list.

    The CSV columns are ``row_type.CSV_COLUMNS``, fields or properties
    derived from them; the JSON objects hold every field.
    """
    if fmt == "json":
        write_json(path, [dataclasses.asdict(r) for r in rows])
    else:
        write_csv(path, row_type.CSV_COLUMNS,
                  ([getattr(r, c) for c in row_type.CSV_COLUMNS] for r in rows))


def _x0_dict(policy: X0Policy):
    if isinstance(policy, OnHyperplane):
        return "hyperplane" if policy.row is None else f"hyperplane:{policy.row}"
    return "origin"


def parse_x0(text: str) -> X0Policy:
    """Parse an x0 policy: "origin", "hyperplane" or "hyperplane:<row>", a row >= 0."""
    if text == "origin":
        return Origin()
    if text == "hyperplane":
        return OnHyperplane()
    head, _, row = text.partition(":")
    if head == "hyperplane" and row.isdecimal():
        return OnHyperplane(row=int(row))
    raise ValueError("'x0' must be \"origin\", \"hyperplane\" or \"hyperplane:<row>\" "
                     f"with a row >= 0, got {text!r}")


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               dict: "an object", list: "a list"}


def _read(data: dict, where: str, key: str, kind: type, default=_REQUIRED):
    """``data[key]`` (``default`` if absent) checked as ``kind``, a key of ``_KIND_NAMES``;
    an absent key without a default, or a value of another kind, is an error
    naming the key and ``where`` it is.

    JSON has one number type, so 3.0 counts as an int but 2.7 does not, and a
    float field takes any number and returns it as a float; true and false
    are only booleans. A null passes only where the default is None.
    """
    if default is _REQUIRED and key not in data:
        raise ValueError(f"missing key {key!r} in {where}")
    value = data.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) == (kind is bool):
        if kind is int and isinstance(value, float) and value.is_integer():
            return int(value)
        if kind is float and isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, kind):
            return value
    raise ValueError(f"{key!r} must be {_KIND_NAMES[kind]}, got {value!r} in {where}")


# the annotations are strings: every spec module imports them from __future__
_SCALARS = {"int": int, "float": float, "bool": bool, "str": str, "Path": str}


def _scalar_fields(cls) -> list:
    """(field, kind) for each field of the dataclass ``cls`` annotated as a JSON scalar."""
    return [(f, _SCALARS[kind]) for f in dataclasses.fields(cls)
            if (kind := f.type.removesuffix(" | None")) in _SCALARS]


def _fields_dict(obj, skip=()) -> dict:
    """The scalar fields of ``obj`` not named in ``skip``, by name; paths as strings."""
    return {f.name: str(getattr(obj, f.name)) if kind is str else getattr(obj, f.name)
            for f, kind in _scalar_fields(obj) if f.name not in skip}


def _from_fields(cls, data: dict, where: str, keys=(), **given):
    """``cls(**given)`` with every other scalar field read from ``data`` by name, as
    its annotated kind, with the dataclass default; a field without one is required.

    ``keys`` names the other keys of ``data`` that the caller reads; a key of
    ``data`` that is neither is an error naming it and ``where`` it is.
    """
    known = set(keys)
    for f, kind in _scalar_fields(cls):
        if f.name not in given:
            known.add(f.name)
            default = _REQUIRED if f.default is dataclasses.MISSING else f.default
            given[f.name] = _read(data, where, f.name, kind, default)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {where}")
    return cls(**given)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    """The spec as ``spec_from_dict`` reads it, every key written out under the name
    of the dataclass field it holds (a run's method, iters and x0 and the source
    kind excepted)."""
    problem, corruption = spec.problem, spec.problem.corruption
    kind = "generated" if isinstance(problem.source, GeneratedSource) else "file"
    runs = []
    for run in spec.runs:
        entry = {**_fields_dict(run, skip=("max_iters",)), "method": run.selector.name,
                 **_fields_dict(run.selector), "iters": run.max_iters, "x0": _x0_dict(run.x0)}
        if run.stop is not None:
            entry["stop"] = _fields_dict(run.stop)
        runs.append(entry)
    return {**_fields_dict(spec), "runs": runs, "problem": {
        **_fields_dict(problem), "source": {"kind": kind, **_fields_dict(problem.source)},
        "corruption": None if corruption is None else _fields_dict(corruption)}}


def spec_from_dict(data: dict) -> ExperimentSpec:
    """Parse the documented experiment JSON schema; a mistyped value or an unknown
    key raises ValueError.

    An absent key takes the default of the dataclass field it names, and is an
    error where that field has none.
    """
    data = _read({"spec": data}, "file", "spec", dict)
    problem_data = _read(data, "spec", "problem", dict)
    source_data = _read(problem_data, "problem", "source", dict)
    kind = _read(source_data, "problem.source", "kind", str, "generated")
    if kind not in ("generated", "file"):
        raise ValueError(f"unknown source kind {kind!r} in problem.source")
    source = _from_fields(GeneratedSource if kind == "generated" else FileSource,
                          source_data, "problem.source", keys=("kind",))
    corruption = _read(problem_data, "problem", "corruption", dict, None)
    if corruption is not None:
        corruption = _from_fields(CorruptionSpec, corruption, "problem.corruption")
    problem = _from_fields(ProblemSpec, problem_data, "problem", keys=("source", "corruption"),
                           source=source, corruption=corruption)
    runs = []
    for i, entry in enumerate(_read(data, "spec", "runs", list)):
        where = f"runs[{i}]"
        entry = _read({where: entry}, "runs", where, dict)
        method = _read(entry, where, "method", str)
        if method.lower() not in SELECTORS:
            raise ValueError(f"unknown method {method!r} in {where}")
        cls = SELECTORS[method.lower()]  # its quantiles are its fields, all required
        quantiles = {f.name: _read(entry, where, f.name, scalar)
                     for f, scalar in _scalar_fields(cls)}
        stop = _read(entry, where, "stop", dict, None)
        runs.append(_from_fields(
            RunSpec, entry, where, keys=("method", "iters", "stop", "x0", *quantiles),
            selector=cls(**quantiles), max_iters=_read(entry, where, "iters", int),
            stop=None if stop is None else _from_fields(StopRule, stop, f"{where}.stop"),
            x0=parse_x0(_read(entry, where, "x0", str, "origin"))))
    return _from_fields(ExperimentSpec, data, "spec",
                        keys=("problem", "runs"), problem=problem, runs=runs)


def summary_dict(result: ExperimentResult) -> dict:
    runs = []
    for label, trial in sorted(result.traces):
        trace = result.traces[(label, trial)]
        last = trace.records[-1] if trace.records else None
        runs.append({
            "label": label,
            "trial": trial,
            "seed": derive_seed(result.spec.seed, label, trial),
            "iterations": trace.iterations,
            "termination": trace.termination,
            "records": len(trace.records),
            "final_sq_error": None if last is None else last.sq_error,
            "final_residual_norm": None if last is None else last.residual_norm,
        })
    failures = [{"label": label, "trial": trial, "error": err}
                for (label, trial), err in sorted(result.failures.items())]
    return {
        "schema": "quantile-kaczmarz/experiment-summary/v2",
        "spec": spec_to_dict(result.spec),
        "versions": {
            "quantile_kaczmarz": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "runs": runs,
        "failures": failures,
    }


def emit_artifacts(result: ExperimentResult, outdir) -> dict[str, Path]:
    """Write ``trajectory.csv`` and ``summary.json`` into ``outdir``; returns
    their paths under the keys "trajectory" and "summary".

    The trajectory has one row per trace record, sorted by (label, trial,
    iteration); each trace's columns stream into the file as they are."""
    paths = {"trajectory": Path(outdir) / "trajectory.csv",
             "summary": Path(outdir) / "summary.json"}
    write_csv(paths["trajectory"], TRAJECTORY_COLUMNS, itertools.chain.from_iterable(
        _trajectory_rows(label, trial, result.traces[(label, trial)])
        for label, trial in sorted(result.traces)))
    write_json(paths["summary"], summary_dict(result))
    return paths


def _trajectory_rows(label: str, trial: int, trace: SolveTrace):
    iteration, row, q0, q1, sq_error, residual_norm = trace.columns()
    return zip(itertools.repeat(label), itertools.repeat(trial), iteration, sq_error,
               residual_norm, row, q0, q1)
