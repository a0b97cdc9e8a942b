"""Tests of the benchmark itself: span arithmetic, patch restoring, output
checks, the BENCHMARK.json metric lists and a tiny run of each workload.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH, ROOT

import run as bench_run
import tracing
from workloads import WORKLOADS, LooDiagnose, Outcome, regenerate, sparse_pm1


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def inner():
        clock.t += 3.0

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.t += 1.0
        inner()
        clock.t += 2.0
        inner()

    tracer.wrap("outer", outer)()
    outer_stats, inner_stats = tracer.spans["outer"], tracer.spans["inner"]
    assert (outer_stats.calls, outer_stats.total_s, outer_stats.self_s) == (1, 9.0, 3.0)
    assert (inner_stats.calls, inner_stats.total_s, inner_stats.self_s) == (2, 6.0, 6.0)
    assert tracer.self_time_sum() == outer_stats.total_s


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.t += 1.0
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans["boom"].total_s == 1.0
    assert tracer._open == [1.0]


def _current_attributes():
    out = []
    for _, module_name, path in tracing.PATCHES:
        owner, attr = tracing._resolve(module_name, path)
        out.append(owner.__dict__[attr])
    return out


def test_patches_are_restored_and_count_calls():
    from quantile_kaczmarz import solver

    before = _current_attributes()
    tracer = tracing.Tracer()
    with tracing.Patched(tracer) as patched:
        assert all(a is not b for a, b in zip(_current_attributes(), before))
        solver.weighted_sample(np.ones(3), np.random.default_rng(0))
    assert patched.restored == len(tracing.PATCHES)
    assert all(a is b for a, b in zip(_current_attributes(), before))
    assert tracer.spans["solver.weighted_sample"].calls == 1


def test_patches_are_restored_after_an_exception():
    before = _current_attributes()
    with pytest.raises(RuntimeError):
        with tracing.Patched(tracing.Tracer()):
            raise RuntimeError
    assert all(a is b for a, b in zip(_current_attributes(), before))


def test_regenerated_problem_matches_the_package():
    from quantile_kaczmarz import spec_from_dict
    from quantile_kaczmarz.harness import problem_for_trial
    from quantile_kaczmarz.problems import generate_system

    spec = spec_from_dict({
        "seed": 5, "trials": 1, "runs": [{"label": "rk", "method": "rk", "iters": 1}],
        "problem": {"source": {"kind": "generated", "dist": "gaussian", "m": 50, "n": 5,
                               "seed": 0}, "normalize": True, "corruption": {"beta": 0.05}}})
    system = generate_system(problem_for_trial(spec, 0))
    mine = regenerate(50, 5, 0.05, 5, 0)
    np.testing.assert_array_equal(mine.support, system.ground_truth.corrupt_support)
    np.testing.assert_array_equal(mine.x_star, system.ground_truth.x_star)
    np.testing.assert_allclose(mine.a, system.A, rtol=1e-15)
    np.testing.assert_allclose(mine.b, system.b, rtol=1e-12)


def test_sparse_matrix_has_lonely_columns():
    a = sparse_pm1(40, 12, 4, np.random.default_rng(3))
    assert np.all(np.count_nonzero(a, axis=1) == 2)
    assert np.all(np.abs(a[a != 0]) == 1.0)
    assert np.all(np.count_nonzero(a[:, :4], axis=0) == 1)
    assert np.all(np.count_nonzero(a[:, 4:], axis=0) >= 1)


def _diagnostics(tmp_path, sparse_sigma, dense_sigma):
    workload = LooDiagnose("tiny")
    workload.dense_bound = 1.0
    rows = [
        {"matrix": "dense", "rows": 60, "cols": 12, "sigma_loo_min": dense_sigma,
         "diagnostic": 0.5, "error": None},
        {"matrix": "sparse", "rows": 40, "cols": 12, "sigma_loo_min": sparse_sigma,
         "diagnostic": 0.5, "error": None},
    ]
    (tmp_path / "diagnostics.json").write_text(json.dumps(rows))
    workload.files = ["dense.mtx", "sparse.mtx"]
    return workload.check(tmp_path)


def test_diagnose_check_accepts_and_rejects(tmp_path):
    assert _diagnostics(tmp_path, 0.0, 0.9).failed == 0
    assert _diagnostics(tmp_path, 1e-9, 0.9).failed == 1
    assert _diagnostics(tmp_path, 0.0, 1.1).failed == 1


def test_threshold_check_counts_misses(tmp_path):
    workload = WORKLOADS["band_threshold"]("tiny")
    rows = [{"label": "dqrk", "iterations": [40], "seconds": [0.1]},
            {"label": "qrk", "iterations": [None], "seconds": [0.1]},
            {"label": "rk", "iterations": [7], "seconds": [0.1]}]
    (tmp_path / "threshold.json").write_text(json.dumps(rows))
    outcome = workload.check(tmp_path)
    assert isinstance(outcome, Outcome)
    assert (outcome.attempted, outcome.failed) == (3, 3)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench_run.per_layer_units()


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0.1",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = bench_run.per_layer_units() if trace == "1" else bench_run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == "1":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self_sum = sum(values[f"{span}.self_s"] for span in tracing.SPAN_NAMES)
        assert self_sum == pytest.approx(values["trace.wall_s"] - values["trace.unspanned_s"],
                                         rel=1e-9)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "loo_diagnose", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
