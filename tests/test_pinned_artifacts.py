"""Byte-level pin of experiment artifacts.

A spec promises byte-identical artifacts, so any change to the iterate
engine, the quantile partition or the row draw that moves a single chosen
row or a single float shows up here as a changed hash. The spec covers all
five selectors, both x0 policies and both stop rules. If a change is meant
to alter trajectories, re-pin on purpose and record why.
"""

import hashlib
import json

from quantile_kaczmarz import (
    DQRK,
    QRK,
    RK,
    RQRK,
    ExperimentSpec,
    Motzkin,
    RunSpec,
    StopRule,
    emit_artifacts,
    run_experiment,
)
from quantile_kaczmarz.problems import CorruptionSpec, GeneratedSource, ProblemSpec
from quantile_kaczmarz.solver import OnHyperplane

PINNED_SPEC = ExperimentSpec(
    problem=ProblemSpec(source=GeneratedSource("gaussian", 40, 5, seed=7),
                        normalize=True,
                        corruption=CorruptionSpec(beta=0.1, seed=8),
                        solution_seed=9),
    runs=(
        RunSpec("rk", RK(), 60, stop=StopRule(residual_norm=1.6)),
        RunSpec("qrk", QRK(0.8), 200, stop=StopRule(target_sq_error=1e-6),
                x0=OnHyperplane()),
        RunSpec("rqrk", RQRK(0.7), 30),
        RunSpec("dqrk", DQRK(0.3, 0.8), 200, stop=StopRule(residual_norm=1.3),
                x0=OnHyperplane(row=5)),
        RunSpec("motzkin", Motzkin(), 80, stop=StopRule(target_sq_error=1e-3),
                x0=OnHyperplane()),
    ),
    trials=2,
    seed=11,
    record_every=3,
)

TRAJECTORY_SHA256 = "22837749b591a1e8c926913e3a7a1db3b98bf89eb74bff4a165c1d1361d83437"
SUMMARY_SHA256 = "79b8535d26348ee721661a99effcd27640b2cc9f2b0c83528a6064bfdd2d6df6"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pinned_spec_covers_every_selector_x0_and_stop_rule(tmp_path):
    summary = json.loads(
        emit_artifacts(run_experiment(PINNED_SPEC), tmp_path)["summary"].read_text())
    assert {run["method"] for run in summary["spec"]["runs"]} == {
        "rk", "qrk", "rqrk", "dqrk", "motzkin"}
    assert {run["x0"] for run in summary["spec"]["runs"]} == {
        "origin", "hyperplane", "hyperplane:5"}
    assert {run["termination"] for run in summary["runs"]} == {
        "max_iters", "target_sq_error", "residual_norm"}
    assert summary["failures"] == []


def test_artifact_hashes_are_pinned(tmp_path):
    paths = emit_artifacts(run_experiment(PINNED_SPEC), tmp_path)
    summary = json.loads(paths["summary"].read_text())
    del summary["versions"]  # the only field allowed to differ between installs
    summary_bytes = (json.dumps(summary, sort_keys=True, indent=2) + "\n").encode()
    assert sha256(paths["trajectory"].read_bytes()) == TRAJECTORY_SHA256
    assert sha256(summary_bytes) == SUMMARY_SHA256
