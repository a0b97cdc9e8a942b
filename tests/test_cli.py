import csv
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quantile_kaczmarz import harness, save_matrix_market
from quantile_kaczmarz.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main(list(argv))


def without(*path):
    """A spec edit that deletes the key at the end of ``path``, a path into the spec."""
    def edit(spec):
        for key in path[:-1]:
            spec = spec[key]
        del spec[path[-1]]
    return edit


def src_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH, for a child interpreter."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}


class TestUsageErrors:
    def test_missing_method_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("solve", "--m", "20", "--n", "4")
        assert err.value.code == 1

    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 1


class TestSolve:
    def test_end_to_end(self, tmp_path, capsys):
        code = run_cli(
            "solve", "--m", "60", "--n", "6", "--dist", "gaussian", "--normalize",
            "--method", "dqrk", "--q0", "0.6", "--q1", "0.8",
            "--beta", "0.05", "--iters", "400", "--seed", "5",
            "--threshold", "1e-10", "--record-every", "10",
            "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dqrk trial 0" in out
        with open(tmp_path / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "trajectory should not be empty"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["runs"][0]["termination"] == "target_sq_error"

    def test_missing_problem_flags_runtime_error(self, tmp_path, capsys):
        code = run_cli("solve", "--method", "rk", "--out", str(tmp_path))
        assert code == 2

    def test_negative_beta_exits_2_before_solving(self, tmp_path, capsys):
        code = run_cli("solve", "--m", "20", "--n", "4", "--method", "rk",
                       "--beta", "-0.5", "--out", str(tmp_path))
        assert code == 2
        assert "error: ValueError: beta must be in [0, 1), got -0.5" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_negative_threshold_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kw: solves.append(args))
        code = run_cli("solve", "--m", "40", "--n", "5", "--method", "rqrk", "--q", "0.8",
                       "--iters", "5", "--threshold", "-1", "--out", str(tmp_path))
        assert code == 2
        assert ("error: ValueError: target_sq_error must be >= 0, got -1.0"
                in capsys.readouterr().err)
        assert solves == []
        assert not (tmp_path / "summary.json").exists()

    def test_matrix_file_input(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "a.mtx"
        save_matrix_market(path, rng.uniform(0.5, 1.0, size=(20, 3)))
        code = run_cli("solve", "--matrix", str(path), "--normalize",
                       "--method", "motzkin", "--iters", "50",
                       "--out", str(tmp_path / "res"))
        assert code == 0


class TestErrorLine:
    """Every error that escapes a subcommand prints ``error: <Type>: <message>``."""

    @pytest.mark.parametrize("argv, line", [
        (["solve", "--method", "dqrk", "--m", "40", "--n", "5"],
         "error: InvalidQuantilesError: dqrk needs --q0 and --q1"),
        (["solve", "--method", "rk"],
         "error: QuantileKaczmarzError: either --matrix or both --m and --n are required"),
    ], ids=["dqrk-without-band", "no-problem"])
    def test_package_errors_print_their_type(self, tmp_path, capsys, argv, line):
        assert run_cli(*argv, "--out", str(tmp_path)) == 2
        assert line in capsys.readouterr().err


class TestZeroRowMatrix:
    """A matrix with a zero row fails when its system is built, before any solve,
    whether or not the spec normalizes it."""

    @pytest.fixture
    def matrix(self, tmp_path):
        a = np.random.default_rng(3).uniform(0.5, 1.0, size=(20, 3))
        a[4] = 0.0
        save_matrix_market(tmp_path / "a.mtx", a)
        return tmp_path / "a.mtx"

    def argv(self, command, matrix, normalize, tmp_path):
        if command in ("experiment", "threshold"):
            spec = {"problem": {"source": {"kind": "file", "path": str(matrix)},
                                "normalize": normalize},
                    "runs": [{"label": "rk", "method": "rk", "iters": 10}]}
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(spec))
            return [command, str(spec_path)]
        flags = ["--matrix", str(matrix), "--iters", "10"] + ["--normalize"] * normalize
        if command == "solve":
            return ["solve", *flags, "--method", "rk"]
        return ["bench", *flags, "--methods", "rk", "--repeats", "1"]

    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    @pytest.mark.parametrize("command", ["experiment", "threshold", "solve", "bench"])
    def test_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch, matrix,
                                      command, normalize):
        solves = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kw: solves.append(args))
        out = tmp_path / "out"
        code = run_cli(*self.argv(command, matrix, normalize, tmp_path), "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ZeroRowError: row 4 has norm 0.000e+00" in err
        assert "FAILED" not in err
        assert solves == []
        assert not out.exists()


class TestExperiment:
    def test_spec_file_roundtrip(self, tmp_path, capsys):
        spec = {
            "seed": 9,
            "trials": 2,
            "record_every": 5,
            "problem": {
                "source": {"kind": "generated", "dist": "gaussian", "m": 40, "n": 5},
                "normalize": True,
                "corruption": {"beta": 0.1},
            },
            "runs": [
                {"label": "rk", "method": "rk", "iters": 30},
                {"label": "band", "method": "dqrk", "q0": 0.5, "q1": 0.9, "iters": 30},
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("experiment", str(spec_path), "--out", str(tmp_path / "out"))
        assert code == 0
        assert "4 runs completed" in capsys.readouterr().out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert {r["label"] for r in summary["runs"]} == {"rk", "band"}

    def test_failed_run_exits_2_after_writing_artifacts(self, tmp_path, capsys):
        spec = {
            "seed": 9,
            "trials": 1,
            "problem": {
                "source": {"kind": "generated", "dist": "gaussian", "m": 40, "n": 5},
                "normalize": True,
            },
            "runs": [
                {"label": "rk", "method": "rk", "iters": 30},
                {"label": "bad", "method": "rk", "iters": 30, "x0": "hyperplane:999"},
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("experiment", str(spec_path), "--out", str(tmp_path / "out"))
        assert code == 2
        captured = capsys.readouterr()
        assert "1 runs completed, 1 failed" in captured.out
        assert "bad trial 0: FAILED" in captured.err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [r["label"] for r in summary["runs"]] == ["rk"]
        assert [f["label"] for f in summary["failures"]] == ["bad"]
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_missing_spec_file_exits_2(self, tmp_path):
        assert run_cli("experiment", str(tmp_path / "nope.json")) == 2

    @pytest.mark.parametrize("edit,message", [
        (lambda s: s["problem"].update(normalize="false"),
         "'normalize' must be true or false, got 'false' in problem"),
        (lambda s: s.update(fresh_problem_per_trial=1),
         "'fresh_problem_per_trial' must be true or false, got 1 in spec"),
        (lambda s: s.update(trials=2.7), "'trials' must be an integer, got 2.7 in spec"),
        (lambda s: s.update(seed=True), "'seed' must be an integer, got True in spec"),
        (lambda s: s["problem"]["source"].update(m=40.5),
         "'m' must be an integer, got 40.5 in problem.source"),
        (lambda s: s["runs"].append({"label": "bad", "method": "rk", "iters": -1}),
         "run 'bad': iters must be >= 0, got -1"),
        (lambda s: s["runs"].append({"label": "q", "method": "qrk", "q": "0.8", "iters": 30}),
         "'q' must be a number, got '0.8' in runs[1]"),
        (lambda s: s["problem"].update(corruption={"beta": "0.1"}),
         "'beta' must be a number, got '0.1' in problem.corruption"),
        (lambda s: s["runs"][0].update(label=5), "'label' must be a string, got 5 in runs[0]"),
        (lambda s: s["runs"][0].update(method=5), "'method' must be a string, got 5 in runs[0]"),
        (lambda s: s["runs"][0].update(stop={"target_sq_error": "1e-8"}),
         "'target_sq_error' must be a number, got '1e-8' in runs[0].stop"),
        (lambda s: s["runs"].append({"label": "d", "method": "dqrk", "q0": True, "q1": 0.8,
                                     "iters": 30}),
         "'q0' must be a number, got True in runs[1]"),
        (lambda s: s["runs"][0].update(x0=None), "'x0' must be a string, got None in runs[0]"),
        (lambda s: s["problem"].update(source={"kind": "file", "path": 5}),
         "'path' must be a string, got 5 in problem.source"),
        (lambda s: s["problem"]["source"].update(kind="files"), "unknown source kind 'files' in problem.source"),
        (lambda s: [1, 2], "'spec' must be an object, got [1, 2] in file"),
        (lambda s: s.update(problem=[]), "'problem' must be an object, got [] in spec"),
        (lambda s: s["problem"].update(source="gaussian"),
         "'source' must be an object, got 'gaussian' in problem"),
        (lambda s: s["problem"].update(corruption=0.1),
         "'corruption' must be an object, got 0.1 in problem"),
        (lambda s: s["runs"][0].update(stop=1e-8),
         "'stop' must be an object, got 1e-08 in runs[0]"),
        (lambda s: s.update(runs={"label": "rk", "method": "rk", "iters": 30}),
         "'runs' must be a list, got {'label': 'rk', 'method': 'rk', 'iters': 30} in spec"),
        (lambda s: s["runs"].append("rk"), "'runs[1]' must be an object, got 'rk' in runs"),
        (lambda s: s["runs"][0].update(x0="hyperplane:1.5"),
         "'x0' must be \"origin\", \"hyperplane\" or \"hyperplane:<row>\" with a row >= 0, "
         "got 'hyperplane:1.5'"),
        (lambda s: s["runs"][0].update(x0="hyperplane:-2"),
         "'x0' must be \"origin\", \"hyperplane\" or \"hyperplane:<row>\" with a row >= 0, "
         "got 'hyperplane:-2'"),
        (lambda s: s.update(trails=9), "unknown key 'trails' in spec"),
        (lambda s: s.update(record_evry=5), "unknown key 'record_evry' in spec"),
        (lambda s: s["problem"].update(normalise=False), "unknown key 'normalise' in problem"),
        (lambda s: s["problem"]["source"].update(sed=3), "unknown key 'sed' in problem.source"),
        (lambda s: s["problem"].update(source={"kind": "file", "path": "a.mtx", "seed": 3}),
         "unknown key 'seed' in problem.source"),
        (lambda s: s["problem"].update(corruption={"beta": 0.1, "scal": 2}),
         "unknown key 'scal' in problem.corruption"),
        (lambda s: s["runs"][0].update(itres=5), "unknown key 'itres' in runs[0]"),
        (lambda s: s["runs"][0].update(stop={"target_sq_eror": 1e-8}),
         "unknown key 'target_sq_eror' in runs[0].stop"),
        (lambda s: s["runs"][0].update(q=0.8), "unknown key 'q' in runs[0]"),
        (lambda s: s["runs"].append({"label": "q", "method": "qrk", "q": 0.8, "q0": 0.6,
                                     "iters": 30}),
         "unknown key 'q0' in runs[1]"),
        (without("problem"), "missing key 'problem' in spec"),
        (without("problem", "source"), "missing key 'source' in problem"),
        (without("problem", "source", "dist"), "missing key 'dist' in problem.source"),
        (without("problem", "source", "m"), "missing key 'm' in problem.source"),
        (without("problem", "source", "n"), "missing key 'n' in problem.source"),
        (lambda s: s["problem"].update(source={"kind": "file"}),
         "missing key 'path' in problem.source"),
        (lambda s: s["problem"].update(corruption={"scale": 2.0}),
         "missing key 'beta' in problem.corruption"),
        (without("runs"), "missing key 'runs' in spec"),
        (without("runs", 0, "label"), "missing key 'label' in runs[0]"),
        (without("runs", 0, "method"), "missing key 'method' in runs[0]"),
        (without("runs", 0, "iters"), "missing key 'iters' in runs[0]"),
        (lambda s: s["runs"].append({"label": "q", "method": "qrk", "iters": 30}),
         "missing key 'q' in runs[1]"),
        (lambda s: s["runs"].append({"label": "d", "method": "dqrk", "q1": 0.8, "iters": 30}),
         "missing key 'q0' in runs[1]"),
        (lambda s: s["runs"][0].update(label="problem/matrix:0"),
         "run label 'problem/matrix:0' is reserved"),
        (lambda s: s["runs"].append({"label": "k", "method": "kaczmarz", "iters": 30}),
         "unknown method 'kaczmarz' in runs[1]"),
        (lambda s: s.update(workers=4), "unknown key 'workers' in spec"),
        (lambda s: s.update(outputs=["summary"]), "unknown key 'outputs' in spec"),
        (lambda s: s.update(record_every=None),
         "'record_every' must be an integer, got None in spec"),
        (lambda s: s["runs"][0].update(stop={"residual_norm": -1}),
         "residual_norm must be >= 0, got -1.0"),
    ], ids=["normalize-string", "fresh-int", "trials-fraction", "seed-bool", "m-fraction",
            "negative-iters-after-valid-run", "q-string", "beta-string", "label-int",
            "method-int", "stop-string", "q0-bool", "x0-null", "path-int", "unknown-kind",
            "spec-list", "problem-list", "source-string", "corruption-number", "stop-number",
            "runs-object", "run-string", "x0-fraction-row", "x0-negative-row", "spec-typo",
            "record-every-typo", "problem-typo", "source-typo", "file-source-seed",
            "corruption-typo", "run-typo", "stop-typo", "rk-with-q", "qrk-with-q0",
            "no-problem", "no-source", "no-dist", "no-m", "no-n", "no-path", "no-beta",
            "no-runs", "no-label", "no-method", "no-iters", "qrk-no-q", "dqrk-no-q0",
            "reserved-label", "unknown-method", "workers", "outputs", "record-every-null",
            "stop-negative"])
    def test_bad_spec_value_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                     edit, message):
        solves = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kw: solves.append(args))
        spec = {
            "seed": 9,
            "problem": {
                "source": {"kind": "generated", "dist": "gaussian", "m": 40, "n": 5},
                "normalize": True,
            },
            "runs": [{"label": "rk", "method": "rk", "iters": 30}],
        }
        spec = edit(spec) or spec  # an edit changes the spec in place or returns a new one
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("experiment", str(spec_path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert f"error: ValueError: {message}" in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "out").exists()


class TestDiagnose:
    def test_table_and_stdout(self, tmp_path, capsys):
        path = tmp_path / "stacked.mtx"
        save_matrix_market(path, np.vstack([np.eye(3), np.eye(3)]))
        code = run_cli("diagnose", str(path), "--q0", "0.6", "--q1", "0.8",
                       "--beta", "0.001", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "stacked (6x3)" in out
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["matrix"] == "stacked"

    def test_bad_file_reported_not_fatal(self, tmp_path, capsys):
        good = tmp_path / "ok.mtx"
        save_matrix_market(good, np.vstack([np.eye(2), np.eye(2)]))
        code = run_cli("diagnose", str(tmp_path / "missing.mtx"), str(good),
                       "--out", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert "missing: FAILED FileNotFoundError" in captured.err
        assert "ok (" in captured.out
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["matrix"] for r in rows] == ["missing", "ok"]

    def test_eigensolve_failure_is_a_failed_row(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        path = tmp_path / "stacked.mtx"
        save_matrix_market(path, np.vstack([np.eye(3), np.eye(3)]))
        assert run_cli("diagnose", str(path), "--out", str(tmp_path)) == 2
        error = "LinAlgError: Eigenvalues did not converge"
        assert f"stacked: FAILED {error}" in capsys.readouterr().err
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] == error

    def test_runs_no_svd(self, tmp_path, capsys, svd_fails):
        stacked, lonely = tmp_path / "stacked.mtx", tmp_path / "lonely.mtx"
        save_matrix_market(stacked, np.vstack([np.eye(3), np.eye(3)]))
        save_matrix_market(lonely, np.vstack([np.eye(3), np.eye(3)[:2]]))
        assert run_cli("diagnose", str(stacked), str(lonely), "--out", str(tmp_path)) == 0
        with open(tmp_path / "diagnostics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == ["", ""]
        assert float(rows[0]["sigma_loo_min"]) == pytest.approx(1.0, abs=1e-10)
        assert rows[1]["sigma_loo_min"] == "0.0"


# Runs the CLI in a child whose address space is capped 4 GiB above its size
# after start-up, so a dense matrix of terabytes raises MemoryError under any
# overcommit policy.
_CAPPED_CLI = """
import resource, sys
from quantile_kaczmarz.cli import main
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
cap = (kib << 10) + (4 << 30)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's RLIMIT_AS")
def test_matrix_too_large_to_densify_exits_2(tmp_path):
    huge, good = tmp_path / "huge.mtx", tmp_path / "ok.mtx"
    huge.write_text("%%MatrixMarket matrix coordinate real general\n1000000 1000000 1\n1 1 1.0\n")
    save_matrix_market(good, np.vstack([np.eye(2), np.eye(2)]))

    def capped(*argv):
        return subprocess.run([sys.executable, "-c", _CAPPED_CLI, *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)

    proc = capped("diagnose", str(huge), str(good), "--out", str(tmp_path / "diagnose"))
    assert proc.returncode == 2, proc.stderr
    assert "huge: FAILED MemoryError" in proc.stderr
    with open(tmp_path / "diagnose" / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["matrix"], r["rows"]) for r in rows] == [("huge", ""), ("ok", "4")]

    proc = capped("solve", "--matrix", str(huge), "--method", "rk", "--iters", "5",
                  "--out", str(tmp_path / "solve"))
    assert proc.returncode == 2, proc.stderr
    assert "error: MemoryError: " in proc.stderr
    assert not (tmp_path / "solve").exists()


class TestBenchAndThreshold:
    def test_bench(self, tmp_path, capsys):
        code = run_cli("bench", "--m", "150", "--n", "15", "--dist", "uniform",
                       "--normalize", "--beta", "0.05",
                       "--iters", "100", "--repeats", "2", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "dqrk/qrk wall-clock ratio" in out
        with open(tmp_path / "bench.csv") as fh:
            labels = [r["label"] for r in csv.DictReader(fh)]
        assert labels == ["qrk", "dqrk"]

    def test_bench_zero_repeats_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kw: solves.append(args))
        code = run_cli("bench", "--m", "40", "--n", "4", "--iters", "10", "--repeats", "0",
                       "--out", str(tmp_path))
        assert code == 2
        assert "error: ValueError: trials must be >= 1" in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "bench.csv").exists()

    def test_nan_threshold_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(harness, "solve", lambda *args, **kw: solves.append(args))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "seed": 3,
            "problem": {"source": {"kind": "generated", "dist": "gaussian", "m": 40, "n": 5}},
            "runs": [{"label": "qrk", "method": "qrk", "q": 0.8, "iters": 50}],
        }))
        code = run_cli("threshold", str(spec_path), "--threshold", "nan",
                       "--out", str(tmp_path / "out"))
        assert code == 2
        assert "error: ValueError: target_sq_error must be >= 0, got nan" in capsys.readouterr().err
        assert solves == []
        assert not (tmp_path / "out").exists()

    def test_threshold(self, tmp_path, capsys):
        spec = {
            "seed": 3,
            "trials": 2,
            "problem": {
                "source": {"kind": "generated", "dist": "gaussian", "m": 60, "n": 5},
                "normalize": True,
            },
            "runs": [{"label": "rqrk", "method": "rqrk", "q": 0.8, "iters": 5000}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = run_cli("threshold", str(spec_path), "--threshold", "1e-6",
                       "--out", str(tmp_path))
        assert code == 0
        assert "reached 100%" in capsys.readouterr().out
        with open(tmp_path / "threshold.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["label"] == "rqrk"
        assert float(rows[0]["reached_fraction"]) == 1.0

    def test_threshold_failed_run_exits_2_after_writing_table(self, tmp_path, capsys):
        spec = {
            "seed": 3,
            "trials": 2,
            "problem": {"source": {"kind": "generated", "dist": "gaussian", "m": 50, "n": 5}},
            "runs": [{"label": "qrk", "method": "qrk", "q": 0.8, "iters": 2000},
                     {"label": "rqrk", "method": "rqrk", "q": 0.001, "iters": 2000}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        for fmt in ("csv", "json"):
            code = run_cli("threshold", str(spec_path), "--threshold", "1e-6",
                           "--out", str(tmp_path / fmt), "--format", fmt)
            assert code == 2
            err = capsys.readouterr().err
            assert "rqrk trial 0: FAILED InvalidQuantilesError" in err
            assert "rqrk trial 1: FAILED InvalidQuantilesError" in err
            assert not any(line.startswith("qrk ") for line in err.splitlines())
        with open(tmp_path / "csv" / "threshold.csv") as fh:
            rows = {r["label"]: r for r in csv.DictReader(fh)}
        assert (rows["qrk"]["trials"], rows["qrk"]["failed"]) == ("2", "0")
        assert (rows["rqrk"]["trials"], rows["rqrk"]["failed"]) == ("2", "2")
        assert float(rows["rqrk"]["reached_fraction"]) == 0.0
        table = {r["label"]: r
                 for r in json.loads((tmp_path / "json" / "threshold.json").read_text())}
        assert table["qrk"]["failures"] == [None, None]
        assert table["rqrk"]["iterations"] == [None, None]
        assert all(e.startswith("InvalidQuantilesError: rqrk needs 1/m <= q")
                   for e in table["rqrk"]["failures"])


def test_json_artifacts_are_sorted_and_indented(tmp_path):
    # the layout as written: sorted keys, two-space indents, one final newline
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "seed": 3,
        "problem": {"source": {"kind": "generated", "dist": "gaussian", "m": 40, "n": 5}},
        "runs": [{"label": "rqrk", "method": "rqrk", "q": 0.8, "iters": 50}],
    }))
    matrix = tmp_path / "stacked.mtx"
    save_matrix_market(matrix, np.vstack([np.eye(3), np.eye(3)]))
    out = str(tmp_path / "out")
    assert run_cli("experiment", str(spec_path), "--out", out) == 0
    assert run_cli("threshold", str(spec_path), "--format", "json", "--out", out) == 0
    assert run_cli("diagnose", str(matrix), "--beta", "0.001", "--format", "json",
                   "--out", out) == 0
    assert run_cli("bench", "--m", "40", "--n", "4", "--iters", "10", "--repeats", "1",
                   "--format", "json", "--out", out) == 0
    for name in ("summary.json", "threshold.json", "diagnostics.json", "bench.json"):
        text = (tmp_path / "out" / name).read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


class TestEmptyBand:
    """A dqrk band that holds no row of m fails like an out-of-range rqrk q.

    DQRK(0.3, 0.35) on 4 rows has round(0.3*4) == round(0.35*4) == 1.
    """

    PROBLEM = {"source": {"kind": "generated", "dist": "gaussian", "m": 4, "n": 2}}
    RUNS = [{"label": "band", "method": "dqrk", "q0": 0.3, "q1": 0.35, "iters": 20}]
    FAILED = "FAILED InvalidQuantilesError: admissible block is empty"

    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"seed": 1, "trials": 2, "problem": self.PROBLEM,
                                    "runs": self.RUNS}))
        return path

    def assert_failed_artifacts(self, out, err, label):
        assert f"{label} trial 0: {self.FAILED}" in err
        assert f"{label} trial 1: {self.FAILED}" in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"] == []
        assert [(f["label"], f["trial"]) for f in summary["failures"]] == [
            (label, 0), (label, 1)]
        assert (out / "trajectory.csv").exists()

    def test_solve_exits_2(self, tmp_path, capsys):
        code = run_cli("solve", "--m", "4", "--n", "2", "--method", "dqrk",
                       "--q0", "0.3", "--q1", "0.35", "--iters", "20", "--trials", "2",
                       "--out", str(tmp_path))
        assert code == 2
        self.assert_failed_artifacts(tmp_path, capsys.readouterr().err, "dqrk")

    def test_experiment_exits_2(self, tmp_path, capsys):
        code = run_cli("experiment", str(self.spec_path(tmp_path)),
                       "--out", str(tmp_path / "out"))
        assert code == 2
        captured = capsys.readouterr()
        assert "0 runs completed, 2 failed" in captured.out
        self.assert_failed_artifacts(tmp_path / "out", captured.err, "band")

    def test_threshold_counts_failures_not_censored(self, tmp_path, capsys):
        code = run_cli("threshold", str(self.spec_path(tmp_path)),
                       "--out", str(tmp_path))
        assert code == 2
        assert f"band trial 1: {self.FAILED}" in capsys.readouterr().err
        with open(tmp_path / "threshold.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["trials"], row["failed"]) == ("2", "2")

    def test_bench_exits_2_without_a_ratio(self, tmp_path, capsys):
        code = run_cli("bench", "--m", "4", "--n", "2", "--q0", "0.3", "--q1", "0.35",
                       "--methods", "qrk,dqrk", "--iters", "10", "--repeats", "1",
                       "--out", str(tmp_path))
        assert code == 2
        captured = capsys.readouterr()
        assert f"dqrk trial 0: {self.FAILED}" in captured.err
        with open(tmp_path / "bench.csv") as fh:
            assert [row["label"] for row in csv.DictReader(fh)] == ["qrk"]
        assert "dqrk/qrk wall-clock ratio" not in captured.out


class TestBenchMethods:
    @pytest.mark.parametrize("methods, message", [
        (",", "at least one run is required"),
        ("qrk,qrk", "run labels must be unique"),
    ])
    def test_bad_method_list_exits_2_before_writing(self, tmp_path, capsys,
                                                    methods, message):
        code = run_cli("bench", "--m", "40", "--n", "4", "--methods", methods,
                       "--iters", "10", "--repeats", "1", "--out", str(tmp_path))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "bench.csv").exists()


class TestEntryPoint:
    def test_console_script_names_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["qkaczmarz"]
        assert target == "quantile_kaczmarz.cli:main"
        module, attr = target.split(":")
        assert getattr(importlib.import_module(module), attr) is main

    def test_module_runs_as_a_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "quantile_kaczmarz.cli", "solve", "--m", "40", "--n", "5",
             "--method", "rk", "--iters", "5", "--out", str(tmp_path)],
            env=src_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert sorted(f.name for f in tmp_path.iterdir()) == ["summary.json", "trajectory.csv"]


# Runs each subcommand in turn in one fresh interpreter and prints, per
# subcommand, its exit code and whether scipy.linalg and numpy.ma were loaded
# after it.
_IMPORT_PROBE = """
import json, sys
from quantile_kaczmarz.cli import main
tmp, commands = sys.argv[1], json.loads(sys.argv[2])
seen = {}
for name, argv in commands:
    code = main(argv + ["--out", f"{tmp}/{name}"])
    seen[name] = [code, "scipy.linalg" in sys.modules, "numpy.ma" in sys.modules]
print(json.dumps(seen))
"""


def test_no_subcommand_loads_scipy_linalg(tmp_path):
    # the test process cannot answer this: test_spectral.py imports scipy.linalg
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "seed": 1, "trials": 1,
        "problem": {"source": {"kind": "generated", "dist": "gaussian", "m": 30, "n": 4}},
        "runs": [{"label": "dqrk", "method": "dqrk", "q0": 0.5, "q1": 0.9, "iters": 50}],
    }))
    # the stacked identity takes the secular path; column 0 of "lonely" is
    # touched by row 0 alone, a structural zero with no eigensolve; "rankdef"
    # has rank 2 and three nonzeros in every column, so each of its rows'
    # deletions is eigensolved on its own
    stacked, lonely = tmp_path / "stacked.mtx", tmp_path / "lonely.mtx"
    rankdef = tmp_path / "rankdef.mtx"
    save_matrix_market(stacked, np.vstack([np.eye(3), np.eye(3)]))
    save_matrix_market(lonely, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                         [0.0, 1.0, -1.0], [0.0, 1.0, 0.0]]))
    save_matrix_market(rankdef, np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                          [1.0, 2.0, 1.0], [1.0, 0.0, -1.0]]))
    commands = [
        ["threshold", ["threshold", str(spec), "--threshold", "1e-6"]],
        ["experiment", ["experiment", str(spec)]],
        ["solve", ["solve", "--m", "30", "--n", "4", "--method", "rk", "--iters", "20"]],
        ["bench", ["bench", "--m", "30", "--n", "4", "--iters", "20", "--repeats", "1"]],
        ["diagnose", ["diagnose", str(stacked), str(lonely), str(rankdef),
                      "--format", "json"]],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path), json.dumps(commands)],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "threshold": [0, False, False], "experiment": [0, False, False],
        "solve": [0, False, False], "bench": [0, False, False],
        "diagnose": [0, False, False]}
    table = json.loads((tmp_path / "diagnose" / "diagnostics.json").read_text())
    sigma_loo = {row["matrix"]: row["sigma_loo_min"] for row in table}
    assert sigma_loo == {"stacked": pytest.approx(1.0, rel=1e-12), "lonely": 0.0,
                         "rankdef": pytest.approx(0.0, abs=1e-7)}
