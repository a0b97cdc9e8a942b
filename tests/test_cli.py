import csv
import json

import numpy as np
import pytest

from quantile_kaczmarz import save_matrix_market
from quantile_kaczmarz.cli import main


def run_cli(*argv):
    return main(list(argv))


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
        summary = json.load(open(tmp_path / "summary.json"))
        assert summary["runs"][0]["termination"] == "target_sq_error"

    def test_missing_problem_flags_runtime_error(self, tmp_path, capsys):
        code = run_cli("solve", "--method", "rk", "--out", str(tmp_path))
        assert code == 2

    def test_matrix_file_input(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "a.mtx"
        save_matrix_market(path, rng.uniform(0.5, 1.0, size=(20, 3)))
        code = run_cli("solve", "--matrix", str(path), "--normalize",
                       "--method", "motzkin", "--iters", "50",
                       "--out", str(tmp_path / "res"))
        assert code == 0


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
        summary = json.load(open(tmp_path / "out" / "summary.json"))
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
        summary = json.load(open(tmp_path / "out" / "summary.json"))
        assert [r["label"] for r in summary["runs"]] == ["rk"]
        assert [f["label"] for f in summary["failures"]] == ["bad"]
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_missing_spec_file_exits_2(self, tmp_path):
        assert run_cli("experiment", str(tmp_path / "nope.json")) == 2


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
        assert code == 0
        captured = capsys.readouterr()
        assert "ERROR" in captured.err
        assert "ok (" in captured.out


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
