"""Byte-level contract of the diagnose, bench and threshold tables.

Each table is written through the CLI from fixed inputs, as CSV and as
JSON. The CSV header line is pinned exactly, and so are every cell that
does not hold a wall-clock time; the JSON side pins the key set of each
row and the same non-timing values.
"""

import csv
import json

import numpy as np
import pytest

from quantile_kaczmarz import save_matrix_market
from quantile_kaczmarz.cli import main

DIAGNOSE_HEADER = "matrix,rows,cols,sigma_loo_min,E,error"
DIAGNOSE_KEYS = {"matrix", "rows", "cols", "sigma_loo_min", "diagnostic", "error"}
BENCH_HEADER = "label,iters,seconds_median,seconds_per_iteration"
BENCH_KEYS = {"label", "iters", "seconds", "seconds_median"}
THRESHOLD_HEADER = ("label,threshold,trials,reached_fraction,median_iterations,"
                    "iqr_iterations,median_seconds,iqr_seconds,failed")
THRESHOLD_KEYS = {"label", "threshold", "iterations", "seconds", "failures", "reached_fraction",
                  "median_iterations", "iqr_iterations", "median_seconds", "iqr_seconds"}


def write_both(tmp_path, *argv):
    tables = {}
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        main([*argv, "--out", str(out), "--format", fmt])
        tables[fmt] = next(out.iterdir()).read_text()
    lines = tables["csv"].splitlines()
    return lines[0], list(csv.reader(lines[1:])), json.loads(tables["json"])


def test_diagnose_table(tmp_path):
    path = tmp_path / "stacked.mtx"
    save_matrix_market(path, np.vstack([np.eye(3), np.eye(3)]))
    header, rows, payload = write_both(tmp_path, "diagnose", str(tmp_path / "missing.mtx"),
                                       str(path), "--beta", "0.001")
    assert header == DIAGNOSE_HEADER
    assert rows[0][:5] == ["missing", "", "", "", ""]
    assert rows[0][5].startswith("FileNotFoundError: ")
    assert rows[1][:3] == ["stacked", "6", "3"] and rows[1][5] == ""
    assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-10)
    assert [set(row) for row in payload] == [DIAGNOSE_KEYS] * 2
    assert float(rows[1][4]) == payload[1]["diagnostic"]
    assert [row["rows"] for row in payload] == [None, 6]


def test_bench_table(tmp_path):
    header, rows, payload = write_both(tmp_path, "bench", "--m", "40", "--n", "4",
                                       "--normalize", "--methods", "rk,qrk",
                                       "--iters", "10", "--repeats", "2")
    assert header == BENCH_HEADER
    assert [row[:2] for row in rows] == [["rk", "10"], ["qrk", "10"]]
    for row in rows:
        assert float(row[3]) == pytest.approx(float(row[2]) / 10)
    assert [set(row) for row in payload] == [BENCH_KEYS] * 2
    assert [(row["label"], row["iters"], len(row["seconds"])) for row in payload] == [
        ("rk", 10, 2), ("qrk", 10, 2)]


def test_threshold_table(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "seed": 1, "trials": 2,
        "problem": {"source": {"kind": "generated", "dist": "gaussian", "m": 30, "n": 4}},
        "runs": [{"label": "rk", "method": "rk", "iters": 20},
                 {"label": "band", "method": "dqrk", "q0": 0.3, "q1": 0.8, "iters": 20}],
    }))
    header, rows, payload = write_both(tmp_path, "threshold", str(spec), "--threshold", "1e9")
    assert header == THRESHOLD_HEADER
    assert [row[:6] + row[8:] for row in rows] == [
        ["rk", "1000000000.0", "2", "1.0", "0.0", "0.0", "0"],
        ["band", "1000000000.0", "2", "1.0", "0.0", "0.0", "0"]]
    assert [set(row) for row in payload] == [THRESHOLD_KEYS] * 2
    assert [(row["label"], row["iterations"], row["failures"]) for row in payload] == [
        ("rk", [0, 0], [None, None]), ("band", [0, 0], [None, None])]
