"""The three benchmark workloads: inputs, command lines and output checks.

Every workload has a ``name`` and a ``why``; ``prepare(inputs, seed)``
writes its inputs (an experiment spec or Matrix Market files) from the
workload seed; ``warmup_argv(out)`` and ``argv(out)`` name the warm-up and
the measured ``qkaczmarz`` command lines; ``check(out)`` reads the measured
call's outputs into an ``Outcome`` without calling the package: problems
are regenerated here from the documented recipe (SHA-256 seed derivation,
PCG64 draws) and checked with plain numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import METHODS

TARGET_SQ_ERROR = 1e-8
# The replayed iterate uses a row dot product where the package uses a
# matrix-vector product, so the two final errors differ in rounding only.
REPLAY_RTOL = 1e-6
# The package's leave-one-out values come from Gram eigensolves, documented
# as accurate to about 1e-8 relative.
SPECTRAL_RTOL = 1e-8
LEVERAGE_ROWS_CHECKED = 4


@dataclass
class Outcome:
    """What one call's outputs showed.

    ``ops`` names the call's operations: one per solve, (label, trial), or
    one per diagnosed file. ``work`` counts the call's inner-loop iterations
    (solver iterations, or leave-one-out rows); ``counts`` holds per-layer
    counts read from the outputs; ``problems`` says why operations failed.
    """

    ops: list
    work: int = 0
    counts: dict[str, float] = field(default_factory=dict)
    facts: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    failed_ops: set = field(default_factory=set)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, ops, why: str) -> None:
        self.failed_ops.update(ops)
        self.problems.append(why)

    def fail_all(self, why: str) -> None:
        self.fail(self.ops, why)


# --------------------------------------------------------------------------
# independent regeneration of the package's generated problems


def derive_seed(master: int, label: str, trial: int) -> int:
    digest = hashlib.sha256(f"{master}\x1f{label}\x1f{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _normalized(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1)[:, None]


@dataclass(frozen=True)
class Problem:
    a: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    support: np.ndarray


def regenerate(m: int, n: int, beta: float, master: int, trial: int) -> Problem:
    """A row-normalized Gaussian system with uniform(0, 1) corruption, as the
    harness builds trial ``trial`` of a spec whose base seeds are all 0."""
    a = _normalized(_rng(derive_seed(master, "problem/matrix:0", trial)).normal(size=(m, n)))
    x_star = _rng(derive_seed(master, "problem/solution:0", trial)).normal(size=n)
    b = a @ x_star
    count = math.floor(beta * m + 0.5)
    rng = _rng(derive_seed(master, "problem/corruption:0", trial))
    support = np.sort(rng.choice(m, size=count, replace=False))
    b[support] += rng.uniform(0.0, 1.0, size=count)
    return Problem(a=a, b=b, x_star=x_star, support=support)


# --------------------------------------------------------------------------
# input files


def write_json(path: Path, data) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def write_mtx_array(path: Path, a: np.ndarray) -> Path:
    m, n = a.shape
    lines = ["%%MatrixMarket matrix array real general", f"{m} {n}"]
    lines += map(repr, a.T.ravel().tolist())  # column-major
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_mtx_coordinate(path: Path, a: np.ndarray) -> Path:
    m, n = a.shape
    rows, cols = np.nonzero(a)
    lines = ["%%MatrixMarket matrix coordinate real general", f"{m} {n} {rows.size}"]
    lines += [f"{i + 1} {j + 1} {float(a[i, j])!r}" for i, j in zip(rows.tolist(), cols.tolist())]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def sparse_pm1(m: int, n: int, lonely: int, rng: np.random.Generator) -> np.ndarray:
    """m x n with two +-1 entries per row. The first ``lonely`` columns each
    appear in exactly one row, so deleting that row leaves a zero column;
    every other column appears at least once."""
    shared = np.arange(lonely, n)
    deal = rng.permutation(shared)
    if deal.size % 2:
        deal = np.append(deal, rng.choice(deal[:-1]))
    pairs = [deal[k:k + 2] for k in range(0, deal.size, 2)]  # every shared column once
    pairs += [rng.choice(shared, size=2, replace=False) for _ in range(m - lonely - len(pairs))]
    pairs += [[k, rng.choice(shared)] for k in range(lonely)]  # lonely column k, one row
    a = np.zeros((m, n))
    for i, cols in zip(rng.permutation(m).tolist(), pairs):
        a[i, cols] = rng.choice([-1.0, 1.0], size=2)
    assert np.all(np.count_nonzero(a, axis=0)[:lonely] == 1)
    assert np.all(np.count_nonzero(a[:, lonely:], axis=0) >= 1)
    return a


# --------------------------------------------------------------------------
# output helpers


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _run_entry(label, method, iters, **extra) -> dict:
    return {"label": label, "method": method, "iters": iters, **extra}


def _generated_spec(seed, m, n, trials, runs, **extra) -> dict:
    return {
        "seed": seed,
        "trials": trials,
        "problem": {
            "source": {"kind": "generated", "dist": "gaussian", "m": m, "n": n, "seed": 0},
            "normalize": True,
            "corruption": {"beta": 0.05},
        },
        "runs": runs,
        **extra,
    }


# --------------------------------------------------------------------------
# workloads


class BandThreshold:
    name = "band_threshold"
    why = ("criterion 4's 2500x250 shape with recording off: quantile partition and "
           "residual matvec carry the time; rk covers the no-residual fast path")
    SIZES = {"full": (2500, 250, 20_000), "tiny": (200, 20, 2_000)}
    CAP = 80_000  # the iteration cap criterion 4 uses

    def __init__(self, size: str = "full"):
        self.m, self.n, self.rk_cap = self.SIZES[size]
        self.caps = {"dqrk": self.CAP, "qrk": self.CAP, "rk": self.rk_cap}

    def _runs(self, caps) -> list[dict]:
        return [_run_entry("dqrk", "dqrk", caps["dqrk"], q0=0.6, q1=0.8),
                _run_entry("qrk", "qrk", caps["qrk"], q=0.8),
                _run_entry("rk", "rk", caps["rk"])]

    def prepare(self, inputs, seed):
        self.spec = write_json(inputs / "threshold.json", _generated_spec(
            seed, self.m, self.n, 1, self._runs(self.caps), fresh_problem_per_trial=True))
        self.warm_spec = write_json(inputs / "warmup.json", _generated_spec(
            seed, 60, 6, 1, self._runs({"dqrk": 2000, "qrk": 2000, "rk": 200})))

    def _cmd(self, spec, out):
        return ["threshold", str(spec), "--threshold", repr(TARGET_SQ_ERROR),
                "--format", "json", "--out", str(out)]

    def warmup_argv(self, out):
        return self._cmd(self.warm_spec, out)

    def argv(self, out):
        return self._cmd(self.spec, out)

    def check(self, out):
        result = Outcome(ops=[(label, 0) for label in self.caps])
        try:
            rows = {r["label"]: r for r in json.loads((out / "threshold.json").read_text())}
            iters = {label: rows[label]["iterations"] for label in self.caps}
            secs = {label: rows[label]["seconds"] for label in self.caps}
            if any(len(v) != 1 for v in iters.values()):
                raise ValueError(f"expected one trial per run, got {iters}")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.fail_all(f"threshold.json unreadable: {exc!r}")
            return result
        for label, values in iters.items():
            result.work += sum(self.caps[label] if i is None else i for i in values)
            reached = [i for i in values if i is not None]
            result.counts[f"solver.reached_frac.{label}"] = len(reached) / len(values)
            if label == "rk":
                if reached:
                    result.fail([("rk", 0)], f"rk reached {TARGET_SQ_ERROR} in {reached}")
                continue
            result.counts[f"solver.iters_to_tol_median.{label}"] = _median(reached)
            if len(reached) < len(values):
                result.fail([(label, 0)], f"{label} missed {TARGET_SQ_ERROR}")
        ratio = (result.counts["solver.iters_to_tol_median.dqrk"]
                 / max(result.counts["solver.iters_to_tol_median.qrk"], 1.0))
        result.facts["criterion4_ratio"] = ratio
        if ratio > 0.7:
            result.fail([("dqrk", 0)], f"dqrk/qrk median-iteration ratio {ratio} > 0.7")
        dqrk_secs = [s for s, i in zip(secs["dqrk"], iters["dqrk"]) if i is not None]
        result.facts["time_to_tol_s"] = _median(dqrk_secs)
        return result


class RecordedExperiment:
    name = "recorded_experiment"
    why = ("all five selectors with a trace record every iteration on one shared "
           "1000x100 matrix: trace bookkeeping and artifact writing show up")
    SIZES = {"full": (1000, 100, 2, 3_000), "tiny": (100, 10, 2, 300)}
    CAP = 80_000

    def __init__(self, size: str = "full"):
        self.m, self.n, self.trials, self.cap = self.SIZES[size]
        self._verified_fingerprint = None

    def _runs(self, cap, stop_cap) -> list[dict]:
        stop = {"target_sq_error": TARGET_SQ_ERROR}
        return [_run_entry("rk", "rk", cap),
                _run_entry("qrk", "qrk", stop_cap, q=0.8, stop=stop),
                _run_entry("rqrk", "rqrk", cap, q=0.8),
                _run_entry("dqrk", "dqrk", stop_cap, q0=0.6, q1=0.8, stop=stop, x0="hyperplane"),
                _run_entry("motzkin", "motzkin", cap)]

    def prepare(self, inputs, seed):
        self.seed = seed
        extra = {"record_every": 1, "fresh_problem_per_trial": False}
        self.spec_data = _generated_spec(seed, self.m, self.n, self.trials,
                                         self._runs(self.cap, self.CAP), **extra)
        self.spec = write_json(inputs / "experiment.json", self.spec_data)
        self.warm_spec = write_json(inputs / "warmup.json", _generated_spec(
            seed, 40, 5, 1, self._runs(100, 2000), **extra))
        self.problem = regenerate(self.m, self.n, 0.05, seed, 0)

    def warmup_argv(self, out):
        return ["experiment", str(self.warm_spec), "--out", str(out)]

    def argv(self, out):
        return ["experiment", str(self.spec), "--out", str(out)]

    def check(self, out):
        runs = self.spec_data["runs"]
        result = Outcome(ops=[(r["label"], t) for r in runs for t in range(self.trials)])
        try:
            traj_bytes = (out / "trajectory.csv").read_bytes()
            summary = json.loads((out / "summary.json").read_text())
            with open(out / "trajectory.csv", newline="") as fh:
                table = list(csv.DictReader(fh))
            records = {(r["label"], r["trial"]): r for r in summary["runs"]}
            record_total = sum(r["records"] for r in summary["runs"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.fail_all(f"artifacts unreadable: {exc!r}")
            return result

        summary.pop("versions", None)
        fingerprint = [hashlib.sha256(traj_bytes).hexdigest(),
                       hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()]
        result.facts["fingerprint"] = {"trajectory_csv": fingerprint[0],
                                       "summary_json": fingerprint[1]}
        result.counts["harness.artifact_bytes"] = (
            len(traj_bytes) + (out / "summary.json").stat().st_size)
        result.counts["harness.trajectory_rows"] = len(table)
        result.work = sum(r["iterations"] for r in summary["runs"])

        for failure in summary["failures"]:
            result.fail([(failure["label"], failure["trial"])],
                        f"{failure['label']} trial {failure['trial']}: {failure['error']}")
        if len(table) != record_total:
            result.fail_all(f"trajectory has {len(table)} rows, summary counts {record_total}")
            return result

        by_run: dict[tuple[str, int], list[dict]] = {}
        for row in table:
            by_run.setdefault((row["label"], int(row["trial"])), []).append(row)
        self._count_mechanism(result, by_run)

        stop_runs = [r for r in runs if "stop" in r]
        for run in stop_runs:
            reached = []
            for trial in range(self.trials):
                entry = records.get((run["label"], trial))
                if entry is None:
                    continue  # already counted as a captured failure
                if entry["termination"] == "target_sq_error":
                    reached.append(entry["iterations"])
            result.counts[f"solver.reached_frac.{run['label']}"] = len(reached) / self.trials
            result.counts[f"solver.iters_to_tol_median.{run['label']}"] = _median(reached)

        if self._verified_fingerprint is not None:
            if self._verified_fingerprint != fingerprint:
                result.fail_all("artifacts differ from the first call's")
            return result
        replayed = result.facts["replayed_final_sq_error"] = {}
        for run in stop_runs:
            for trial in range(self.trials):
                rows = by_run.get((run["label"], trial))
                if rows is None:
                    continue
                err = replayed[f"{run['label']}/{trial}"] = self._replay(run, trial, rows)
                if not err <= TARGET_SQ_ERROR * (1 + REPLAY_RTOL):
                    result.fail([(run["label"], trial)], f"{run['label']} trial {trial}: replayed final "
                                   f"squared error {err!r} > {TARGET_SQ_ERROR}")
        if not result.failed:
            self._verified_fingerprint = fingerprint
        return result

    def _count_mechanism(self, result: Outcome, by_run) -> None:
        """Corrupted-row hit rate and mean quantile thresholds per method."""
        support = set(self.problem.support.tolist())
        for method in METHODS:
            chosen, q0, q1 = [], [], []
            for (label, _), rows in by_run.items():
                if label != method:
                    continue
                chosen += [int(r["chosen_row"]) for r in rows if r["chosen_row"]]
                q0 += [float(r["Q0"]) for r in rows if r["Q0"]]
                q1 += [float(r["Q1"]) for r in rows if r["Q1"]]
            hits = sum(i in support for i in chosen)
            result.counts[f"counter.corrupt_hit_rate.{method}"] = hits / max(len(chosen), 1)
            result.counts[f"counter.q0_mean.{method}"] = float(np.mean(q0)) if q0 else 0.0
            result.counts[f"counter.q1_mean.{method}"] = float(np.mean(q1)) if q1 else 0.0

    def _replay(self, run: dict, trial: int, rows: list[dict]) -> float:
        """Apply the recorded projections to the regenerated system and
        return the final squared error against the regenerated solution."""
        p = self.problem
        sq = np.einsum("ij,ij->i", p.a, p.a)
        iterations = [int(r["iteration"]) for r in rows]
        if iterations != list(range(len(rows))):
            return math.inf
        if run.get("x0") == "hyperplane":
            row0 = int(_rng(derive_seed(self.seed, run["label"], trial)).integers(self.m))
            x = (p.b[row0] / sq[row0]) * p.a[row0]
        else:
            x = np.zeros(self.n)
        for r in rows[1:]:
            i = int(r["chosen_row"])
            x = x + ((p.b[i] - p.a[i] @ x) / sq[i]) * p.a[i]
        e = x - p.x_star
        return float(e @ e)


class LooDiagnose:
    name = "loo_diagnose"
    why = ("leave-one-out sigma on ash958/ash608-shaped synthetic files: time is in "
           "one eigh per row and Matrix Market parsing, the solver is idle")
    SIZES = {"full": ((958, 292), (608, 188)), "tiny": ((60, 12), (40, 12))}
    LONELY_COLUMNS = 4

    def __init__(self, size: str = "full"):
        self.dense_shape, self.sparse_shape = self.SIZES[size]

    def prepare(self, inputs, seed):
        dense = _rng(derive_seed(seed, "perfbench/dense", 0)).normal(size=self.dense_shape)
        sparse = sparse_pm1(*self.sparse_shape, self.LONELY_COLUMNS,
                            _rng(derive_seed(seed, "perfbench/sparse", 0)))
        self.files = [write_mtx_array(inputs / "dense.mtx", dense),
                      write_mtx_coordinate(inputs / "sparse.mtx", sparse)]
        self.warm_files = [write_mtx_array(inputs / "warm_dense.mtx", dense[:12, :4]),
                           write_mtx_coordinate(inputs / "warm_sparse.mtx",
                                                sparse_pm1(10, 4, 1, _rng(seed)))]
        self.dense_bound = self._svd_bound(_normalized(dense))

    @staticmethod
    def _svd_bound(a: np.ndarray) -> float:
        """min over the highest-leverage rows i of sigma_min(A without row i)."""
        q, _ = np.linalg.qr(a)
        leverage = np.einsum("ij,ij->i", q, q)
        top = np.argsort(leverage)[-LEVERAGE_ROWS_CHECKED:]
        return min(float(np.linalg.svd(np.delete(a, i, axis=0), compute_uv=False)[-1])
                   for i in top)

    def _cmd(self, files, out):
        return ["diagnose", *map(str, files), "--format", "json", "--out", str(out)]

    def warmup_argv(self, out):
        return self._cmd(self.warm_files, out)

    def argv(self, out):
        return self._cmd(self.files, out)

    def check(self, out):
        result = Outcome(ops=["dense", "sparse"])
        try:
            rows = {r["matrix"]: r for r in json.loads((out / "diagnostics.json").read_text())}
            dense, sparse = rows["dense"], rows["sparse"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            result.fail_all(f"diagnostics.json unreadable: {exc!r}")
            return result
        for row, shape in ((dense, self.dense_shape), (sparse, self.sparse_shape)):
            if row["error"] or (row["rows"], row["cols"]) != shape:
                result.fail([row["matrix"]], f"{row['matrix']}: error {row['error']!r}, "
                                             f"shape {row['rows']}x{row['cols']}")
            else:
                result.work += shape[0]
        if sparse["sigma_loo_min"] != 0.0:
            result.fail(["sparse"], f"sparse sigma_loo {sparse['sigma_loo_min']!r} is not 0")
        value = dense["sigma_loo_min"]
        if not (isinstance(value, float) and 0.0 < value
                <= self.dense_bound * (1 + SPECTRAL_RTOL)):
            result.fail(["dense"], f"dense sigma_loo {value!r} outside (0, {self.dense_bound!r}]")
        result.facts["sigma_loo_min"] = {"dense": value, "sparse": sparse["sigma_loo_min"],
                                         "dense_svd_bound": self.dense_bound}
        return result


WORKLOADS = {w.name: w for w in (BandThreshold, RecordedExperiment, LooDiagnose)}
