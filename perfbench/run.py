"""Benchmark of the qkaczmarz CLI: one closed-loop caller per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload band_threshold --seed 1 --seconds 20 --trace 0

Each call spawns a fresh child process (perfbench/child.py) that imports the
package from ``src``, makes a warm-up call on a tiny input, then makes the
measured ``quantile_kaczmarz.cli.main`` call. The caller makes the next
call only after the previous one finished and was checked, until
``--seconds`` have passed. Inputs depend only on ``--seed``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics, the tracing
overhead and, in the printed table, the end-to-end metrics as well. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import METHODS, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
PACKAGE = Path("src") / "quantile_kaczmarz" / "__init__.py"
WORK = Path(".bench_build") / "perfbench"
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # every child is killed by then; the contract allows 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "iters_per_s": "1/s"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {}
    for span in SPAN_NAMES:
        units.update({f"{span}.calls": "count", f"{span}.total_s": "s", f"{span}.self_s": "s"})
    for method in METHODS:
        units[f"solver.solve.{method}.self_s"] = "s"
        units[f"solver.us_per_iter.{method}"] = "us"
    units["solver.dqrk_qrk_cost_ratio"] = "ratio"
    units["solver.iterations"] = "count"
    for method in ("qrk", "dqrk"):
        units[f"solver.iters_to_tol_median.{method}"] = "count"
    for method in ("rk", "qrk", "dqrk"):
        units[f"solver.reached_frac.{method}"] = "ratio"
    units["harness.artifact_bytes"] = "bytes"
    units["harness.trajectory_rows"] = "count"
    for method in METHODS:
        units[f"counter.corrupt_hit_rate.{method}"] = "ratio"
    for method in ("rqrk", "dqrk"):
        units[f"counter.q0_mean.{method}"] = "1"
    for method in ("qrk", "dqrk"):
        units[f"counter.q1_mean.{method}"] = "1"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_ratio": "ratio", "trace.unspanned_s": "s"})
    return units


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def environment(child_env: dict | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "blas_threads": int(BLAS_THREADS),
            **(child_env or {}), "git_commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Caller:
    """Spawns one child per call and keeps every record."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, "PYTHONPATH": str(Path.cwd() / "src"),
                    "TMPDIR": str(work)}
        self.count = 0

    def spawn(self, job: dict) -> dict:
        self.count += 1
        job_path = self.work / f"job{self.count}.json"
        job_path.write_text(json.dumps(job))
        start = _now()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(job_path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, text=True)
        try:
            out, err = proc.communicate(timeout=max(self.deadline - start, 1.0))
        except subprocess.TimeoutExpired:
            return {"error": "child timed out"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        try:
            record = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return {"error": f"child exited {proc.returncode}: {err.strip()[-2000:]}"}
        record["setup_s"] = record["ready"] - start
        record["elapsed_s"] = _now() - start
        return record


def measure(workload, caller: Caller, seconds: float, trace: bool, work: Path):
    calls = []
    start = _now()
    while True:
        traced = trace and len(calls) % 2 == 1
        out = work / "out" / f"call{len(calls)}"
        warm = work / "warm" / f"call{len(calls)}"
        record = caller.spawn({"warmup_argv": workload.warmup_argv(warm),
                               "argv": workload.argv(out), "trace": traced})
        outcome = workload.check(out)
        if "error" in record:
            outcome.fail_all(record["error"])
        elif record["warmup_code"] != 0 or record["code"] != 0:
            outcome.fail_all(f"exit codes: warm-up {record['warmup_code']}, "
                             f"call {record['code']}: {record['warmup_stderr']}{record['stderr']}")
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(warm, ignore_errors=True)
        calls.append((traced, record, outcome))
        now = _now()
        if now - start >= seconds and (not trace or len(calls) >= 2):
            break
        if now + record.get("elapsed_s", 0.0) > caller.deadline:
            break
    setups = [r["setup_s"] for _, r, _ in calls if "setup_s" in r]
    while len(setups) < MIN_SETUPS and _now() + 5.0 < caller.deadline:
        record = caller.spawn({"warmup_argv": workload.warmup_argv(work / "warm" / "setup"),
                               "argv": None, "trace": False})
        if "setup_s" not in record:
            break
        setups.append(record["setup_s"])
    return calls, setups


def end_to_end(calls, setups) -> dict[str, list[float]]:
    plain = [(r, o) for traced, r, o in calls if not traced and "wall_s" in r]
    return {
        "wall_s": [r["wall_s"] for r, _ in plain],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r, _ in plain],
        "iters_per_s": [o.work / r["wall_s"] for r, o in plain],
    }


def layer_values(record: dict, outcome) -> dict[str, float]:
    """Per-layer values of one traced call."""
    values = {}
    for span, stats in record["spans"].items():
        for key in ("calls", "total_s", "self_s"):
            values[f"{span}.{key}"] = stats[key]
    us = {}
    for method in METHODS:
        solve = record["solves"].get(method)
        iters = record["solve_iterations"].get(method, 0)
        if solve is None:
            continue
        values[f"solver.solve.{method}.self_s"] = solve["self_s"]
        if iters:
            us[method] = values[f"solver.us_per_iter.{method}"] = 1e6 * solve["total_s"] / iters
    if "dqrk" in us and "qrk" in us:
        values["solver.dqrk_qrk_cost_ratio"] = us["dqrk"] / us["qrk"]
    values["solver.iterations"] = outcome.work
    values.update(outcome.counts)
    values["trace.wall_s"] = record["wall_s"]
    values["trace.unspanned_s"] = record["unspanned_s"]
    return values


def per_layer(calls, plain_wall: list[float]) -> tuple[dict[str, float], int]:
    """Values of the traced call with the median traced wall time, so that
    its span self times add up, and the number of traced calls."""
    traced = sorted((layer_values(r, o) for is_traced, r, o in calls
                     if is_traced and "spans" in r), key=lambda v: v["trace.wall_s"])
    chosen = traced[(len(traced) - 1) // 2] if traced else {}
    values = {name: float(chosen.get(name, 0.0)) for name in per_layer_units()}
    values["trace.untraced_wall_s"] = _median(plain_wall)
    if plain_wall and traced:
        values["trace.overhead_ratio"] = values["trace.wall_s"] / _median(plain_wall)
    return values, len(traced)


def print_table(title: str, rows) -> None:
    print(f"# {title}")
    for name, value, unit, count in rows:
        print(f"{name:48s} {value:>16.6g} {unit:6s} n={count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)

    started = _now()
    if not PACKAGE.is_file():
        print(f"error: run from a checkout root; {PACKAGE} not found", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.size)
        workload.prepare(work / "inputs", args.seed)
        caller = Caller(work, started + RUN_LIMIT_S)
        calls, setups = measure(workload, caller, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(o.attempted for _, _, o in calls)
    failed = sum(o.failed for _, _, o in calls)
    problems = [p for _, _, o in calls for p in o.problems]
    restored = all(r.get("patches_restored") == r.get("patches")
                   for traced, r, _ in calls if traced)
    if not restored:
        problems.append("a traced call left a patched attribute in place")
    first_env = next((r["environment"] for _, r, _ in calls if "environment" in r), None)

    e2e = end_to_end(calls, setups)
    report = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "calls": len(calls),
        "environment": environment(first_env),
        "fail_frac": failed / max(attempted, 1),
        "call_times": [{key: r[key] for key in ("setup_s", "wall_s", "cpu_s") if key in r}
                       for _, r, _ in calls],
        "facts": [o.facts for _, _, o in calls],
        "problems": problems[:20],
    }
    print("# report " + json.dumps(report))
    e2e_values = {name: _median(values) for name, values in e2e.items()}
    rows = [(name, e2e_values[name], unit, len(e2e[name])) for name, unit in END_TO_END.items()]
    rows.append(("fail_frac", report["fail_frac"], "ratio", attempted))
    tol_times = [o.facts["time_to_tol_s"] for traced, _, o in calls
                 if not traced and "time_to_tol_s" in o.facts]
    if tol_times:
        rows.append(("time_to_tol_s", _median(tol_times), "s", len(tol_times)))
    print_table("end to end (untraced calls; fail_frac counts operations)", rows)

    if args.trace:
        values, traced = per_layer(calls, e2e["wall_s"])
        units = per_layer_units()
        print_table("per layer (the traced call with the median traced wall time)",
                    [(name, values[name], unit,
                      len(e2e["wall_s"]) if name == "trace.untraced_wall_s" else traced)
                     for name, unit in units.items()])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": e2e_values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    correct = bool(calls) and failed == 0 and restored
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
