"""Command-line interface.

Subcommands:
  solve       one system, one solver configuration, trajectory artifacts
  experiment  run a JSON experiment spec (schema documented in the README)
  diagnose    per-matrix leave-one-out sigma and robustness diagnostic table
  bench       fixed-iteration wall-clock comparison across methods
  threshold   iterations/wall-clock to reach a squared-error target

Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import HANDLED_ERRORS, QuantileKaczmarzError
from .harness import (
    BenchRow,
    DiagnosticRow,
    ExperimentSpec,
    RunSpec,
    ThresholdResult,
    cost_parity_benchmark,
    diagnostic_report,
    emit_artifacts,
    parse_x0,
    run_experiment,
    spec_from_dict,
    time_to_threshold,
    write_table,
)
from .problems import CorruptionSpec, FileSource, GeneratedSource, ProblemSpec
from .solver import DQRK, QRK, RQRK, SELECTORS, StopRule, parse_selector

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", type=Path, help="Matrix Market file to use as A")
    p.add_argument("--m", type=int, help="rows of a generated matrix")
    p.add_argument("--n", type=int, help="columns of a generated matrix")
    p.add_argument("--dist", choices=["gaussian", "uniform"], default="gaussian")
    p.add_argument("--normalize", action="store_true", default=False,
                   help="row-normalize A before building the system")
    p.add_argument("--beta", type=float, default=0.0,
                   help="fraction of right-hand-side entries to corrupt")
    p.add_argument("--corruption-scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)


def _problem_from_args(args) -> ProblemSpec:
    if args.matrix is not None:
        source = FileSource(path=args.matrix)
    else:
        if args.m is None or args.n is None:
            raise QuantileKaczmarzError("either --matrix or both --m and --n are required")
        source = GeneratedSource(dist=args.dist, m=args.m, n=args.n, seed=args.seed)
    corruption = None
    if args.beta != 0:  # CorruptionSpec rejects a beta outside [0, 1)
        corruption = CorruptionSpec(beta=args.beta, scale=args.corruption_scale,
                                    seed=args.seed)
    return ProblemSpec(source=source, normalize=args.normalize,
                       corruption=corruption, solution_seed=args.seed)


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=list(SELECTORS), required=True)
    p.add_argument("--q", type=float, help=f"quantile for {QRK.name}/{RQRK.name}")
    p.add_argument("--q0", type=float, help=f"lower quantile for {DQRK.name}")
    p.add_argument("--q1", type=float, help=f"upper quantile for {DQRK.name}")


def build_parser() -> _Parser:
    parser = _Parser(prog="qkaczmarz", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver configuration")
    _add_problem_flags(p)
    _add_method_flags(p)
    p.add_argument("--iters", type=int, default=10000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--threshold", type=float, help="stop at this squared error")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--x0", default="origin")
    p.add_argument("--out", type=Path, default=Path("results"))

    p = sub.add_parser("experiment", help="run a JSON experiment spec")
    p.add_argument("spec", type=Path)
    p.add_argument("--out", type=Path, default=Path("results"))

    p = sub.add_parser("diagnose", help="tabulate sigma_loo_min and E per matrix")
    p.add_argument("matrices", nargs="+", type=Path)
    p.add_argument("--q0", type=float, default=0.6)
    p.add_argument("--q1", type=float, default=0.8)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("bench", help="fixed-iteration wall-clock comparison")
    _add_problem_flags(p)
    p.add_argument("--q", type=float, default=0.8)
    p.add_argument("--q0", type=float, default=0.6)
    p.add_argument("--q1", type=float, default=0.8)
    p.add_argument("--methods", default=f"{QRK.name},{DQRK.name}",
                   help=f"comma-separated subset of {','.join(SELECTORS)}")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("threshold", help="iterations/time to a squared-error target")
    p.add_argument("spec", type=Path)
    p.add_argument("--threshold", type=float, default=1e-8)
    p.add_argument("--out", type=Path, default=Path("results"))
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    return parser


def _report_failures(failures: dict[tuple[str, int], str]) -> int:
    """Print one FAILED line per failed (label, trial) to stderr; return the exit code."""
    for (label, trial), message in sorted(failures.items()):
        print(f"{label} trial {trial}: FAILED {message}", file=sys.stderr)
    return RUNTIME_ERROR if failures else 0


def _cmd_solve(args) -> int:
    selector = parse_selector(args.method, q=args.q, q0=args.q0, q1=args.q1)
    stop = StopRule(target_sq_error=args.threshold) if args.threshold is not None else None
    spec = ExperimentSpec(
        problem=_problem_from_args(args),
        runs=(RunSpec(label=args.method, selector=selector, max_iters=args.iters,
                      stop=stop, x0=parse_x0(args.x0)),),
        trials=args.trials,
        seed=args.seed,
        record_every=args.record_every,
    )
    result = run_experiment(spec)
    paths = emit_artifacts(result, args.out)
    for (label, trial), trace in sorted(result.traces.items()):
        last = trace.records[-1]
        err = "" if last.sq_error is None else f" sq_error={last.sq_error:.3e}"
        print(f"{label} trial {trial}: {trace.iterations} iterations "
              f"({trace.termination}){err}")
    print(f"wrote {paths['trajectory']} and {paths['summary']}")
    return _report_failures(result.failures)


def _cmd_experiment(args) -> int:
    with open(args.spec) as fh:
        spec = spec_from_dict(json.load(fh))
    result = run_experiment(spec)
    paths = emit_artifacts(result, args.out)
    print(f"{len(result.traces)} runs completed, {len(result.failures)} failed; "
          f"wrote {paths['trajectory']} and {paths['summary']}")
    return _report_failures(result.failures)


def _cmd_diagnose(args) -> int:
    rows = diagnostic_report(args.matrices, q0=args.q0, q1=args.q1, beta=args.beta)
    out = args.out / f"diagnostics.{args.format}"
    write_table(rows, DiagnosticRow, out, fmt=args.format)
    for row in rows:
        if row.error:
            print(f"{row.matrix}: FAILED {row.error}", file=sys.stderr)
        else:
            print(f"{row.matrix} ({row.rows}x{row.cols}): "
                  f"sigma_loo_min={row.sigma_loo_min:.4f} E={row.diagnostic:.4f}")
    print(f"wrote {out}")
    return RUNTIME_ERROR if any(row.error for row in rows) else 0


def _cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    spec = ExperimentSpec(
        problem=_problem_from_args(args),
        runs=tuple(RunSpec(label=method, max_iters=args.iters,
                           selector=parse_selector(method, q=args.q, q0=args.q0, q1=args.q1))
                   for method in methods),
        trials=args.repeats,
        seed=args.seed,
    )
    rows, failures = cost_parity_benchmark(spec)
    out = args.out / f"bench.{args.format}"
    write_table(rows, BenchRow, out, fmt=args.format)
    for row in rows:
        print(f"{row.label}: {row.seconds_median:.4f} s for {row.iters} iterations")
    seconds = {row.label: row.seconds_median for row in rows}
    if {QRK.name, DQRK.name} <= seconds.keys():
        print(f"{DQRK.name}/{QRK.name} wall-clock ratio: "
              f"{seconds[DQRK.name] / seconds[QRK.name]:.3f}")
    print(f"wrote {out}")
    return _report_failures(failures)


def _cmd_threshold(args) -> int:
    with open(args.spec) as fh:
        spec = spec_from_dict(json.load(fh))
    results = time_to_threshold(spec, args.threshold)
    out = args.out / f"threshold.{args.format}"
    write_table(results, ThresholdResult, out, fmt=args.format)
    for r in results:
        med = "n/a" if r.median_iterations is None else f"{r.median_iterations:.0f}"
        print(f"{r.label}: reached {r.reached_fraction:.0%}, median iterations {med}")
    print(f"wrote {out}")
    return _report_failures({(r.label, trial): message for r in results
                             for trial, message in enumerate(r.failures)
                             if message is not None})


_COMMANDS = {
    "solve": _cmd_solve,
    "experiment": _cmd_experiment,
    "diagnose": _cmd_diagnose,
    "bench": _cmd_bench,
    "threshold": _cmd_threshold,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except HANDLED_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
