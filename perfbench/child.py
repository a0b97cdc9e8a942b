"""One benchmark call in a fresh process.

Usage: python3 perfbench/child.py JOB.json

The job names a warm-up argv and, optionally, the measured argv for
``quantile_kaczmarz.cli.main``. The child imports the package, makes the
warm-up call, stamps the monotonic clock (the parent stamped it before the
spawn, so the difference is the set-up time), makes the measured call with
or without layer spans, and prints one JSON line. The package's own stdout
and stderr are captured so they cannot mix with that line.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _call(main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return int(code or 0), out.getvalue(), err.getvalue()


def _environment() -> dict:
    import numpy as np
    import scipy

    from quantile_kaczmarz import __version__

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "quantile_kaczmarz": __version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def run(job: dict) -> dict:
    from quantile_kaczmarz import cli

    warm_code, _, warm_err = _call(cli.main, job["warmup_argv"])
    ready = _now()
    result = {"ready": ready, "warmup_code": warm_code, "warmup_stderr": warm_err[-2000:]}
    if job.get("argv") is None:
        return result

    if job["trace"]:
        from tracing import PATCHES, ROOT_SPAN, Patched, Tracer

        tracer = Tracer()
        patched = Patched(tracer)
        root = tracer.wrap(ROOT_SPAN, cli.main)
        start = time.perf_counter()
        with patched:
            code, out, err = _call(root, job["argv"])
        wall = time.perf_counter() - start
        result["spans"] = {name: vars(s) for name, s in tracer.spans.items()}
        result["solves"] = {name: vars(s) for name, s in tracer.solves.items()}
        result["solve_iterations"] = tracer.solve_iterations
        result["unspanned_s"] = wall - tracer.self_time_sum()
        result["patches"] = len(PATCHES)
        result["patches_restored"] = patched.restored
    else:
        start, cpu_start = time.perf_counter(), time.process_time()
        code, out, err = _call(cli.main, job["argv"])
        wall = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu_start

    result.update(
        code=code,
        wall_s=wall,
        stdout=out[-2000:],
        stderr=err[-2000:],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment(),
    )
    return result


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    print(json.dumps(run(job)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
