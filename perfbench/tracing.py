"""Outside-in layer spans for the quantile_kaczmarz package.

The benchmark never edits the package. A traced call instead replaces the
module attributes that ``cli``, ``harness``, ``solver`` and ``spectral``
look up at call time with timing wrappers, and puts the originals back
afterwards. Each wrapper is one span; a span's self time is its total time
minus the time of the wrapped calls made inside it, so the self times of
all spans under a root span add up to the root's total.

Spans are aggregated per name (calls, total seconds, self seconds) rather
than kept one by one: the band workload makes about 10^5 wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

# (span name, module whose attribute is replaced, dotted attribute path).
# The module is the one that looks the name up when the package runs, so
# the wrapper sits on the call edge between two layers.
PATCHES = (
    ("harness.time_to_threshold", "quantile_kaczmarz.cli", "time_to_threshold"),
    ("harness.run_experiment", "quantile_kaczmarz.cli", "run_experiment"),
    ("harness.emit_artifacts", "quantile_kaczmarz.cli", "emit_artifacts"),
    ("harness.diagnostic_report", "quantile_kaczmarz.cli", "diagnostic_report"),
    ("problems.generate_system", "quantile_kaczmarz.harness", "generate_system"),
    ("solver.solve", "quantile_kaczmarz.harness", "solve"),
    ("matrixmarket.load_matrix_market", "quantile_kaczmarz.harness", "load_matrix_market"),
    ("linalg.normalize_rows", "quantile_kaczmarz.harness", "normalize_rows"),
    ("spectral.leave_one_out_sigma_min", "quantile_kaczmarz.harness",
     "leave_one_out_sigma_min"),
    ("linalg.extreme_singular_values", "quantile_kaczmarz.harness", "extreme_singular_values"),
    ("bounds.robustness_diagnostic", "quantile_kaczmarz.harness", "robustness_diagnostic"),
    ("solver.select_row", "quantile_kaczmarz.solver", "select_row"),
    ("solver.weighted_sample", "quantile_kaczmarz.solver", "weighted_sample"),
    ("quantiles.partition_two_sided", "quantile_kaczmarz.solver", "partition_two_sided"),
    ("solver.DenseSystem.sq_error", "quantile_kaczmarz.solver", "DenseSystem.sq_error"),
    ("scipy.linalg.eigh", "quantile_kaczmarz.spectral", "scipy.linalg.eigh"),
)

ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(name for name, _, _ in PATCHES)
METHODS = ("rk", "qrk", "rqrk", "dqrk", "motzkin")


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def add(self, total: float, self_time: float) -> None:
        self.calls += 1
        self.total_s += total
        self.self_s += self_time


@dataclass
class Tracer:
    """Aggregated spans, plus the solve span split by selector."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    solves: dict[str, SpanStats] = field(default_factory=dict)
    solve_iterations: dict[str, int] = field(default_factory=dict)
    clock: Callable[[], float] = time.perf_counter
    # child-time accumulators, one per open span; slot 0 is outside all spans
    _open: list[float] = field(default_factory=lambda: [0.0])

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())
        open_spans = self._open
        clock = self.clock
        per_solve = self._record_solve if name == "solver.solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = clock() - start
                children = open_spans.pop()
                open_spans[-1] += total
                stats.add(total, total - children)
            if per_solve is not None:
                per_solve(args, kwargs, result, total, total - children)
            return result

        return wrapper

    def _record_solve(self, args, kwargs, trace, total, self_time) -> None:
        config = args[1] if len(args) > 1 else kwargs["config"]
        method = config.selector.name
        self.solves.setdefault(method, SpanStats()).add(total, self_time)
        self.solve_iterations[method] = self.solve_iterations.get(method, 0) + trace.iterations

    def self_time_sum(self) -> float:
        return sum(s.self_s for s in self.spans.values())


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Patched:
    """Context manager: install every wrapper on entry, restore on exit.

    ``restored`` counts attributes found identical to their originals after
    exit; it equals ``len(PATCHES)`` when restoring worked.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.restored = 0

    def __enter__(self) -> "Patched":
        try:
            for name, module_name, path in PATCHES:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                self.saved.append((owner, attr, original))
                setattr(owner, attr, self.tracer.wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.restored = sum(owner.__dict__[attr] is original
                            for owner, attr, original in self.saved)
        self.saved.clear()
