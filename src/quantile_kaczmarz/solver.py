"""Row-projection solvers with pluggable quantile-based row selection.

One projection step, ``DenseSystem.project``, drives five selection rules:

* ``RK``        - row i with probability ||a_i||^2 / ||A||_F^2.
* ``QRK(q)``    - restricted to rows whose normalized residual is at most
                  the q-quantile (robust to corrupted right-hand sides).
* ``RQRK(q)``   - restricted to rows whose normalized residual exceeds the
                  q-quantile (accelerates consistent systems).
* ``DQRK(q0,q1)`` - restricted to the band strictly above the q0-quantile
                  and at most the q1-quantile (fast and robust).
* ``Motzkin``   - deterministic largest-residual row, smallest index on ties.

Within the restricted set, rows are drawn with probability proportional to
||a_i||^2 (uniform for row-normalized matrices). The iterate update is
always the orthogonal projection x + ((b_i - <x, a_i>)/||a_i||^2) a_i.

Randomness comes from numpy's PCG64, one stream per solve, so a (system,
config) pair replays bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatchError, InvalidQuantilesError
from .linalg import as_matrix, as_vector, row_norms
from .quantiles import band_ranks, partition_two_sided

# --------------------------------------------------------------------------
# selection strategies


@dataclass(frozen=True)
class RK:
    """Unrestricted row sampling proportional to squared row norms."""

    name = "rk"


@dataclass(frozen=True)
class QRK:
    """Sample among rows with normalized residual <= the q-quantile."""

    q: float
    name = "qrk"

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise InvalidQuantilesError(f"qrk needs q in (0, 1), got {self.q}")

    def ranks(self, m: int) -> tuple[int, int]:
        """Band ranks (0, round(q*m)) over m rows: the lowest q-fraction."""
        return band_ranks(m, self.q)


@dataclass(frozen=True)
class RQRK:
    """Sample among rows with normalized residual > the q-quantile."""

    q: float
    name = "rqrk"

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise InvalidQuantilesError(f"rqrk needs q in (0, 1), got {self.q}")

    def ranks(self, m: int) -> tuple[int, int]:
        """Band ranks (round(q*m), m) over m rows: those above the q-quantile."""
        # The convergence guarantee needs 1/m <= q <= (m-1)/m; below 1/m the
        # scheme degrades to RK and above (m-1)/m the upper block is empty.
        if self.q * m < 1.0 - 1e-12 or self.q * m > m - 1.0 + 1e-12:
            raise InvalidQuantilesError(
                f"rqrk needs 1/m <= q <= (m-1)/m, got q={self.q} with m={m}"
            )
        return band_ranks(m, 1.0, self.q)


@dataclass(frozen=True)
class DQRK:
    """Sample among rows with normalized residual in (q0-quantile, q1-quantile]."""

    q0: float
    q1: float
    name = "dqrk"

    def __post_init__(self):
        if not 0.0 < self.q0 < self.q1 <= 1.0:
            raise InvalidQuantilesError(
                f"dqrk needs 0 < q0 < q1 <= 1, got q0={self.q0}, q1={self.q1}"
            )

    def ranks(self, m: int) -> tuple[int, int]:
        """Band ranks (round(q0*m), round(q1*m)) over m rows; none fit some m."""
        return band_ranks(m, self.q1, self.q0)


@dataclass(frozen=True)
class Motzkin:
    """Deterministic choice of the largest normalized residual."""

    name = "motzkin"


SelectorKind = RK | QRK | RQRK | DQRK | Motzkin


SELECTORS = {kind.name: kind for kind in (RK, QRK, RQRK, DQRK, Motzkin)}


def parse_selector(method: str, **quantiles: float | None) -> SelectorKind:
    """Build the selector named ``method`` from the ``quantiles`` that are its fields."""
    kind = SELECTORS.get(method.lower())
    if kind is None:
        raise ValueError(f"unknown method {method!r}")
    names = [f.name for f in fields(kind)]
    if any(quantiles.get(name) is None for name in names):
        raise InvalidQuantilesError(
            f"{kind.name} needs " + " and ".join(f"--{name}" for name in names))
    return kind(**{name: quantiles[name] for name in names})


# --------------------------------------------------------------------------
# sampling and selection


def weighted_sample(cum_weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index with probability proportional to its weight.

    Takes the running totals ``np.cumsum(weights)`` of nonnegative weights,
    so that a caller drawing many times from the same weights sums them
    once. Consumes exactly one uniform variate. Some weight must be positive,
    as in ``solve``: its weights are at least ``ZERO_ROW_TOL**2`` and every
    band holds a row.
    """
    i = int(np.searchsorted(cum_weights, rng.random() * cum_weights[-1], side="right"))
    # past the end, or onto a zero weight, only on a floating-point boundary hit
    i = min(i, len(cum_weights) - 1)
    while i > 0 and cum_weights[i] == cum_weights[i - 1]:
        i -= 1
    return i


def select_row(
    kind: SelectorKind,
    ranks: tuple[int, int] | None,
    residuals: np.ndarray | None,
    row_sq_norms: np.ndarray,
    cum_row_sq_norms: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, float | None, float | None]:
    """Pick a row index under the given strategy.

    ``ranks`` is a quantile selector's ``kind.ranks(m)`` (None for RK and
    Motzkin): it admits the rows of ranks k0+1..k1 in (residual, index)
    order. ``residuals`` are the normalized residuals of the current iterate
    (RK does not read them, so it accepts None). ``cum_row_sq_norms`` is
    ``np.cumsum(row_sq_norms)``, computed once per solve for RK's draw.
    Returns (index, low_threshold, high_threshold) where the thresholds are
    the residual values bounding the admissible set (None when unbounded on
    that side, as rqrk's set is above).
    """
    if isinstance(kind, RK):
        return weighted_sample(cum_row_sq_norms, rng), None, None
    if isinstance(kind, Motzkin):
        return int(np.argmax(residuals)), None, None
    admissible, low, high = partition_two_sided(residuals, *ranks)
    if isinstance(kind, RQRK):
        high = None
    pick = weighted_sample(np.cumsum(row_sq_norms[admissible]), rng)
    return int(admissible[pick]), low, high


# --------------------------------------------------------------------------
# systems, configuration, traces


@dataclass(frozen=True)
class GroundTruth:
    """Planted solution and corruption metadata for a generated system."""

    x_star: np.ndarray
    b_true: np.ndarray
    corrupt_support: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_star", as_vector(self.x_star))
        object.__setattr__(self, "b_true", as_vector(self.b_true))
        object.__setattr__(self, "corrupt_support",
                           np.asarray(self.corrupt_support, dtype=np.int64))

    @property
    def beta(self) -> float:
        """The corrupted fraction of the right-hand side's entries."""
        return self.corrupt_support.size / self.b_true.shape[0]


@dataclass(frozen=True)
class DenseSystem:
    """A linear system A x = b, optionally with its planted ground truth,
    checked once when built: A finite, 2-D and free of zero rows (else
    ZeroRowError), b finite of length m. ``row_norms`` caches A's row norms,
    ``inv_norms`` their reciprocals and ``sq_norms`` their squares, so do
    not mutate A after building a system.

    The system computes every product ``solve`` takes of it: ``residual``,
    ``project`` and ``sq_error``."""

    A: np.ndarray
    b: np.ndarray
    ground_truth: GroundTruth | None = None
    row_norms: np.ndarray = field(init=False, repr=False, compare=False)
    inv_norms: np.ndarray = field(init=False, repr=False, compare=False)
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = as_matrix(self.A)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", as_vector(self.b, a.shape[0]))
        norms = row_norms(a)
        object.__setattr__(self, "row_norms", norms)
        object.__setattr__(self, "inv_norms", 1.0 / norms)
        object.__setattr__(self, "sq_norms", norms * norms)
        gt = self.ground_truth
        if gt is not None:
            m, support = a.shape[0], gt.corrupt_support
            if gt.x_star.shape[0] != a.shape[1]:
                raise DimensionMismatchError("x_star length must equal n")
            if gt.b_true.shape[0] != m:
                raise DimensionMismatchError("b_true length must equal m")
            outside = support[(support < 0) | (support >= m)]
            if outside.size:
                raise DimensionMismatchError(f"corrupt_support index {outside[0]} outside [0, {m})")
            hits = np.bincount(support, minlength=m)
            if np.any(hits > 1):
                raise ValueError(f"corrupt_support repeats index {np.argmax(hits > 1)}")
            if np.any((self.b != gt.b_true) & (hits == 0)):
                raise ValueError("b differs from b_true outside the corrupt support")

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def residual(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The residual r = A x - b and the normalized residual |r_j| / ||a_j||."""
        r = self.A @ x - self.b
        return r, np.abs(r) * self.inv_norms

    def project(self, x: np.ndarray, i: int, r_i: float | None = None) -> np.ndarray:
        """Project x onto row i's hyperplane: x + ((b_i - <a_i, x>)/||a_i||^2) a_i.

        Given ``r_i``, entry i of ``residual(x)[0]``, the step takes -r_i for
        b_i - <a_i, x>; without it, the row's own dot product. Negation is
        exact, so either way the step has the bits of the expression written
        with that value, signed zeros included.
        """
        a_i = self.A[i]
        gap = self.b[i] - a_i @ x if r_i is None else -r_i
        return x + (gap / self.sq_norms[i]) * a_i

    def sq_error(self, x: np.ndarray) -> float:
        """Squared distance to the planted solution."""
        if self.ground_truth is None:
            raise ValueError("system has no ground truth")
        e = np.asarray(x, dtype=np.float64) - self.ground_truth.x_star
        return float(e @ e)


@dataclass(frozen=True)
class Origin:
    """Start from the zero vector."""


@dataclass(frozen=True)
class OnHyperplane:
    """Start from (b_i/||a_i||^2) a_i so the i-th equation holds exactly.

    ``row=None`` picks the row uniformly at random from the solver's stream.
    """

    row: int | None = None

    def __post_init__(self):
        if self.row is not None and self.row < 0:
            raise ValueError(f"x0 row must be >= 0, got {self.row}")


X0Policy = Origin | OnHyperplane


@dataclass(frozen=True)
class StopRule:
    """Optional early-stopping thresholds, checked on x0 and after every step.

    ``target_sq_error`` needs ground truth and is checked first;
    ``residual_norm`` compares the Euclidean norm of the normalized-residual
    vector.
    """

    target_sq_error: float | None = None
    residual_norm: float | None = None


@dataclass(frozen=True)
class SolverConfig:
    selector: SelectorKind
    max_iters: int
    seed: int = 0
    x0: X0Policy = field(default_factory=Origin)
    stop: StopRule | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")


@dataclass(frozen=True)
class TraceRecord:
    """State captured at one recorded iteration.

    ``row`` and the thresholds are None for the initial-iterate record and
    for strategies that do not use them; ``sq_error`` is None without ground
    truth.
    """

    iteration: int
    row: int | None
    q0_value: float | None
    q1_value: float | None
    sq_error: float | None
    residual_norm: float | None


@dataclass(frozen=True)
class SolveTrace:
    records: tuple[TraceRecord, ...]
    final_x: np.ndarray
    iterations: int
    termination: str


def solve(
    system: DenseSystem,
    config: SolverConfig,
    record_every: int | None = 1,
) -> SolveTrace:
    """Run up to ``max_iters`` projection steps and collect a trace.

    Records iteration 0 (the initial iterate), every ``record_every``-th
    iteration, the last one and the one that meets a stop rule;
    ``record_every=None`` records nothing. The stop rules are checked on x0
    and on each new iterate right after its step,
    ``target_sq_error`` first. Deterministic given (system, config): every
    random selector consumes exactly one uniform per iteration and the step
    rule depends on the selector alone, so recording changes no bit of the
    trajectory. Every step is ``system.project(x, i, r_i)``: RK passes no
    ``r_i``, so it steps by its row's own ``b_i - <a_i, x>``, and every other
    selector passes the entry ``r_i`` of the residual it selected with.

    The residual ``system.residual(x)`` is computed at most once per
    iterate: right after the step when a record or a ``residual_norm`` stop
    needs it, else at the top of the next quantile or Motzkin iteration. A
    recorded iteration therefore costs one matvec, the same as an unrecorded
    quantile iteration. The squared error is computed only on an iterate that a
    ``target_sq_error`` stop or a record reads.

    Preconditions raise before the first record: an rqrk quantile or a dqrk
    band that does not fit m (``kind.ranks(m)``, once per solve), a
    ``target_sq_error`` stop without ground truth and an x0 row outside the
    matrix. Zero rows raise when the ``DenseSystem`` is built, and its cached
    norms are read here, not recomputed. Then no row selection can
    fail, and ``termination`` is "max_iters", "target_sq_error" or "residual_norm".
    """
    a, b = system.A, system.b
    m, n = a.shape
    if record_every is not None and record_every < 1:
        raise ValueError("record_every must be >= 1")

    sq_norms = system.sq_norms
    cum_sq_norms = np.cumsum(sq_norms)

    kind = config.selector
    ranks = kind.ranks(m) if isinstance(kind, (QRK, RQRK, DQRK)) else None
    # RK never needs the residual to pick a row, so it projects with the row's
    # own dot product whether or not a record computed the residual
    rk = isinstance(kind, RK)

    gt = system.ground_truth
    stop = config.stop or StopRule()
    target, res_stop = stop.target_sq_error, stop.residual_norm
    if target is not None and gt is None:
        raise ValueError("target_sq_error stop rule needs ground truth")

    rng = np.random.Generator(np.random.PCG64(config.seed))

    if isinstance(config.x0, OnHyperplane):
        row0 = config.x0.row if config.x0.row is not None else int(rng.integers(m))
        if not 0 <= row0 < m:
            raise DimensionMismatchError(f"x0 row {row0} outside [0, {m})")
        # not project(0, row0): 0 + (-0.0) would turn the -0.0 entries that
        # zeros of row0 give when b_row0 < 0 into +0.0
        x = (b[row0] / sq_norms[row0]) * a[row0]
    else:
        x = np.zeros(n)

    def norm(v: np.ndarray) -> float:
        # np.linalg.norm of a 1-D float vector is sqrt(v.dot(v)), bit for bit
        return math.sqrt(v.dot(v))

    records: list[TraceRecord] = []
    i = low = high = None
    k = 0
    while True:
        # x is the iterate after k steps; r and nres are its residual and
        # normalized residual once computed
        r = nres = None
        sq_err = system.sq_error(x) if target is not None else None
        termination = None
        if target is not None and sq_err <= target:
            termination = "target_sq_error"
        elif res_stop is not None:
            r, nres = system.residual(x)
            if norm(nres) <= res_stop:
                termination = "residual_norm"
        if termination is None and k == config.max_iters:
            termination = "max_iters"
        if record_every is not None and (termination or k % record_every == 0):
            if r is None:
                r, nres = system.residual(x)
            if sq_err is None and gt is not None:
                sq_err = system.sq_error(x)
            records.append(TraceRecord(k, i, low, high, sq_err, norm(nres)))
        if termination is not None:
            break

        k += 1
        if r is None and not rk:
            r, nres = system.residual(x)
        i, low, high = select_row(kind, ranks, nres, sq_norms, cum_sq_norms, rng)
        x = system.project(x, i, None if rk else r[i])

    return SolveTrace(
        records=tuple(records),
        final_x=x,
        iterations=k,
        termination=termination,
    )
