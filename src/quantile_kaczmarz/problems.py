"""Problem generation: random systems, planted solutions, sparse corruption.

A generated system follows the recipe: draw A (Gaussian or uniform(0,1)
entries, or load from a Matrix Market file), optionally row-normalize, draw
the planted solution with standard normal entries, set the true right-hand
side b_t = A x*, then optionally corrupt a uniformly chosen fraction of its
entries by adding positive uniform(low, high) * scale offsets. Corruption is
injected after normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import as_matrix, as_vector, row_norms
from .matrixmarket import load_matrix_market
from .quantiles import round_half_up
from .solver import DenseSystem, GroundTruth


@dataclass(frozen=True)
class CorruptionSpec:
    """Sparse additive corruption of a right-hand side.

    ``beta`` is the corrupted fraction; the support has round(beta * m)
    entries drawn uniformly without replacement, each offset by a value
    drawn uniformly from [low, high) times ``scale`` (always positive for
    the defaults, matching corruption 'between 0 and 1').
    """

    beta: float
    low: float = 0.0
    high: float = 1.0
    scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.low > self.high:
            raise ValueError("need low <= high")


@dataclass(frozen=True)
class GeneratedSource:
    """Random matrix family: 'gaussian' (standard normal) or 'uniform' (U(0,1))."""

    dist: str
    m: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.dist not in ("gaussian", "uniform"):
            raise ValueError(f"dist must be 'gaussian' or 'uniform', got {self.dist!r}")
        if self.m <= self.n:
            raise ValueError(f"generated systems must be over-determined, got {self.m}x{self.n}")


@dataclass(frozen=True)
class FileSource:
    """A Matrix Market file; ``path`` is held as a Path whether given as str or Path."""

    path: Path

    def __post_init__(self):
        object.__setattr__(self, "path", Path(self.path))


@dataclass(frozen=True)
class ProblemSpec:
    source: GeneratedSource | FileSource
    normalize: bool = True
    corruption: CorruptionSpec | None = None
    solution_seed: int = 0


def corrupt(b_true: np.ndarray, spec: CorruptionSpec) -> tuple[np.ndarray, np.ndarray]:
    """Additively corrupt round(beta * m) entries of b_true.

    Returns (b, support). Deterministic given spec.seed; beta = 0 returns an
    unchanged copy with an empty support.
    """
    b_true = as_vector(b_true)
    m = b_true.shape[0]
    count = min(round_half_up(spec.beta * m), m)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    support = np.sort(rng.choice(m, size=count, replace=False))
    b = b_true.copy()
    b[support] += rng.uniform(spec.low, spec.high, size=count) * spec.scale
    return b, support


def generate_system(spec: ProblemSpec) -> DenseSystem:
    """Materialize a ProblemSpec into a DenseSystem with full ground truth.

    The system holds one m x n array: the one drawn or loaded here, which
    normalization scales in place (the division ``normalize_rows`` makes,
    bit for bit, without its copy). So building a normalized system peaks
    near one matrix, not two.
    """
    if isinstance(spec.source, GeneratedSource):
        src = spec.source
        rng = np.random.Generator(np.random.PCG64(src.seed))
        if src.dist == "gaussian":
            a = rng.normal(size=(src.m, src.n))
        else:
            a = rng.uniform(size=(src.m, src.n))
    else:
        a = as_matrix(load_matrix_market(spec.source.path))  # a file may hold nan or inf

    if spec.normalize:
        a /= row_norms(a)[:, None]

    sol_rng = np.random.Generator(np.random.PCG64(spec.solution_seed))
    x_star = sol_rng.normal(size=a.shape[1])
    b_true = a @ x_star

    if spec.corruption is not None:
        b, support = corrupt(b_true, spec.corruption)
    else:
        b, support = b_true.copy(), np.empty(0, np.int64)

    return DenseSystem(
        A=a,
        b=b,
        ground_truth=GroundTruth(x_star=x_star, b_true=b_true, corrupt_support=support),
    )

