"""Quantile-based randomized Kaczmarz solvers for sparsely corrupted systems.

The package bundles the iterate engine (five row-selection strategies over
one shared projection step), problem generators with sparse right-hand-side
corruption, the leave-one-out singular value diagnostic, and a reproducible
experiment harness with a CLI front end (``qkaczmarz``). The paper's
per-step contraction bounds and exact subset minima, which no run computes,
are the test helper ``tests/paper_bounds.py``.
"""

import types as _types

from ._version import __version__
from .errors import (
    DimensionMismatchError,
    HypothesisViolationError,
    InvalidQuantilesError,
    MatrixMarketParseError,
    QuantileKaczmarzError,
    UnsupportedFieldError,
    ZeroRowError,
)
from .harness import (
    DiagnosticRow,
    ExperimentResult,
    ExperimentSpec,
    RunSpec,
    ThresholdResult,
    corruption_penalty,
    cost_parity_benchmark,
    derive_seed,
    diagnostic_report,
    emit_artifacts,
    robustness_diagnostic,
    run_experiment,
    spec_from_dict,
    spec_to_dict,
    time_to_threshold,
)
from .linalg import extreme_singular_values, normalize_rows
from .matrixmarket import load_matrix_market, save_matrix_market
from .problems import (
    CorruptionSpec,
    FileSource,
    GeneratedSource,
    ProblemSpec,
    corrupt,
    generate_system,
)
from .solver import (
    DQRK,
    DenseSystem,
    GroundTruth,
    Motzkin,
    OnHyperplane,
    Origin,
    QRK,
    RK,
    RQRK,
    SelectorKind,
    SolveTrace,
    SolverConfig,
    StopRule,
    TraceRecord,
    parse_selector,
    solve,
)
from .spectral import leave_one_out_sigma_min

# the re-exported names only: importing them also binds each submodule here
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
