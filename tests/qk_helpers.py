"""Helpers that several test modules import: golden-matrix lookup and
reference steps and residuals taken through ``solve``."""

import os
from pathlib import Path

import numpy as np
import pytest

from quantile_kaczmarz import RK, DenseSystem, SolverConfig, solve

# SuiteSparse matrices are user-supplied; tests needing them skip when absent.
DATA_DIR = Path(os.environ.get("QUANTILE_KACZMARZ_DATA",
                               Path(__file__).resolve().parent.parent / "data"))


def require_matrix(name: str) -> Path:
    path = DATA_DIR / name
    if not path.exists():
        pytest.skip(
            f"{name} not found under {DATA_DIR}; download it from the SuiteSparse "
            "collection (Matrix Market format) to run this golden-value test"
        )
    return path


def step_from(a, b, x, kind=RK(), seed=0):
    """One projection step from x, taken by ``solve``.

    Solving the system shifted so that x is the origin, A y = b - A x, for
    one iteration and shifting back gives x's step. Returns (x_next, row).
    """
    trace = solve(DenseSystem(a, b - a @ x), SolverConfig(kind, max_iters=1, seed=seed))
    return trace.final_x + x, trace.records[-1].row


def normalized_residuals(a, b, x):
    """Distances |<x, a_j> - b_j| / ||a_j|| from x to every row's hyperplane.

    Each is the initial residual norm that ``solve`` records for the one-row
    system shifted so that x is the origin.
    """
    return np.array([
        solve(DenseSystem(a[j:j + 1], b[j:j + 1] - a[j:j + 1] @ x),
              SolverConfig(RK(), max_iters=0)).records[0].residual_norm
        for j in range(a.shape[0])])
