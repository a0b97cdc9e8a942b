import os
from pathlib import Path

# One BLAS thread, as CI and perfbench pin it: criterion 5's wall-clock
# parity window reads BLAS threading. This must run before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from quantile_kaczmarz import RK, DenseSystem, SolverConfig, solve  # noqa: E402

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


@pytest.fixture
def svd_fails(monkeypatch):
    """Make numpy's SVD ('gesdd') and scipy's 'gesvd' fallback both fail to converge."""
    import scipy.linalg

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    monkeypatch.setattr(scipy.linalg, "svd", no_convergence)
