"""Dense matrix/vector primitives shared by the solvers and diagnostics.

Matrices are plain 2-D float64 numpy arrays in row-major order; vectors are
1-D float64 arrays. ``DenseSystem`` checks a solver's inputs when it is
built (``as_matrix`` and ``as_vector``), so ``row_norms`` and the hot loops
assume clean inputs. A public function that takes a matrix checks it
itself, so a matrix passed to several is checked by each. ``diagnose``
checks every matrix once, in ``normalize_rows``, and hands the checked
matrix to ``spectral.leave_one_out_spectrum``, which takes it as it is. All
functions are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ZeroRowError

# Rows with Euclidean norm below this are treated as zero rows.
ZERO_ROW_TOL = 1e-14


def as_matrix(a) -> np.ndarray:
    """Coerce to a validated (m, n) float64 C-contiguous array.

    Raises DimensionMismatchError for a non-2-D input and ValueError if any
    entry is NaN or infinite.
    """
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.shape[0] < 1 or out.shape[1] < 1:
        raise DimensionMismatchError(f"matrix must be at least 1x1, got {out.shape}")
    # min and max propagate nan, so this is exact without an m x n mask
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise ValueError("matrix entries must be finite")
    return out


def as_vector(v, length: int | None = None) -> np.ndarray:
    """Coerce to a validated 1-D float64 array, optionally of a fixed length."""
    out = np.ascontiguousarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got ndim={out.ndim}")
    if length is not None and out.shape[0] != length:
        raise DimensionMismatchError(f"expected length {length}, got {out.shape[0]}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    return out


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a matrix that ``as_matrix`` validated.

    Raises ZeroRowError for the first row with norm below ZERO_ROW_TOL.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    bad = np.nonzero(norms < ZERO_ROW_TOL)[0]
    if bad.size:
        raise ZeroRowError(index=int(bad[0]), norm=float(norms[bad[0]]))
    return norms


def normalize_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale every row to unit Euclidean norm.

    Returns the normalized matrix and the vector of applied scalings (the
    original row norms), so a right-hand side can be rescaled consistently
    via ``b / scalings``. Raises ZeroRowError for any row with norm below
    ZERO_ROW_TOL.
    """
    a = as_matrix(a)
    norms = row_norms(a)
    return a / norms[:, None], norms


def extreme_singular_values(a: np.ndarray) -> tuple[float, float]:
    """Smallest and largest singular values of a dense matrix.

    Computed with LAPACK's divide-and-conquer SVD ('gesdd'), falling back to
    its QR-iteration SVD driver ('gesvd') if that fails to converge. Raises
    numpy's LinAlgError, a ValueError, if both fail.
    """
    a = as_matrix(a)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError:
        import scipy.linalg

        s = scipy.linalg.svd(a, compute_uv=False, lapack_driver="gesvd")
    return float(s[-1]), float(s[0])
