"""Minimal Matrix Market (.mtx) reader and writer for dense real matrices.

Supported on read: ``coordinate`` and ``array`` formats; ``real``,
``integer`` and ``pattern`` fields (pattern entries densify to 1.0);
``general`` and ``symmetric`` symmetries. Complex and hermitian/skew inputs
raise UnsupportedFieldError. Coordinate files densify with unlisted entries
zero; duplicate coordinate entries are summed; indices are 1-based per the
format; ``%`` comment lines are skipped.

Array-format values are stored in column-major order. The writer emits
shortest round-trip decimal representations, so save/load reproduces a
matrix bit-exactly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._util import atomic_write_text
from .errors import MatrixMarketParseError, UnsupportedFieldError
from .linalg import as_matrix

_FORMATS = {"coordinate", "array"}
_FIELDS = {"real", "integer", "pattern"}
_UNSUPPORTED_FIELDS = {"complex"}
_SYMMETRIES = {"general", "symmetric"}
_UNSUPPORTED_SYMMETRIES = {"skew-symmetric", "hermitian"}


def load_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense (m, n) float64 array."""
    path = Path(path)
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()

    if not lines:
        raise MatrixMarketParseError(1, "empty file")
    header = lines[0].strip().split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket" or header[1].lower() != "matrix":
        raise MatrixMarketParseError(1, f"bad header {lines[0].strip()!r}")
    fmt, fld, sym = header[2].lower(), header[3].lower(), header[4].lower()
    if fmt not in _FORMATS:
        raise MatrixMarketParseError(1, f"unknown format {fmt!r}")
    if fld in _UNSUPPORTED_FIELDS:
        raise UnsupportedFieldError(f"field {fld!r} is not supported")
    if fld not in _FIELDS:
        raise MatrixMarketParseError(1, f"unknown field {fld!r}")
    if sym in _UNSUPPORTED_SYMMETRIES:
        raise UnsupportedFieldError(f"symmetry {sym!r} is not supported")
    if sym not in _SYMMETRIES:
        raise MatrixMarketParseError(1, f"unknown symmetry {sym!r}")
    if fld == "pattern" and fmt == "array":
        raise MatrixMarketParseError(1, "pattern field is only valid for coordinate format")

    lineno = 1
    size_line = None
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = stripped
        break
    if size_line is None:
        raise MatrixMarketParseError(lineno, "missing size line")

    parts = size_line.split()
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketParseError(lineno, f"non-integer size line {size_line!r}") from None

    if fmt == "coordinate":
        if len(dims) != 3:
            raise MatrixMarketParseError(lineno, "coordinate size line needs 'm n nnz'")
        m, n, nnz = dims
    else:
        if len(dims) != 2:
            raise MatrixMarketParseError(lineno, "array size line needs 'm n'")
        m, n = dims
        nnz = m * n
    if m < 1 or n < 1:
        raise MatrixMarketParseError(lineno, f"dimensions must be positive, got {m}x{n}")
    if sym == "symmetric" and m != n:
        raise MatrixMarketParseError(lineno, "symmetric storage needs a square matrix")

    out = np.zeros((m, n))
    seen = 0
    start = lineno + 1
    if fmt == "coordinate":
        for lineno, raw in enumerate(lines[start - 1:], start=start):
            stripped = raw.strip()
            if not stripped or stripped.startswith("%"):
                continue
            parts = stripped.split()
            want = 2 if fld == "pattern" else 3
            if len(parts) != want:
                raise MatrixMarketParseError(lineno, f"expected {want} tokens, got {len(parts)}")
            try:
                i, j = int(parts[0]), int(parts[1])
                v = 1.0 if fld == "pattern" else float(parts[2])
            except ValueError:
                raise MatrixMarketParseError(lineno, f"bad entry {stripped!r}") from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise MatrixMarketParseError(lineno, f"index ({i}, {j}) outside {m}x{n}")
            out[i - 1, j - 1] += v
            if sym == "symmetric" and i != j:
                out[j - 1, i - 1] += v
            seen += 1
        if seen != nnz:
            raise MatrixMarketParseError(lineno, f"expected {nnz} entries, found {seen}")
    else:
        # array format: column-major; symmetric stores the lower triangle only
        values = _array_values(lines, start)
        expected = n * (n + 1) // 2 if sym == "symmetric" else m * n
        if values.size != expected:
            raise MatrixMarketParseError(len(lines), f"expected {expected} values, found {values.size}")
        if sym == "symmetric":
            j, i = np.triu_indices(n)  # (i, j) pairs with i >= j, in column-major order
            out[i, j] = values
            out[j, i] = values
        else:
            out[:] = values.reshape(n, m).T
    return out


def _array_values(lines: list[str], start: int) -> np.ndarray:
    """First token of every value line from line ``start`` (1-based) on, as floats.

    Blank and ``%`` lines are skipped. All lines are converted in one numpy
    call (numpy converts each string as ``float`` does); when that fails, on
    a bad value or a line with more than one token, the lines are scanned
    one by one, which reads the first token only and reports the line of a
    bad value.
    """
    body = lines[start - 1:]
    try:
        return np.array([raw for raw in body if raw.strip()[:1] not in ("", "%")],
                        dtype=np.float64)
    except ValueError:
        pass
    values = []
    for lineno, raw in enumerate(body, start=start):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        try:
            values.append(float(stripped.split()[0]))
        except ValueError:
            raise MatrixMarketParseError(lineno, f"bad value {stripped!r}") from None
    return np.array(values, dtype=np.float64)


def save_matrix_market(path, a: np.ndarray, fmt: str = "array", comment: str | None = None) -> None:
    """Write a dense matrix as Matrix Market 'real general', atomically.

    ``fmt='array'`` lists every entry in column-major order; ``'coordinate'``
    lists nonzeros with 1-based indices.
    """
    a = as_matrix(a)
    m, n = a.shape
    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be 'array' or 'coordinate', got {fmt!r}")
    chunks = [f"%%MatrixMarket matrix {fmt} real general\n"]
    if comment:
        for line in comment.splitlines():
            chunks.append(f"%{line}\n")
    if fmt == "array":
        chunks.append(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                chunks.append(repr(float(a[i, j])) + "\n")
    else:
        rows, cols = np.nonzero(a.T)
        chunks.append(f"{m} {n} {rows.size}\n")
        for j, i in zip(rows, cols):
            chunks.append(f"{i + 1} {j + 1} {float(a[i, j])!r}\n")
    atomic_write_text(path, "".join(chunks))
