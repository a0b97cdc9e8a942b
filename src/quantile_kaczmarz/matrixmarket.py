"""Minimal Matrix Market (.mtx) reader and writer for dense real matrices.

Supported on read: ``coordinate`` and ``array`` formats; ``real``,
``integer`` and ``pattern`` fields (pattern entries densify to 1.0);
``general`` and ``symmetric`` symmetries. Complex and hermitian/skew inputs
raise UnsupportedFieldError. Coordinate files densify with unlisted entries
zero; duplicate coordinate entries are summed; indices are 1-based per the
format; ``%`` comment lines are skipped.

The file is opened as one text stream, which ends lines at ``\\n``,
``\\r\\n`` or ``\\r``; the header and the size line are read from it, and a
coordinate body streams on from there. Array-format values are stored in
column-major order, and an array body's bytes are read once, from the same
file. An array body of number characters and line ends only, as the writer
produces, under any of the three line ends, is converted in one numpy call.
Any other array body (comments, spaces or tabs, several tokens on a line,
line ends alone, bad values, a wrong count) is scanned line by line from a
text stream over those bytes: the first token of each line is read,
a bad value is reported at its line and a wrong count at the last line.
Both give the same values. The dense matrix is allocated only once its body
has been read and counted. The writer emits shortest round-trip decimal
representations of every entry, negative zeros included, so save/load
reproduces a matrix bit-exactly.
"""

from __future__ import annotations

import io
import warnings

import numpy as np

from ._util import atomic_writer
from .errors import MatrixMarketParseError, UnsupportedFieldError
from .linalg import as_matrix

_FORMATS = {"coordinate", "array"}
_FIELDS = {"real", "integer", "pattern"}
_UNSUPPORTED_FIELDS = {"complex"}
_SYMMETRIES = {"general", "symmetric"}
_UNSUPPORTED_SYMMETRIES = {"skew-symmetric", "hermitian"}
# the bytes of decimal, nan and inf(inity) tokens in either case, and the line ends
_NUMBER_BYTES = b"0123456789+-.eEnNaAiIfFtTyY\n\r"
# how both text streams decode; newline="" keeps each line end as it is, so
# the lengths of the lines read sum to the byte offset of the body
_TEXT = {"encoding": "ascii", "errors": "replace", "newline": ""}


def load_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense (m, n) float64 array."""
    with open(path, **_TEXT) as lines:
        first = lines.readline()
        if not first:
            raise MatrixMarketParseError(1, "empty file")
        header_line = first.strip()
        header = header_line.lower().split()
        if len(header) != 5 or header[:2] != ["%%matrixmarket", "matrix"]:
            raise MatrixMarketParseError(1, f"bad header {header_line!r}")
        fmt, fld, sym = header[2:]
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

        lineno, body_offset = 1, len(first)
        size_line = None
        for lineno, raw in enumerate(lines, start=2):
            body_offset += len(raw)
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
        if m < 1 or n < 1:
            raise MatrixMarketParseError(lineno, f"dimensions must be positive, got {m}x{n}")
        if sym == "symmetric" and m != n:
            raise MatrixMarketParseError(lineno, "symmetric storage needs a square matrix")

        start = lineno + 1
        if fmt == "coordinate":
            sums: dict[tuple[int, int], float] = {}
            seen = 0
            for lineno, raw in enumerate(lines, start=start):
                stripped = raw.strip()
                if not stripped or stripped.startswith("%"):
                    continue
                parts = stripped.split()
                want = 2 if fld == "pattern" else 3
                if len(parts) != want:
                    raise MatrixMarketParseError(lineno,
                                                 f"expected {want} tokens, got {len(parts)}")
                try:
                    i, j = int(parts[0]), int(parts[1])
                    v = 1.0 if fld == "pattern" else float(parts[2])
                except ValueError:
                    raise MatrixMarketParseError(lineno, f"bad entry {stripped!r}") from None
                if not (1 <= i <= m and 1 <= j <= n):
                    raise MatrixMarketParseError(lineno, f"index ({i}, {j}) outside {m}x{n}")
                # sums start at -0.0, the identity of +, so a listed -0.0 stays negative
                sums[i - 1, j - 1] = sums.get((i - 1, j - 1), -0.0) + v
                if sym == "symmetric" and i != j:
                    sums[j - 1, i - 1] = sums.get((j - 1, i - 1), -0.0) + v
                seen += 1
            if seen != nnz:
                raise MatrixMarketParseError(lineno, f"expected {nnz} entries, found {seen}")
            out = np.zeros((m, n))
            for (i, j), v in sums.items():
                out[i, j] = v
            return out

        # the text layer has read ahead, so the body's bytes come from the byte layer
        lines.buffer.seek(body_offset)
        body = lines.buffer.read()
    # array format: column-major; symmetric stores the lower triangle only
    expected = n * (n + 1) // 2 if sym == "symmetric" else m * n
    values = _convert_body(body, expected)
    if values is None:
        values, lineno = _scan_array_values(io.TextIOWrapper(io.BytesIO(body), **_TEXT), start)
        if values.size != expected:
            raise MatrixMarketParseError(lineno, f"expected {expected} values, found {values.size}")
    if sym == "general":
        return np.ascontiguousarray(values.reshape(n, m).T)
    out = np.zeros((n, n))
    j, i = np.triu_indices(n)  # (i, j) pairs with i >= j, in column-major order
    out[i, j] = values
    out[j, i] = values
    return out


def _convert_body(body: bytes, expected: int) -> np.ndarray | None:
    """The body's values in one numpy call, or None where the line scanner might differ.

    The call is made only on a body of number characters and line ends, so
    that no line holds two tokens, and not on one of line ends alone, which
    numpy reads as -1.0. Its values are kept only when it stopped at no
    unmatched data and read ``expected`` of them.
    """
    if body.isspace() or body.translate(None, _NUMBER_BYTES):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.fromstring(body, dtype=np.float64, sep=" ")
        except (ValueError, Warning):
            return None
    return values if values.size == expected else None


def _scan_array_values(lines, start: int) -> tuple[np.ndarray, int]:
    """First token of every value line as floats, and the number of the last line.

    ``lines`` are the file's lines from line ``start`` (1-based) on. Blank
    and ``%`` lines are skipped; the first bad value raises with its line
    number. With no lines the last line is ``start - 1``.
    """
    values = []
    lineno = start - 1
    for lineno, raw in enumerate(lines, start=start):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        try:
            values.append(float(stripped.split()[0]))
        except ValueError:
            raise MatrixMarketParseError(lineno, f"bad value {stripped!r}") from None
    return np.array(values, dtype=np.float64), lineno


def save_matrix_market(path, a: np.ndarray, fmt: str = "array", comment: str | None = None) -> None:
    """Write a dense matrix as Matrix Market 'real general', atomically.

    ``fmt='array'`` lists every entry in column-major order; ``'coordinate'``
    lists nonzeros and negative zeros with 1-based indices.
    """
    a = as_matrix(a)
    m, n = a.shape
    if fmt not in _FORMATS:
        raise ValueError(f"fmt must be 'array' or 'coordinate', got {fmt!r}")
    with atomic_writer(path) as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n")
        if comment:
            fh.writelines(f"%{line}\n" for line in comment.splitlines())
        if fmt == "array":
            fh.write(f"{m} {n}\n")
            fh.write("\n".join(map(repr, a.T.ravel().tolist())) + "\n")
        else:
            # -0.0 compares equal to zero but must survive the round trip
            rows, cols = np.nonzero((a.T != 0) | np.signbit(a.T))
            fh.write(f"{m} {n} {rows.size}\n")
            fh.writelines(f"{i + 1} {j + 1} {float(a[i, j])!r}\n" for j, i in zip(rows, cols))
