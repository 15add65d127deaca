"""Plain-text matrix files.

Format: a header line ``rows cols kind`` with kind in {real, integer},
then one whitespace-delimited row per line. ``%`` starts a comment that
runs to the end of the line; blank lines are skipped. Integer files
parse to exact values; real files round-trip through repr-precision
floats.
"""

from dataclasses import dataclass

import numpy as np

KINDS = ("real", "integer")


class MatrixFileError(ValueError):
    """Malformed matrix file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass
class MatrixData:
    """Parsed file: float values plus exact integers for integer kind."""

    values: np.ndarray
    kind: str
    ints: list | None

    @property
    def shape(self):
        return self.values.shape


def _data_lines(path):
    with open(path, encoding="ascii") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.split("%", 1)[0].strip()
            if text:
                yield line_no, text


def read_matrix(path):
    """Parse a matrix file; returns MatrixData."""
    lines = _data_lines(path)
    try:
        line_no, header = next(lines)
    except StopIteration:
        raise MatrixFileError(path, 0, "empty file") from None

    fields = header.split()
    if len(fields) != 3:
        raise MatrixFileError(path, line_no,
                              "header must be 'rows cols kind'")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError:
        raise MatrixFileError(path, line_no,
                              "rows and cols must be integers") from None
    kind = fields[2]
    if kind not in KINDS:
        raise MatrixFileError(path, line_no,
                              f"kind must be one of {KINDS}, got {kind!r}")
    if rows < 1 or cols < 1:
        raise MatrixFileError(path, line_no, "dimensions must be positive")

    ints = [] if kind == "integer" else None
    values = np.empty((rows, cols))
    filled = 0
    for line_no, text in lines:
        if filled == rows:
            raise MatrixFileError(path, line_no,
                                  f"more than {rows} data rows")
        entries = text.split()
        if len(entries) != cols:
            raise MatrixFileError(
                path, line_no,
                f"expected {cols} entries, found {len(entries)}")
        try:
            if kind == "integer":
                row = [int(e) for e in entries]
                ints.append(row)
                values[filled] = row
            else:
                values[filled] = [float(e) for e in entries]
        except (ValueError, OverflowError):
            raise MatrixFileError(path, line_no,
                                  "unparsable entry") from None
        filled += 1
    if filled != rows:
        raise MatrixFileError(path, 0,
                              f"expected {rows} data rows, found {filled}")
    return MatrixData(values=values, kind=kind, ints=ints)


def read_vector(path):
    """Parse a single-column (or single-row) matrix file as a vector."""
    data = read_matrix(path)
    rows, cols = data.shape
    if 1 not in (rows, cols):
        raise MatrixFileError(path, 0,
                              f"expected a vector, got shape {rows}x{cols}")
    flat_ints = None
    if data.ints is not None:
        flat_ints = [v for row in data.ints for v in row]
    return MatrixData(values=data.values.reshape(-1), kind=data.kind,
                      ints=flat_ints)


def _format_entry(value, kind):
    if kind == "integer":
        return str(int(value))
    return repr(float(value))


def write_matrix(path, values, kind="real"):
    """Write a matrix (or 1-D vector, stored as a column) to ``path``."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    arr = np.asarray(values)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("only matrices and vectors can be written")
    rows, cols = arr.shape
    lines = [f"{rows} {cols} {kind}"]
    for i in range(rows):
        lines.append(" ".join(_format_entry(v, kind) for v in arr[i]))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
