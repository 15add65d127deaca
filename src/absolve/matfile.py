"""Plain-text matrix files.

Format: a header line ``rows cols kind`` with kind in {real, integer},
then one whitespace-delimited row per line. ``%`` starts a comment that
runs to the end of the line; blank lines are skipped. Integer files
parse to exact values; real files round-trip through repr-precision
floats.
"""

import re
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


def read_matrix(path):
    """Parse a matrix file; returns MatrixData.

    The file is read in one pass, each row's tokens go through ``float``
    (``int`` and then ``float`` for integer files) in one ``map``, and
    the floats fill the array at once. A malformed file raises
    :class:`MatrixFileError` at its first bad line.
    """
    try:
        with open(path, encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        line_no, byte = _first_non_ascii(path)
        raise MatrixFileError(path, line_no, f"non-ASCII byte 0x{byte:02x}; "
                              "matrix files are ASCII") from None
    # a text-mode file yields the same lines as iterating over it
    lines = [(line_no, data)
             for line_no, raw in enumerate(text.split("\n"), start=1)
             if (data := raw.split("%", 1)[0].strip())]
    if not lines:
        raise MatrixFileError(path, 0, "empty file")

    line_no, header = lines[0]
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

    values = np.empty((rows, cols))
    ints = [] if kind == "integer" else None
    floats = []
    for filled, (line_no, data) in enumerate(lines[1:]):
        if filled == rows:
            raise MatrixFileError(path, line_no,
                                  f"more than {rows} data rows")
        entries = data.split()
        if len(entries) != cols:
            raise MatrixFileError(
                path, line_no,
                f"expected {cols} entries, found {len(entries)}")
        try:
            if ints is None:
                floats += map(float, entries)
            else:
                row = list(map(int, entries))
                ints.append(row)
                floats += map(float, row)
        except (ValueError, OverflowError):
            raise MatrixFileError(path, line_no,
                                  "unparsable entry") from None
    if len(lines) - 1 != rows:
        raise MatrixFileError(path, 0, f"expected {rows} data rows, "
                                       f"found {len(lines) - 1}")
    values.reshape(-1)[:] = floats
    return MatrixData(values=values, kind=kind, ints=ints)


def _first_non_ascii(path):
    """(line number, value) of the first byte of ``path`` above 0x7f, with
    lines counted as text mode ends them (at ``\\n``, ``\\r\\n`` or
    ``\\r``)."""
    with open(path, "rb") as fh:
        data = fh.read()
    at = re.search(rb"[\x80-\xff]", data).start()
    head = data[:at].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return head.count(b"\n") + 1, data[at]


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


def write_matrix(path, values, kind="real"):
    """Write a matrix (or 1-D vector, stored as a column) to ``path``.

    Real entries are written as ``repr(float(v))``, which reads back to
    the same float; integer entries as ``str(int(v))``.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    arr = np.asarray(values)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError("only matrices and vectors can be written")
    rows, cols = arr.shape
    entry = (lambda v: str(int(v))) if kind == "integer" \
        else (lambda v: repr(float(v)))
    text = f"{rows} {cols} {kind}\n" + "".join(
        [" ".join(map(entry, row)) + "\n" for row in arr.tolist()])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
