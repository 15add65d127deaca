"""Independent reference implementations used to check the solvers.

Everything here is deliberately naive: exact (Fractions, plain integer
arithmetic), textbook iterations, or the plain loop that a vectorised
solver must reproduce bit for bit, so a disagreement with the package
points at the package.
"""

from fractions import Fraction
from math import gcd

import numpy as np

from absolve import core
from absolve.counting import OpCounter, StorageMeter
from absolve.errors import RegularityFailure, UnsupportedShape
from absolve.matfile import KINDS, MatrixData, MatrixFileError
from absolve.strategies import CompactLUWorkspace


def fraction_eliminate(a, b=None):
    """Exact Gaussian elimination over the rationals.

    Returns (rank, consistent, solution) where ``solution`` is one exact
    solution (free variables set to zero) or None. With ``b`` omitted the
    system is treated as homogeneous and only the rank matters.
    """
    rows = [[Fraction(v) for v in row] for row in a]
    m = len(rows)
    n = len(rows[0]) if m else 0
    rhs = [Fraction(v) for v in (b if b is not None else [0] * m)]

    pivot_cols = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = rows[row][col]
        rows[row] = [v / inv for v in rows[row]]
        rhs[row] = rhs[row] / inv
        for r in range(m):
            if r != row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[row])]
                rhs[r] = rhs[r] - factor * rhs[row]
        pivot_cols.append(col)
        row += 1
        if row == m:
            break

    rank = len(pivot_cols)
    consistent = all(rhs[r] == 0 for r in range(rank, m))
    solution = None
    if consistent:
        solution = [Fraction(0)] * n
        for r, col in enumerate(pivot_cols):
            solution[col] = rhs[r]
    return rank, consistent, solution


def fraction_rank(a):
    return fraction_eliminate(a)[0]


def fraction_det(a):
    """Exact determinant by fraction-free cofactor-style elimination."""
    rows = [[Fraction(v) for v in row] for row in a]
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                factor = rows[r][col] / inv
                rows[r] = [v - factor * w
                           for v, w in zip(rows[r], rows[col])]
    return det


def leading_minor_ratios(a):
    """Exact LU pivots: det(A_k)/det(A_{k-1}) for k = 1..n."""
    n = len(a)
    minors = [Fraction(1)]
    for k in range(1, n + 1):
        minors.append(fraction_det([row[:k] for row in a[:k]]))
    return [minors[k] / minors[k - 1] for k in range(1, n + 1)]


def _minor_gcd(matrix, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    from itertools import combinations

    m, n = len(matrix), len(matrix[0])
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[matrix[r][c] for c in cols] for r in rows]
            g = gcd(g, int(fraction_det(sub)))
    return g


def bezout_gcd(values):
    """Greatest common divisor with a certificate combination.

    The sort-and-fold loop that ``diophantine.bezout_gcd`` must
    reproduce: re-sort by magnitude (stable, descending) before every
    fold, fold the two largest into each other, and carry a dense
    coefficient vector per live entry.
    """
    values = list(values)
    m = len(values)
    active = []  # (magnitude, coefficient vector)
    for i, v in enumerate(values):
        if v == 0:
            continue
        coeff = [0] * m
        coeff[i] = 1 if v > 0 else -1
        active.append([abs(v), coeff])
    if not active:
        return 0, [0] * m

    while len(active) > 1:
        active.sort(key=lambda e: e[0], reverse=True)
        a, b = active[0], active[1]
        q = a[0] // b[0]
        a[0] -= q * b[0]
        a[1] = [ca - q * cb for ca, cb in zip(a[1], b[1])]
        if a[0] == 0:
            active.pop(0)
    g, z = active[0]
    return g, z


def integer_solvable(a, b):
    """Decide integer solvability by the classical minor-gcd test.

    A x = b has an integer solution iff the ranks of A and [A|b] agree
    and, for every k up to that rank, the gcd of the k x k minors of A
    equals that of [A|b].
    """
    aug = [row + [bv] for row, bv in zip(a, b)]
    rank_a = fraction_rank(a)
    if fraction_rank(aug) != rank_a:
        return False
    for k in range(1, rank_a + 1):
        if _minor_gcd(a, k) != _minor_gcd(aug, k):
            return False
    return True


def system_status_2x3(a, b):
    """(rationally consistent, integer solvable) for a 2 x 3 int system.

    Closed form of :func:`integer_solvable` for the one shape the
    exhaustive sweeps use: ranks come from explicit 2 x 2 minors and the
    minor gcds are spelled out, so a call costs a handful of integer
    operations. Validated against the general oracle elsewhere.
    """
    (a00, a01, a02), (a10, a11, a12) = (tuple(r) for r in a)
    b0, b1 = b
    m01 = a00 * a11 - a01 * a10
    m02 = a00 * a12 - a02 * a10
    m12 = a01 * a12 - a02 * a11
    mb0 = a00 * b1 - b0 * a10
    mb1 = a01 * b1 - b0 * a11
    mb2 = a02 * b1 - b0 * a12
    rank_a = 2 if (m01 or m02 or m12) else \
        (1 if (a00 or a01 or a02 or a10 or a11 or a12) else 0)
    rank_ab = 2 if (m01 or m02 or m12 or mb0 or mb1 or mb2) else \
        (1 if (a00 or a01 or a02 or a10 or a11 or a12 or b0 or b1) else 0)
    if rank_a != rank_ab:
        return False, False
    if rank_a == 0:
        return True, True
    d1a = gcd(a00, a01, a02, a10, a11, a12)
    if d1a != gcd(d1a, b0, b1):
        return True, False
    if rank_a == 1:
        return True, True
    d2a = gcd(m01, m02, m12)
    return True, d2a == gcd(d2a, mb0, mb1, mb2)


def box_solutions(a, b, radius):
    """All integer solutions with max-norm <= radius, by enumeration."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.shape[1]
    axes = np.meshgrid(*([np.arange(-radius, radius + 1)] * n),
                       indexing="ij")
    grid = np.stack([ax.ravel() for ax in axes], axis=1)
    hits = grid[np.all(grid @ a.T == b, axis=1)]
    return sorted(tuple(int(v) for v in row) for row in hits)


def gauss_seidel(a, b, x0, steps):
    """Textbook Gauss-Seidel, one component update per step.

    Step k updates component k mod n; returns the iterate after every
    step so callers can compare whole histories.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    n = len(b)
    out = []
    for k in range(steps):
        j = k % n
        sigma = float(a[j] @ x) - a[j, j] * x[j]
        x[j] = (b[j] - sigma) / a[j, j]
        out.append(x.copy())
    return out


def kaczmarz(a, b, x0, steps):
    """Cyclic row projection, one row per step; iterate after each step."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x = np.array(x0, dtype=float)
    m = a.shape[0]
    out = []
    for k in range(steps):
        row = a[k % m]
        x = x - ((row @ x - b[k % m]) / (row @ row)) * row
        out.append(x.copy())
    return out


def column_loop_implicit_lu(a, b, tol=None, keep_factors=True,
                            counter=None):
    """Reference for :func:`absolve.strategies.implicit_lu_solve`.

    The same algorithm with the nonzero projector block held as a list
    of columns and updated one column at a time in Python, adding the
    column contributions in ascending column order. The packed solver
    must reproduce its iterates, factors, multiply count and storage
    meter bit for bit.
    """
    a, b = core._as_system(a, b)
    m, n = a.shape
    if m != n:
        raise UnsupportedShape(f"need a square system, got {m} x {n}")
    _, _, piv_tol = (tol or core.Tolerances()).resolve(n)
    counter = counter if counter is not None else OpCounter()
    meter = StorageMeter()

    x = np.zeros(n)
    cols = []  # cols[c][r] = projector entry (row i+r, column c) at step i
    p_out = []
    pivots = []
    for i in range(n):
        row = a[i]
        heads = np.empty(i)
        meter.alloc(i)
        for c in range(i):
            heads[c] = cols[c][0]

        # pivot: projected diagonal entry (H a_i)_i
        d = float(row[:i] @ heads) + float(row[i])
        counter.add(i)
        a_norm = float(np.linalg.norm(row))
        counter.add(n)
        p_bound = max(1.0, float(np.abs(heads).max()) if i else 1.0) \
            * float(np.sqrt(i + 1))
        counter.add(1)
        if abs(d) <= piv_tol * a_norm * p_bound:
            raise RegularityFailure(i)

        # x has support 0..i-1 before this step
        tau = float(row[:i] @ x[:i]) - float(b[i])
        counter.add(i)
        alpha = tau / d
        counter.add(1)
        x[:i] -= alpha * heads
        counter.add(i)
        x[i] = -alpha

        if keep_factors:
            p_out.append(np.append(heads, 1.0))  # output, not metered
        pivots.append(d)

        if i < n - 1:
            # sub-diagonal projected entries, then the new column -t/d
            t = row[i + 1:].copy()
            meter.alloc(n - i - 1)
            for c in range(i):
                t += cols[c][1:] * row[c]
                counter.add(n - i - 1)
            t /= d
            counter.add(n - i - 1)
            np.negative(t, out=t)
            for c in range(i):
                head = cols[c][0]
                body = cols[c][1:]
                body += head * t
                counter.add(n - i - 1)
                cols[c] = body
                meter.free(1)
            cols.append(t)
        meter.free(i)

    for c in cols:
        meter.free(len(c))

    res = float(np.linalg.norm(a @ x - b))
    counter.add(n * n + n)
    state = core.ProjectorState(h=np.zeros((n, n)), step=n, p_cols=p_out,
                                v_cols=list(range(n)), pivots=pivots,
                                matrix=a, counter=counter)
    return core.SolveReport(x=x, rank=n,
                            eq_status=[core.INDEPENDENT] * n, state=state,
                            mult_count=counter.mults, residual_norm=res,
                            workspace=CompactLUWorkspace(storage=meter, n=n))


# The line-by-line matrix-file reader that matfile.read_matrix replaced,
# kept verbatim: the one-pass reader must give the same values, ints and
# MatrixFileError line numbers and messages.
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
