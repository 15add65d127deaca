"""Exact projection solver for integer linear systems.

Works entirely in Python integers (arbitrary precision, no rounding). It
is the integer ABS class of Esmaeili, Mahdavi-Amiri and Spedicato, with
the n x n projector ``H`` replaced by a basis ``B`` of the integer null
lattice of the rows processed so far: ``n - rank`` rows. One equation is
absorbed per step. The projected row ``s = B a_i`` is reduced to its gcd
``delta`` by a sequence of folds, and the same folds, applied to the rows
of ``B``, leave one row ``p`` with ``p . a_i = delta`` and make every
other row orthogonal to ``a_i``. The step ``x -= (tau / delta) p`` is
exact, and ``p`` leaves the basis. The folds are unimodular, so the rows
that stay are a basis of the new null lattice; no rank-one update
multiplies the entries up.

Solvability splits into three levels per equation and the report records
which one each equation hit:

* ``independent``: the equation fixed one more degree of freedom,
* ``redundant``: implied by earlier equations,
* real incompatibility (no rational solution) raises
  :class:`~absolve.errors.IncompatibleSystem`,
* divisibility failure (rational solutions exist, integer ones do not)
  raises :class:`~absolve.errors.IntegerInconsistent` carrying the witness
  ``(row, delta, tau)``: ``delta`` divides every integer combination of the
  remaining unknowns, ``tau`` is not a multiple of it.

These verdicts and ``delta`` depend only on the lattice, not on the basis
that spans it; ``tau`` is fixed modulo ``delta``.

After a completed run the basis rows span the integer null lattice of
the processed rows, so ``x + B^T q`` over all integer ``q`` enumerates
every integer solution exactly.
"""

from bisect import insort
from dataclasses import dataclass
from itertools import product
from operator import mul, sub

from .errors import IncompatibleSystem, IntegerInconsistent

INDEPENDENT = "independent"
REDUNDANT = "redundant"
INCOMPATIBLE = "incompatible"
INTEGER_INCOMPATIBLE = "incompatible_integer"


# Lists and tuples whose entries all have type int pass the entry check
# as they are, so one scan of the types replaces it; anything else (a
# bool, an np.int64, a float) goes through the entry check.
_SEQUENCES = (list, tuple)
_INT = {int}


def _as_int_matrix(a, what="matrix"):
    rows = [_as_int_vector(r, what) for r in a]
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"{what} rows have unequal lengths")
    return rows


def _as_int_vector(b, what="vector"):
    if type(b) in _SEQUENCES and set(map(type, b)) <= _INT:
        return list(b)
    out = []
    for v in b:
        iv = int(v)
        if iv != v:
            raise ValueError(f"{what} entry {v!r} is not an integer")
        out.append(iv)
    return out


def _folds(values):
    """The gcd of ``values`` as a sequence of folds.

    Returns ``(g, survivor, folds)`` with ``g = gcd(values) >= 0``. Each
    fold ``(a, b, q)`` replaces ``|v_a|`` by ``|v_a| - q |v_b|``, its
    remainder modulo ``|v_b|``; after the last fold ``|v_survivor| = g``
    and every other entry is zero. The two currently largest magnitudes
    fold into each other, which keeps the quotients small. All-zero
    input gives ``(0, None, [])``.

    The fold order is that of re-sorting the live entries by magnitude
    (stable, descending) before every fold, the two at the front folding.
    Here the live entries are held in ascending order of the keys
    ``(|v|, tie, i)``, so the two largest are the last two, and a nonzero
    remainder goes back in by bisection. Initial entries have
    ``tie = -i``: among equal magnitudes the lower index is larger, as
    the stable sort of the index-ordered list has it. Each remainder
    takes a ``tie`` above every earlier one, because the stable sort
    puts the entry just folded, which sits at the front of the list,
    ahead of every other entry of its magnitude.
    """
    keys = [(abs(v), -i, i) for i, v in enumerate(values) if v]
    if not keys:
        return 0, None, []

    keys.sort()
    folds = []
    tie = 0
    while len(keys) > 1:
        va, _, a = keys.pop()
        vb, _, b = keys[-1]
        q, r = divmod(va, vb)
        folds.append((a, b, q))
        if r:
            tie += 1
            insort(keys, (r, tie, a))
    g, _, s = keys[0]
    return g, s, folds


def bezout_gcd(values):
    """Greatest common divisor with a certificate combination.

    Returns ``(g, z)`` with ``g = gcd(values) >= 0`` and
    ``sum(z[i] * values[i]) == g``, reduced by the folds of
    :func:`_folds`. All-zero input gives ``(0, [0, ...])``.

    The certificate comes from one backward pass. Fold ``(a, b, q)``
    replaces entry ``a``'s coefficient row by ``row_a - q row_b``: it
    left-multiplies the coefficient matrix, which starts as
    ``C_0 = diag(sign v)``, by ``E = I - q e_a e_b^T``. For the survivor
    ``s``, ``z^T = e_s^T E_K ... E_1 C_0``. Evaluated from the left, with
    ``w = e_s``, each ``w^T E`` is ``w[b] -= q w[a]``, and finally
    ``z_i = sign(v_i) w_i``: the same integers as carrying a dense
    coefficient vector through every fold, for one scalar update per
    fold.
    """
    values = list(values)
    m = len(values)
    g, s, folds = _folds(values)
    if not g:
        return 0, [0] * m
    w = [0] * m
    w[s] = 1
    for a, b, q in reversed(folds):
        wa = w[a]
        if wa:
            w[b] -= q * wa
    return g, [wi if v > 0 else -wi for wi, v in zip(w, values)]


def bareiss_det(mat):
    """Exact determinant of a square integer matrix (fraction-free)."""
    a = [list(map(int, r)) for r in mat]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("need a square matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
            a[r][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass
class DioReport:
    """Outcome of an integer projection solve.

    ``x`` is a particular integer solution and ``deltas`` the gcd
    absorbed per independent equation (the invariant factors of the
    elimination order). ``h`` is n x n: its first ``n - rank`` rows are
    a basis of the integer null lattice of the processed rows, and its
    last ``rank`` rows are zero. A partial report's ``h`` holds the basis
    the failing row met, laid out the same way.
    """

    x: list
    rank: int
    eq_status: list
    h: list
    deltas: list
    matrix: list
    rhs: list


def solve(a, b, h1=None, x1=None):
    """Find an integer solution of ``A x = b`` and the full solution lattice.

    Parameters
    ----------
    a, b : integer matrix (m x n) and integer right-hand side (m,).
    h1 : optional initial basis; must be unimodular (determinant +-1)
        so that its rows span the full integer lattice.
    x1 : optional integer starting point.

    Returns a :class:`DioReport`; see the module docstring for the failure
    exceptions. Arithmetic is exact and unmetered.
    """
    a = _as_int_matrix(a)
    b = _as_int_vector(b, "rhs")
    m = len(a)
    if len(b) != m:
        raise ValueError("rhs length must equal the row count")
    n = len(a[0]) if m else 0

    if h1 is None:
        basis = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    else:
        basis = _as_int_matrix(h1, "initial projector")
        if len(basis) != n or (basis and len(basis[0]) != n):
            raise ValueError("initial projector must be n x n")
        if bareiss_det(basis) not in (1, -1):
            raise ValueError("initial projector must be unimodular")
    x = [0] * n if x1 is None else _as_int_vector(x1, "x1")
    if len(x) != n:
        raise ValueError("x1 length must equal the column count")

    eq_status = []
    deltas = []
    for i in range(m):
        row = a[i]
        tau = sum(map(mul, row, x)) - b[i]
        s = [sum(map(mul, br, row)) for br in basis]
        delta, survivor, folds = _folds(s)
        if not delta:
            if tau == 0:
                eq_status.append(REDUNDANT)
                continue
            eq_status.append(INCOMPATIBLE)
            raise IncompatibleSystem(
                i, report=_report(None, eq_status, basis, deltas, a, b),
                detail=f"projected row vanished, residual {tau}")
        if tau % delta != 0:
            eq_status.append(INTEGER_INCOMPATIBLE)
            raise IntegerInconsistent(
                i, delta, tau,
                report=_report(None, eq_status, basis, deltas, a, b))

        # the folds act on |s|: with the rows of negative s negated, fold
        # (j, k, q) is the unimodular row operation b_j -= q b_k, after
        # which b_j . a_i is the fold's remainder
        for j, sj in enumerate(s):
            if sj < 0:
                basis[j] = [-v for v in basis[j]]
        for j, k, q in folds:
            if q == 1:
                basis[j] = list(map(sub, basis[j], basis[k]))
            else:
                basis[j] = [u - q * v for u, v in zip(basis[j], basis[k])]
        # p . a_i = delta; the other rows now lie in the null lattice
        p = basis.pop(survivor)
        alpha = tau // delta
        x = [xv - alpha * pv for xv, pv in zip(x, p)]
        eq_status.append(INDEPENDENT)
        deltas.append(delta)

    return _report(x, eq_status, basis, deltas, a, b)


def _report(x, eq_status, basis, deltas, a, b):
    # h is n x n: the basis rows, then one zero row per independent row
    n = len(a[0]) if a else 0
    h = basis + [[0] * n for _ in range(n - len(basis))]
    return DioReport(x=x, rank=len(deltas), eq_status=eq_status, h=h,
                     deltas=deltas, matrix=a, rhs=b)


def general_solution(report, q):
    """Integer solution ``x + H^T q`` for an integer parameter vector q."""
    if report.x is None:
        raise ValueError("no particular solution: the run was incompatible")
    q = _as_int_vector(q, "parameter vector")
    n = len(report.x)
    if len(q) != n:
        raise ValueError("parameter vector length must equal the unknowns")
    return list(_shift(report.x, q, report.h))


def _shift(x, q, rows):
    """The point ``x + sum_j q_j rows_j``."""
    for qj, rj in zip(q, rows):
        if qj:
            x = [xv + qj * rv for xv, rv in zip(x, rj)]
    return x


def _adjugate(mat):
    """Exact adjugate of a small square integer matrix via minors."""
    k = len(mat)
    if k == 0:
        return []
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [[mat[r][c] for c in range(k) if c != j]
                     for r in range(k) if r != i]
            adj[j][i] = (-1) ** (i + j) * bareiss_det(minor)
    return adj


def solutions_in_box(report, radius):
    """All integer solutions with every component in [-radius, radius].

    With the report's basis rows ``r_1..r_k``, the first ``n - rank`` rows
    of ``h``, the solutions are ``y = x + q_1 r_1 + ... + q_k r_k``. The
    first k-1 parameters run over an exact per-coordinate bound derived from
    the adjugate of the basis Gram matrix, so no solution in the box is
    missed. The last one is solved for, not searched: for the partial point
    ``y``, ``|y_c + q_k r_kc| <= radius`` holds for the integers ``q_k`` of
    an interval whose ends are floor quotients, and the intersection of
    these intervals over the coordinates with ``r_kc != 0`` (the others must
    already lie in the box) is exactly the set of completions. With k = 1 no
    bound, Gram matrix or adjugate is needed at all. The returned tuple list
    is complete and sorted. Intended for small systems; the enumeration is
    exponential in the lattice dimension minus one.
    """
    if report.x is None:
        raise ValueError("no particular solution: the run was incompatible")
    radius = int(radius)
    x = report.x
    k = len(x) - report.rank
    rows = report.h[:k]
    if k == 0:
        if all(abs(v) <= radius for v in x):
            return [tuple(x)]
        return []

    *head, last = rows
    if head:
        # q is recovered from a target y by q = (H H^T)^{-1} H (y - x);
        # bound each |q_j| through the adjugate so the box below cannot
        # miss one
        gram = [[sum(map(mul, ra, rb)) for rb in rows] for ra in rows]
        det = bareiss_det(gram)
        adj = _adjugate(gram)
        hy_bound = [sum(abs(c) * (radius + abs(xv)) for c, xv in zip(r, x))
                    for r in rows]
        q_bounds = [sum(abs(adj[j][l]) * hy_bound[l] for l in range(k))
                    // abs(det) + 1 for j in range(k - 1)]
        starts = (_shift(x, q, head) for q in
                  product(*(range(-qb, qb + 1) for qb in q_bounds)))
    else:
        starts = [x]

    # q_k r_kc + y_c in [-radius, radius], with the floor quotients of
    # the interval ends taken toward its inside
    up = [(c, rv) for c, rv in enumerate(last) if rv > 0]
    down = [(c, -rv) for c, rv in enumerate(last) if rv < 0]
    fixed = [c for c, rv in enumerate(last) if rv == 0]
    out = []
    for y in starts:
        if any(abs(y[c]) > radius for c in fixed):
            continue
        lo = max([-((radius + y[c]) // rv) for c, rv in up]
                 + [-((radius - y[c]) // rv) for c, rv in down])
        hi = min([(radius - y[c]) // rv for c, rv in up]
                 + [(radius + y[c]) // rv for c, rv in down])
        for qk in range(lo, hi + 1):
            out.append(tuple([yv + qk * rv for yv, rv in zip(y, last)]))
    out.sort()
    return out
