"""Exact projection solver for integer linear systems.

Works entirely in Python integers (arbitrary precision, no rounding). One
equation is absorbed per step: the projected row ``s = H a_i`` is reduced to
its gcd ``delta`` with an explicit certificate vector ``z`` (``z . s =
delta``), the step length is the exact quotient ``tau / delta``, and the
projector update divides ``s`` by ``delta`` so ``H`` stays integral.

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

After a completed run the rows of ``H`` span the integer null lattice of the
processed rows, so ``x + H^T q`` over all integer ``q`` enumerates every
integer solution exactly.
"""

from bisect import insort
from dataclasses import dataclass
from itertools import product
from operator import mul

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


def bezout_gcd(values):
    """Greatest common divisor with a certificate combination.

    Returns ``(g, z)`` with ``g = gcd(values) >= 0`` and
    ``sum(z[i] * values[i]) == g``. The reduction always folds the two
    currently largest magnitudes into each other, which keeps the
    certificate entries small. All-zero input gives ``(0, [0, ...])``.

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
    keys = [(abs(v), -i, i) for i, v in enumerate(values) if v]
    if not keys:
        return 0, [0] * m

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

    ``x`` is a particular integer solution, ``h`` the final projector
    whose rows span the integer null lattice of the processed rows,
    ``deltas`` the gcd absorbed per independent equation (the invariant
    factors of the elimination order).
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
    h1 : optional initial projector; must be unimodular (determinant +-1)
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
        h = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    else:
        h = _as_int_matrix(h1, "initial projector")
        if len(h) != n or (h and len(h[0]) != n):
            raise ValueError("initial projector must be n x n")
        if bareiss_det(h) not in (1, -1):
            raise ValueError("initial projector must be unimodular")
    x = [0] * n if x1 is None else _as_int_vector(x1, "x1")
    if len(x) != n:
        raise ValueError("x1 length must equal the column count")

    eq_status = []
    deltas = []
    for i in range(m):
        row = a[i]
        tau = sum(map(mul, row, x)) - b[i]
        s = [sum(map(mul, hr, row)) for hr in h]
        if not any(s):
            if tau == 0:
                eq_status.append(REDUNDANT)
                continue
            eq_status.append(INCOMPATIBLE)
            raise IncompatibleSystem(
                i, report=_partial(eq_status, h, deltas, a, b),
                detail=f"projected row vanished, residual {tau}")
        delta, z = bezout_gcd(s)
        if tau % delta != 0:
            eq_status.append(INTEGER_INCOMPATIBLE)
            raise IntegerInconsistent(
                i, delta, tau, report=_partial(eq_status, h, deltas, a, b))
        alpha = tau // delta

        # p = H^T z is both the integer step direction and the row the
        # projector update subtracts; only the rows of H that z uses
        # enter it
        zh = [0] * n
        for zj, hj in zip(z, h):
            if zj:
                zh = [pv + zj * hv for pv, hv in zip(zh, hj)]
        x = [xv - alpha * pv for xv, pv in zip(x, zh)]

        # H <- H - (s/delta) (z^T H); the new rows still span the null
        # lattice of the rows processed so far
        for j, sj in enumerate(s):
            if sj:
                f = sj // delta
                h[j] = [hv - f * zv for hv, zv in zip(h[j], zh)]
        eq_status.append(INDEPENDENT)
        deltas.append(delta)

    return DioReport(x=x, rank=len(deltas), eq_status=eq_status, h=h,
                     deltas=deltas, matrix=a, rhs=b)


def _partial(eq_status, h, deltas, a, b):
    return DioReport(x=None, rank=len(deltas), eq_status=eq_status, h=h,
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


def _lattice_basis(rows):
    """Row basis of the integer lattice generated by ``rows``.

    Euclidean row echelon: entries below each pivot are cleared by
    subtracting integer multiples of the smallest-magnitude row, which
    are unimodular operations, so the generated lattice is unchanged and
    the surviving rows are independent.
    """
    work = [list(r) for r in rows if any(r)]
    if len(work) < 2:
        # no row or one nonzero row: already a basis
        return work
    n = len(work[0])
    done = 0
    for col in range(n):
        live = [i for i in range(done, len(work)) if work[i][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][col]))
            pivot = work[live[0]]
            pv = pivot[col]
            kept = [live[0]]
            for i in live[1:]:
                f = work[i][col] // pv
                if f:
                    work[i] = [a - f * p for a, p in zip(work[i], pivot)]
                if work[i][col] != 0:
                    kept.append(i)
            live = kept
        work[done], work[live[0]] = work[live[0]], work[done]
        done += 1
    return work[:done]


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

    Reduces the projector rows to a lattice basis ``r_1..r_k``; the
    solutions are ``y = x + q_1 r_1 + ... + q_k r_k``. The first k-1
    parameters run over an exact per-coordinate bound derived from the
    adjugate of the basis Gram matrix, so no solution in the box is
    missed. The last one is solved for, not searched: for the partial
    point ``y``, ``|y_c + q_k r_kc| <= radius`` holds for the integers
    ``q_k`` of an interval whose ends are floor quotients, and the
    intersection of these intervals over the coordinates with
    ``r_kc != 0`` (the others must already lie in the box) is exactly
    the set of completions. With k = 1 no bound, Gram matrix or
    adjugate is needed at all. The returned tuple list is complete and
    sorted. Intended for small systems; the enumeration is exponential
    in the lattice dimension minus one.
    """
    if report.x is None:
        raise ValueError("no particular solution: the run was incompatible")
    radius = int(radius)
    x = report.x
    rows = _lattice_basis(report.h)
    k = len(rows)
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
