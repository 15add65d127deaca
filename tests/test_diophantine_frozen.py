"""The exact integer solver's output, frozen.

Two sha256 digests over a fixed grid. ``DIOPHANTINE_DIGEST`` covers
everything ``diophantine`` returns: the ``bezout_gcd`` certificates,
``solve``'s ``x``, ``h``, ``deltas``, ``eq_status`` and ``rank`` (or the
exception text with its ``(row, delta, tau)`` witness), and the
``solutions_in_box`` lists. It moves when a certificate, a fold order, a
basis row or an enumerated point changes.

``VERDICT_DIGEST`` covers only what the solution lattice decides, so a
different basis of the same lattice leaves it as it is: the
``bezout_gcd`` certificates, ``eq_status``, ``deltas`` and ``rank``,
whether ``x`` solves the system (and ``x`` itself where the system is
square of full rank, so that its solution is unique), the exception's
type and row, its ``delta`` and its ``tau`` modulo ``delta``, the
partial report's ``eq_status``, ``deltas`` and ``rank``, and the
``solutions_in_box`` lists. The arithmetic is exact Python integers, so
neither digest depends on a BLAS build or CPU.

The grid: ``kind="diophantine"`` problems at n = 1..20, the small-calls
dio and box units of the benchmark with their planted obstructions,
solves from a given unimodular ``h1`` and starting ``x1``, a strided
sample of acceptance 06's 2x3 systems with their radius-4 boxes, and
boxes of 3x5 systems (lattice dimension 2) and 1x4 systems (dimension
3).
"""

import hashlib
import itertools
import random

from absolve import diophantine, problems
from absolve.errors import AbsError

DIOPHANTINE_DIGEST = ("cccb27846066f7e6e6a6155deeba09e1"
                      "a7460465a2b8498a0494e7ec8de675cd")
VERDICT_DIGEST = ("d22d82a052dfa4ed4a9f62c3129d65c5"
                  "bcf72c041ad1402ef11a362d05a984ed")


def bezout_inputs():
    """Value lists with ties, zeros, +-v pairs and up to 200-bit entries."""
    rng = random.Random(6001)
    inputs = [[], [0], [0, 0, 0], [7], [-7], [4, 6], [6, -4, 6, -6],
              [2 ** 200, -(2 ** 200) + 1, 3]]
    for _ in range(600):
        m = rng.randint(1, 24)
        bits = rng.choice((2, 4, 10, 30, 64, 100, 200))
        pool = [rng.randint(-2 ** bits, 2 ** bits)
                for _ in range(rng.randint(1, m))]
        values = []
        for _ in range(m):
            roll = rng.random()
            if roll < 0.15:
                values.append(0)
            elif roll < 0.55:
                values.append(rng.choice((1, -1)) * rng.choice(pool))
            else:
                values.append(rng.randint(-2 ** bits, 2 ** bits))
        inputs.append(values)
    return inputs


# the benchmark's unit constructors, copied so that the grid stays fixed
# when the benchmark changes


def _plant_obstruction(rng, a, b):
    # scale the last equation by k and move its right side off the
    # multiples of k
    k = rng.choice((2, 3, 5))
    a[-1] = [k * v for v in a[-1]]
    b[-1] = k * b[-1] + rng.randint(1, k - 1)


def _small_system(rng, rows, cols, bound):
    # L [I | B] box systems with a planted solution
    a = [[int(r == c) for c in range(rows)]
         + [rng.randint(-bound, bound) for _ in range(cols - rows)]
         for r in range(rows)]
    for r in range(rows - 1, 0, -1):
        sign = rng.choice((-1, 1))
        a[r] = [v + sign * w for v, w in zip(a[r], a[r - 1])]
    x = [rng.randint(-2, 2) for _ in range(cols)]
    return a, [sum(av * xv for av, xv in zip(row, x)) for row in a]


def _unimodular(rng, n):
    # a product of elementary integer row operations: determinant 1
    h = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            f = rng.randint(-3, 3)
            h[i] = [hv + f * gv for hv, gv in zip(h[i], h[j])]
    return h


def solve_cases():
    """(label, a, b, h1, x1, box radius or None)."""
    cases = []
    for n in range(1, 21):
        for seed in (1, 2, 3):
            p = problems.generate(problems.ProblemSpec(
                kind="diophantine", n=n, seed=6000 + 100 * seed + n))
            a, b = [list(r) for r in p.a_int], list(p.b_int)
            cases.append((f"gen/{n}/{seed}", a, b, None, None, None))
            bad_a, bad_b = [list(r) for r in a], list(b)
            _plant_obstruction(random.Random(seed * 100 + n), bad_a, bad_b)
            cases.append((f"gen-bad/{n}/{seed}", bad_a, bad_b, None, None,
                          None))
    # the small-calls integer units of three benchmark seeds
    for seed in (601, 602, 603):
        rng = random.Random(seed)
        idx = 0
        for n, good, bad in ((8, 4, 4), (12, 2, 2), (16, 3, 3)):
            for j in range(good + bad):
                p = problems.generate(problems.ProblemSpec(
                    kind="diophantine", n=n, seed=seed * 1000 + idx))
                idx += 1
                a, b = [list(r) for r in p.a_int], list(p.b_int)
                if j >= good:
                    _plant_obstruction(rng, a, b)
                cases.append((f"dio/{seed}/{n}/{j}", a, b, None, None,
                              None))
        for rows, cols, bound, radius, count, bad in ((2, 3, 3, 6, 4, 1),
                                                      (3, 5, 1, 3, 4, 1)):
            for j in range(count):
                a, b = _small_system(rng, rows, cols, bound)
                if j >= count - bad:
                    _plant_obstruction(rng, a, b)
                cases.append((f"box/{seed}/{rows}x{cols}/{j}", a, b, None,
                              None, radius))
    # a given unimodular start projector and starting point
    rng = random.Random(6002)
    for n in (1, 2, 3, 5, 8, 12):
        for m in sorted({1, max(1, n // 2), n}):
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
            x = [rng.randint(-4, 4) for _ in range(n)]
            b = [sum(av * xv for av, xv in zip(row, x)) for row in a]
            h1 = _unimodular(rng, n)
            x1 = [rng.randint(-9, 9) for _ in range(n)]
            radius = 2 if n - m <= 2 and n <= 5 else None
            cases.append((f"h1/{m}x{n}", a, b, h1, None, radius))
            cases.append((f"x1/{m}x{n}", a, b, None, x1, radius))
            cases.append((f"h1x1/{m}x{n}", a, b, h1, x1, radius))
            bad_b = list(b)
            bad_b[-1] += 1
            cases.append((f"h1x1-off/{m}x{n}", a, bad_b, h1, x1, None))
    # acceptance 06's 2x3 systems, every 97th (matrix, rhs) pair
    vals = range(-2, 3)
    rhs_list = list(itertools.product(vals, repeat=2))
    pairs = itertools.product(itertools.product(vals, repeat=6), rhs_list)
    for a_flat, b in itertools.islice(pairs, 0, None, 97):
        a = [list(a_flat[:3]), list(a_flat[3:])]
        cases.append((f"06/{a_flat}/{b}", a, list(b), None, None, 4))
    # 3x5 systems (lattice dimension 2) and 1x4 systems (dimension 3)
    rng = random.Random(6003)
    for shape, bound in (((3, 5), 1), ((3, 5), 2), ((1, 4), 2),
                         ((1, 4), 4)):
        rows, cols = shape
        for j in range(12):
            a = [[rng.randint(-bound, bound) for _ in range(cols)]
                 for _ in range(rows)]
            x = [rng.randint(-2, 2) for _ in range(cols)]
            b = [sum(av * xv for av, xv in zip(row, x)) for row in a]
            label = f"lat/{rows}x{cols}/{bound}/{j}"
            cases.append((label, a, b, None, None, j % 4))
    return cases


def _run(a, b, h1, x1, radius):
    try:
        rep = diophantine.solve(a, b, h1=h1, x1=x1)
    except AbsError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "row", None),
                getattr(exc, "delta", None), getattr(exc, "tau", None))
    out = (rep.x, rep.h, rep.deltas, rep.eq_status, rep.rank)
    if radius is not None:
        out += (diophantine.solutions_in_box(rep, radius),)
    return out


def _verdict(a, b, h1, x1, radius):
    try:
        rep = diophantine.solve(a, b, h1=h1, x1=x1)
    except AbsError as exc:
        delta, tau = getattr(exc, "delta", None), getattr(exc, "tau", None)
        part = exc.report
        return (type(exc).__name__, exc.row, delta,
                tau % delta if delta else None,
                part.eq_status, part.deltas, part.rank)
    solves = all(sum(av * xv for av, xv in zip(row, rep.x)) == bv
                 for row, bv in zip(a, b))
    unique = rep.rank == len(a) == len(rep.x)
    out = (rep.deltas, rep.eq_status, rep.rank, solves,
           rep.x if unique else None)
    if radius is not None:
        out += (diophantine.solutions_in_box(rep, radius),)
    return out


def _digest(outcome):
    digest = hashlib.sha256()
    for values in bezout_inputs():
        digest.update(repr((values, diophantine.bezout_gcd(values)))
                      .encode())
    for label, a, b, h1, x1, radius in solve_cases():
        digest.update(repr((label, outcome(a, b, h1, x1, radius)))
                      .encode())
    return digest.hexdigest()


def diophantine_digest():
    return _digest(_run)


def verdict_digest():
    return _digest(_verdict)


def test_diophantine_output_is_frozen():
    assert diophantine_digest() == DIOPHANTINE_DIGEST


def test_diophantine_verdicts_are_frozen():
    assert verdict_digest() == VERDICT_DIGEST
