"""The benchmark's three workloads.

Each workload builds its inputs from the seed, then exposes one *cycle*: a
fixed list of units, each a call into absolve plus a check of its result.
run.py repeats whole cycles, so every run times the same mix of units
and the median and tail land on the same kind of unit from run to run.

Results are checked after the timed phase: a unit's first result is
checked in full, and every later run of the same unit must reproduce it
exactly (same bytes, same multiply count).  An expected certificate, such
as ``IncompatibleSystem`` on a planted contradiction or
``IntegerInconsistent`` on a planted gcd obstruction, is a success.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import time
from math import gcd
from typing import Callable

import numpy as np

from absolve import cli, diophantine, kt, matfile, matrixeq, problems
from absolve.errors import IntegerInconsistent, RegularityFailure

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "bench_digests.json")

# accuracy gates: the float systems are exactly representable and well
# conditioned (strictly diagonally dominant or unit-triangular factors)
SOLUTION_TOL = 1e-8
RESIDUAL_TOL = 1e-10


@dataclasses.dataclass
class Unit:
    """One unit of work; ``call`` is timed, ``check`` runs afterwards."""

    key: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def fingerprint(result):
    """Digest of a unit's result; repeated runs must reproduce it."""
    return hashlib.sha256(repr(_canonical(result)).encode()).hexdigest()


def _canonical(obj):
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.dtype.str, obj.shape,
                hashlib.sha256(np.ascontiguousarray(obj).tobytes())
                .hexdigest())
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        # wall time is the only field that may differ between repeats
        return (type(obj).__name__,) + tuple(
            (f.name, _canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj) if f.name != "elapsed_seconds")
    return obj


def _rel(x, ref):
    return float(np.linalg.norm(x - ref)) / (float(np.linalg.norm(ref))
                                             or 1.0)


def _float_check(a, b, x_ref, rank):
    """Check (x, rank, mults) against the planted solution."""
    def check(result):
        x, got_rank, _ = result
        if got_rank != rank:
            return f"rank {got_rank}, expected {rank}"
        if _rel(x, x_ref) > SOLUTION_TOL:
            return f"solution error {_rel(x, x_ref):.2e}"
        res = float(np.linalg.norm(a @ x - b)) / float(np.linalg.norm(b))
        if res > RESIDUAL_TOL:
            return f"residual {res:.2e}"
        return None
    return check


class Workload:
    """Inputs for one seed, a warm-up and the cycle of units."""

    name = ""
    TAIL = None  # percentile reported as solve_tail_s

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch

    def warm_up(self):
        """First calls of every code path, kept out of the timed phase."""

    def prepare(self):
        """Build the inputs from the seed; returns the cycle of units."""
        raise NotImplementedError

    def after(self):
        """Extra checks run once after the timed phase: [(name, error)]."""
        return []

    def lapack_cycle_s(self):
        """Seconds LAPACK needs for one cycle's systems, or 0."""
        return 0.0


def _warm_engine():
    p = problems.generate(problems.ProblemSpec(kind="determined", n=12,
                                               seed=1))
    for method in ("huang", "mhuang", "ilu", "iqr", "gilu",
                   "absm:m=3:y=normal"):
        problems.run_method(method, p.a, p.b)
    np.linalg.solve(p.a, p.b)
    np.linalg.lstsq(p.a, p.b, rcond=None)


class DenseLarge(Workload):
    name = "dense-large"

    METHODS = ("huang", "mhuang", "ilu", "iqr", "gilu")
    # the n=300 system's five cheap units run twice per cycle, before the
    # first and before the middle n=600 unit, so that they get twice the
    # repeats in a run; sorted by cost, the median falls inside the n=300
    # results and the p75 tail inside the n=600 ones
    SMALL, LARGE = 300, 600
    SMALL_PASSES = 2
    TAIL = 75.0

    def warm_up(self):
        _warm_engine()

    def prepare(self):
        self.systems = []
        small = self._units(0, self.SMALL)
        large = self._units(1, self.LARGE)
        step = -(-len(large) // self.SMALL_PASSES)
        cycle = []
        for k in range(self.SMALL_PASSES):
            cycle += small + large[k * step:(k + 1) * step]
        return cycle

    def _units(self, idx, n):
        p = problems.generate(problems.ProblemSpec(
            kind="determined", n=n, seed=self.seed * 1000 + idx))
        self.systems.append(p)
        return [Unit(key=f"{method}/n{n}/{idx}",
                     call=lambda p=p, m=method: problems.run_method(
                         m, p.a, p.b),
                     check=_float_check(p.a, p.b, p.x_true, n))
                for method in self.METHODS]

    def lapack_cycle_s(self):
        total = 0.0
        for p, passes in zip(self.systems, (self.SMALL_PASSES, 1)):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                np.linalg.solve(p.a, p.b)
                times.append(time.perf_counter() - t0)
            total += sorted(times)[2] * len(self.METHODS) * passes
        return total


class BenchSuite(Workload):
    name = "bench-suite"

    # (kind, n, count per cycle): the overdetermined pair runs twice per
    # cycle, the second time after the first kt n=150 unit, so that it gets
    # twice the repeats in a run; sorted by cost, three runs cost less than
    # its four and four more, so the median falls inside the overdetermined
    # runs and the p75 tail inside the kt n=150 pair
    PLAN = (("underdetermined", 100, 1), ("determined", 100, 1),
            ("kt", 100, 1), ("overdetermined", 100, 2),
            ("underdetermined", 200, 1), ("kt", 150, 2),
            ("determined", 200, 1))
    TAIL = 75.0

    def warm_up(self):
        _warm_engine()
        p = problems.generate(problems.ProblemSpec(kind="kt", n=8, seed=1))
        kt.KTSolver(p.kt_system).solve("a1", "b1")

    def prepare(self):
        units = []
        idx = 0
        for kind, n, count in self.PLAN:
            for _ in range(count):
                spec = dict(kind=kind, n=n, seed=self.seed * 1000 + idx)
                if kind == "determined":
                    spec["target_rank"] = 3 * n // 4
                idx += 1
                if kind == "kt":
                    units.append(Unit(
                        key=f"kt/n{n}/{idx}",
                        call=lambda s=spec: _kt_unit(s),
                        check=lambda r, s=spec: _check_kt_unit(s, r)))
                else:
                    units.append(Unit(
                        key=f"{kind}/n{n}/{idx}",
                        call=lambda s=spec: _bench_unit(s),
                        check=lambda r, s=spec: _check_bench_unit(s, r)))
        again = [u for u in units if u.key.startswith("overdetermined/")]
        first_kt150 = next(i for i, u in enumerate(units)
                           if u.key.startswith("kt/n150/"))
        return units[:first_kt150 + 1] + again + units[first_kt150 + 1:]

    def after(self):
        """Default ``absolve bench`` tables must keep their recorded bytes."""
        with open(DIGEST_FILE, encoding="ascii") as fh:
            recorded = json.load(fh)
        out = []
        for suite, digest in bench_table_digests().items():
            error = None
            if recorded.get(suite) != digest:
                error = f"bench table bytes changed (sha256 {digest})"
            out.append((f"bench-table/{suite}", error))
        return out


def bench_table_digests():
    """sha256 of each default ``absolve bench`` table at seed 1."""
    digests = {}
    for suite in cli.SUITES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["bench", "--suite", suite])
        text = buf.getvalue() + f"exit {code}\n"
        digests[suite] = hashlib.sha256(text.encode("ascii")).hexdigest()
    return digests


def _suite_methods(kind):
    return cli.DEFAULT_METHODS[kind].split(",")


def _bench_unit(spec):
    problem = problems.generate(problems.ProblemSpec(**spec))
    rows = []
    for method in _suite_methods(spec["kind"]):
        try:
            rows.append((method, problems.evaluate(method, problem)))
        except RegularityFailure as exc:
            rows.append((method, ("RegularityFailure", exc.row)))
    return rows


def _check_bench_unit(spec, rows):
    rank = spec.get("target_rank")
    for method, result in rows:
        if isinstance(result, tuple):
            # implicit LU certifies the first vanishing leading minor,
            # which for the planted rank-r factors is at row r
            if method != "ilu" or rank is None or result[1] != rank:
                return f"{method}: unexpected breakdown {result}"
            continue
        if result.rel_solution_error > SOLUTION_TOL:
            return f"{method}: solution error {result.rel_solution_error}"
        if result.rel_residual_error > RESIDUAL_TOL:
            return f"{method}: residual {result.rel_residual_error}"
        want = rank if rank is not None else min(
            spec["n"], problems.ProblemSpec(**spec).m)
        if result.detected_rank != want:
            return f"{method}: rank {result.detected_rank}, expected {want}"
    return None


def _kt_unit(spec):
    """One saddle-point problem: one solver runs all four stage pairs."""
    problem = problems.generate(problems.ProblemSpec(**spec))
    solver = kt.KTSolver(problem.kt_system)
    reports = [solver.solve(p, z) for p in kt.P_METHODS
               for z in kt.Z_METHODS]
    return solver.c_stage_mults, reports


def _check_kt_unit(spec, result):
    stage_mults, reports = result
    problem = problems.generate(problems.ProblemSpec(**spec))
    b_norm = float(np.linalg.norm(problem.b))
    for k, rep in enumerate(reports):
        tag = f"kt:{rep.p_method}{rep.z_method}"
        x = np.concatenate([rep.p, rep.z])
        if _rel(x, problem.x_true) > SOLUTION_TOL:
            return f"{tag}: solution error {_rel(x, problem.x_true):.2e}"
        if rep.residual_norm > RESIDUAL_TOL * b_norm:
            return f"{tag}: residual {rep.residual_norm:.2e}"
        # only the first call pays for the constraint stage; a fresh
        # solver pays for it on every call
        fresh = kt.KTSolver(problem.kt_system).solve(rep.p_method,
                                                     rep.z_method)
        reused = rep.mult_count + (stage_mults if k else 0)
        if fresh.mult_count != reused:
            return f"{tag}: constraint stage not reused ({rep.mult_count} " \
                   f"multiplies, fresh solver {fresh.mult_count})"
    return None


class SmallCli(Workload):
    """``absolve solve`` calls run in-process through ``cli.main``.

    The per-row Python overhead, ``matfile`` parsing and ``cli`` dispatch
    dominate, not BLAS.  The first part of the small-calls cycle.
    """

    SIZES = (8, 16, 24, 32, 40)
    METHODS = ("huang", "mhuang", "ilu", "iqr", "gilu", "absm:m=3:y=normal")
    KT_SIZES = (8, 16, 24)
    INCOMPATIBLE_SIZES = (12, 20, 28)

    def warm_up(self):
        _warm_engine()
        d = self._dir("warm")
        p = problems.generate(problems.ProblemSpec(kind="determined", n=6,
                                                   seed=1))
        a, b = self._write(d, "w", p.a, p.b, "real")
        _cli(["solve", a, b, "--method", "huang"])
        _cli(["solve", a, b, "--method", "huang", "--out",
              os.path.join(d, "x.txt")])
        matrixeq.quasi_newton_solve(np.ones(2), np.ones(2), ("symmetry",))

    def _dir(self, tag):
        d = os.path.join(self.scratch, f"{self.name}-{tag}")
        os.makedirs(d, exist_ok=True)
        return d

    @staticmethod
    def _write(d, tag, a, b, kind):
        a_path = os.path.join(d, f"{tag}-a.txt")
        b_path = os.path.join(d, f"{tag}-b.txt")
        matfile.write_matrix(a_path, a, kind=kind)
        matfile.write_matrix(b_path, b, kind=kind)
        return a_path, b_path

    def prepare(self):
        d = self._dir(f"s{self.seed}")
        rng = random.Random(self.seed)
        units = []
        idx = 0
        for n in self.SIZES:
            p = problems.generate(problems.ProblemSpec(
                kind="determined", n=n, seed=self.seed * 1000 + idx))
            kind = "real" if n % 16 else "integer"
            a, b = self._write(d, f"r{n}", p.a, p.b, kind)
            for method in self.METHODS:
                argv = ["solve", a, b, "--method", method]
                out = None
                if method == "huang":
                    out = os.path.join(d, f"x{n}.txt")
                    argv += ["--out", out]
                tol = 1e-6 if method.startswith("absm") else SOLUTION_TOL
                units.append(Unit(
                    key=f"cli:{method}/n{n}",
                    call=lambda v=argv, o=out: _cli(v, o),
                    check=_expect_solution(p.a, p.b, p.x_true, n, tol)))
            idx += 1
        for n in self.KT_SIZES:
            p = problems.generate(problems.ProblemSpec(
                kind="kt", n=n, seed=self.seed * 1000 + idx))
            a, b = self._write(d, f"k{n}", p.a, p.b, "integer")
            argv = ["solve", a, b, "--method", "kt:a2b2", "--kt-m",
                    str(p.kt_m)]
            units.append(Unit(
                key=f"cli:kt:a2b2/n{n}", call=lambda v=argv: _cli(v),
                check=_expect_solution(p.a, p.b, p.x_true, n + p.kt_m,
                                       SOLUTION_TOL)))
            idx += 1
        for n in self.INCOMPATIBLE_SIZES:
            p = problems.generate(problems.ProblemSpec(
                kind="determined", n=n, seed=self.seed * 1000 + idx))
            # the last equation is the sum of the first two with its right
            # side moved by one: dependent and contradictory
            a_bad = p.a.copy()
            b_bad = p.b.copy()
            a_bad[-1] = a_bad[0] + a_bad[1]
            b_bad[-1] = b_bad[0] + b_bad[1] + 1.0
            a, b = self._write(d, f"i{n}", a_bad, b_bad, "real")
            for method in ("huang", "mhuang"):
                argv = ["solve", a, b, "--method", method]
                units.append(Unit(
                    key=f"cli:{method}/incompatible-n{n}",
                    call=lambda v=argv: _cli(v),
                    check=lambda r, row=n - 1: _expect_incompatible(r, row)))
            idx += 1
        for k in range(3):
            units.append(_matrixeq_unit(rng, 3, 6, k))
            units.append(_quasi_newton_unit(rng, 4, k))
        return units


def _cli(argv, out=None):
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        code = cli.main(argv)
    text = so.getvalue()
    if out is not None and code == 0:
        with open(out, encoding="ascii") as fh:
            text = fh.read()
    return code, text, se.getvalue()


def _parse_solution(text):
    """Solution values from printed floats or a written matrix file."""
    values = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("%")]
    if lines and lines[0].endswith(("real", "integer")):
        lines = lines[1:]
    for ln in lines:
        values.extend(float(v) for v in ln.split())
    return np.array(values)


def _expect_solution(a, b, x_true, rank, tol):
    def check(result):
        code, text, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        if err.strip() != f"rank {rank}":
            return f"stderr {err.strip()!r}, expected 'rank {rank}'"
        x = _parse_solution(text)
        if x.shape != x_true.shape or _rel(x, x_true) > tol:
            return "solution differs from the planted one"
        return None
    return check


def _expect_incompatible(result, row):
    code, _, err = result
    if code != 1 or not err.startswith(f"absolve: equation {row}:"):
        return f"exit {code}: {err.strip()!r}, expected incompatible " \
               f"equation {row}"
    return None


def _matrixeq_unit(rng, n, m, k):
    x_true = np.array([[rng.randint(-5, 5) for _ in range(n)]
                       for _ in range(n)], dtype=float)
    terms = [np.array([[rng.randint(-3, 3) for _ in range(n)]
                       for _ in range(n)], dtype=float) for _ in range(m)]
    rhs = np.array([float(np.sum(t * x_true)) for t in terms])
    system = matrixeq.MatrixSystem(terms=terms, rhs=rhs)

    def check(result):
        x, _ = result
        res = max(abs(float(np.sum(t * x)) - r) for t, r in zip(terms, rhs))
        if res > RESIDUAL_TOL * (1.0 + float(np.abs(rhs).max())):
            return f"matrix equation residual {res:.2e}"
        return None

    def call():
        rep = matrixeq.solve(system)
        return rep.x, rep.rank
    return Unit(key=f"matrixeq/n{n}/{k}", call=call, check=check)


def _quasi_newton_unit(rng, n, k):
    delta = np.array([rng.randint(1, 5) for _ in range(n)], dtype=float)
    r = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=float)

    def check(b_mat):
        if float(np.abs(b_mat @ delta - r).max()) > 1e-9:
            return "secant equation not met"
        if float(np.abs(b_mat - b_mat.T).max()) > 1e-12:
            return "secant matrix not symmetric"
        return None
    return Unit(key=f"quasi-newton/n{n}/{k}",
                call=lambda: matrixeq.quasi_newton_solve(delta, r,
                                                         ("symmetry",)),
                check=check)


class IntegerExact(Workload):
    """The exact integer loop, which shares no code with the float engine.

    The second part of the small-calls cycle.
    """

    # (n, consistent count, obstructed count) per cycle
    DIO = ((8, 4, 4), (12, 2, 2), (16, 3, 3))
    # (rows, cols, entry bound, box radius, count, obstructed count)
    BOXES = ((2, 3, 3, 6, 4, 1), (3, 5, 1, 3, 4, 1))

    def warm_up(self):
        rep = diophantine.solve([[2, 3, 5], [1, 4, 7]], [3, 5])
        diophantine.solutions_in_box(rep, 2)

    def prepare(self):
        rng = random.Random(self.seed)
        units = []
        idx = 0
        for n, good, bad in self.DIO:
            for j in range(good + bad):
                p = problems.generate(problems.ProblemSpec(
                    kind="diophantine", n=n, seed=self.seed * 1000 + idx))
                idx += 1
                a, b = [list(r) for r in p.a_int], list(p.b_int)
                if j >= good:
                    _plant_obstruction(rng, a, b)
                units.append(Unit(key=f"dio/n{n}/{j}",
                                  call=lambda a=a, b=b: _dio_unit(a, b),
                                  check=lambda r, a=a, b=b:
                                  _check_dio(a, b, r, None)))
        for rows, cols, bound, radius, count, bad in self.BOXES:
            for j in range(count):
                a, b = _small_system(rng, rows, cols, bound)
                if j >= count - bad:
                    _plant_obstruction(rng, a, b)
                units.append(Unit(
                    key=f"box/{rows}x{cols}/{j}",
                    call=lambda a=a, b=b, r=radius: _dio_unit(a, b, r),
                    check=lambda res, a=a, b=b, r=radius:
                    _check_dio(a, b, res, r)))
        return units


def _plant_obstruction(rng, a, b):
    """Scale the last equation by k and move its right side off the
    multiples of k.

    The real solution survives; an integer one cannot, since k divides the
    left side for every integer x but not the right.  The exact loop only
    meets the obstruction at the last row, so the unit costs about as much
    as a consistent solve.
    """
    k = rng.choice((2, 3, 5))
    a[-1] = [k * v for v in a[-1]]
    b[-1] = k * b[-1] + rng.randint(1, k - 1)


def _small_system(rng, rows, cols, bound):
    """Integer system L [I | B] x = b with a planted solution near zero.

    L is unit lower bidiagonal with +-1 entries, so A has full row rank and
    the same integer null lattice as [I | B]; small B keeps the box
    enumeration of solutions_in_box short.
    """
    a = [[int(r == c) for c in range(rows)]
         + [rng.randint(-bound, bound) for _ in range(cols - rows)]
         for r in range(rows)]
    for r in range(rows - 1, 0, -1):
        sign = rng.choice((-1, 1))
        a[r] = [v + sign * w for v, w in zip(a[r], a[r - 1])]
    x = [rng.randint(-2, 2) for _ in range(cols)]
    b = [sum(av * xv for av, xv in zip(row, x)) for row in a]
    return a, b


def _dio_unit(a, b, radius=None):
    try:
        rep = diophantine.solve(a, b)
    except IntegerInconsistent as exc:
        return ("IntegerInconsistent", exc.row, exc.delta, exc.tau)
    box = None if radius is None else diophantine.solutions_in_box(rep,
                                                                   radius)
    return ("solved", rep.x, rep.rank, box)


def _det(mat):
    """Exact determinant by fraction-free elimination (Bareiss)."""
    m = [list(r) for r in mat]
    k = len(m)
    sign, prev = 1, 1
    for i in range(k - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, k) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[k - 1][k - 1] if k else 1


def _minor_gcd(a):
    """gcd of the maximal minors of a (rows <= cols)."""
    rows, cols = len(a), len(a[0])
    g = 0
    for cs in itertools.combinations(range(cols), rows):
        g = gcd(g, _det([[a[r][c] for c in cs] for r in range(rows)]))
    return g


def integer_solvable(a, b):
    """Independent verdict for full-row-rank a: gcd of maximal minors of a
    equals that of [a | b] exactly when an integer solution exists."""
    ab = [row + [bv] for row, bv in zip(a, b)]
    g = _minor_gcd(a)
    if g == 0:
        raise ValueError("matrix is not of full row rank")
    return g == _minor_gcd(ab)


def _box_grid(a, b, radius):
    """Integer points of the box satisfying a x = b, by brute force."""
    cols = len(a[0])
    axis = np.arange(-radius, radius + 1)
    grid = np.stack(np.meshgrid(*([axis] * cols), indexing="ij"),
                    axis=-1).reshape(-1, cols)
    hit = np.all(grid @ np.array(a).T == np.array(b), axis=1)
    return sorted(tuple(int(v) for v in pt) for pt in grid[hit])


def _check_dio(a, b, result, radius):
    solvable = integer_solvable(a, b)
    if result[0] == "IntegerInconsistent":
        _, row, delta, tau = result
        if solvable:
            return "IntegerInconsistent on a solvable system"
        if delta == 0 or tau % delta == 0:
            return f"bad certificate delta={delta} tau={tau}"
        return None
    _, x, rank, box = result
    if not solvable:
        return "solved a system with no integer solution"
    if rank != len(a):
        return f"rank {rank}, expected {len(a)}"
    if any(sum(av * xv for av, xv in zip(row, x)) != bv
           for row, bv in zip(a, b)):
        return "integer solution does not satisfy the system"
    if radius is not None and box != _box_grid(a, b, radius):
        return "solutions_in_box differs from the brute-force grid"
    return None


class SmallCalls(SmallCli, IntegerExact):
    """The CLI calls and the exact integer solves in one cycle.

    Both are calls of about ten milliseconds or less, and together they fill
    one workload so that the benchmark's runs can be longer.  The per-layer
    metrics keep them apart: ``cli``, ``matfile`` and ``matrixeq`` on one
    side, ``diophantine`` on the other.
    """

    name = "small-calls"
    # the slowest units, the six dio solves at n=16, are six in 71: p99
    # falls inside the slowest of them
    TAIL = 99.0

    def warm_up(self):
        SmallCli.warm_up(self)
        IntegerExact.warm_up(self)

    def prepare(self):
        return SmallCli.prepare(self) + IntegerExact.prepare(self)


WORKLOADS = {w.name: w for w in (DenseLarge, BenchSuite, SmallCalls)}
