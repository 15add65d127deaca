"""Exactly representable test problems and benchmark metrics.

Generated systems have integer (or power-of-two) entries, an integer
reference solution, and a right-hand side computed in exact integer
arithmetic, so every stored float is exact and solver errors measure the
solver, not the data. Construction is deterministic: a fixed 64-bit
linear congruential generator (documented in :class:`Lcg64`) drives all
randomness, so equal seeds reproduce problems bit for bit anywhere.

Families:

* ``regular``: square, strictly diagonally dominant integers, so every
  leading principal minor is nonzero (safe for the pivotless LU-style
  strategies) and the condition number stays moderate.
* ``rankdef``: an m x r times r x n product of full-rank integer
  factors with unit-triangular leading blocks; the rank is exactly r by
  construction.
* ``hilbert-like-int``: the classical ill-conditioned reciprocal matrix
  scaled by lcm(1..2n-1) to integers (n <= 12).
* ``twopower-illcond``: upper-bidiagonal with a geometric power-of-two
  diagonal; condition grows as 2^(n-1) while all entries stay exact.

``kind`` selects the shape contract: determined / overdetermined /
underdetermined linear systems, assembled saddle-point systems (``kt``),
or integer systems for the exact solver (``diophantine``).

The integers stay in numpy arrays until the end. Integer products (the
rank-deficient factors, the KT block ``B B^T``, every ``b = A x``) run
on BLAS in float64 whenever ``inner * max|a| * max|b| <= 2^53``: every
product and every partial sum is then an integer of magnitude at most
2^53, which float64 holds exactly, so no rounding can happen in any
summation order, with fused multiply-adds or on any number of threads.
When the bound fails (``twopower-illcond`` from n=46 at the default
``entry_bound``, large ``entry_bound``) the product is taken in Python
ints. Draws come in blocks of the same stream (:meth:`Lcg64.randints`).
"""

import time
from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from . import core, diophantine, iterative, kt, strategies
from .errors import UnrepresentableEntry

EXACT_LIMIT = 2 ** 53

# entries of ``a`` per float64 block of :func:`_matmul_int` (64 KiB):
# with 32K-entry blocks the bench-suite benchmark's peak RSS read 0.5 MB
# higher
_PRODUCT_BLOCK = 8192

KINDS = ("determined", "overdetermined", "underdetermined", "kt",
         "diophantine")
FAMILIES = ("regular", "rankdef", "hilbert-like-int", "twopower-illcond")

# engine strategies whose zero-start solutions are least-norm; their
# solution-error reference on rank-deficient systems is the least-norm
# solution rather than the planted one
LEAST_NORM_METHODS = {"huang", "mhuang", "stable"}
# method heads whose solvers take no tolerance override
_NO_TOL_METHODS = ("kt", "dio", "absm")


class Lcg64:
    """Deterministic 64-bit linear congruential generator.

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64,
    seeded by one warm-up step from the user seed. ``randint`` draws
    uniformly from the leading bits via rejection sampling, so sequences
    are identical on any platform and language.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    # jump-ahead over one block of states, the largest table kept:
    # s_k = MULT^k s_0 + INC * sum_{j<k} MULT^j (mod 2^64), k = 1.._BLOCK;
    # uint64 products and sums wrap mod 2^64
    _BLOCK = 4096
    _POWERS = np.cumprod(np.full(_BLOCK, MULT, dtype=np.uint64))
    _OFFSETS = np.uint64(INC) * np.cumsum(
        np.concatenate(([np.uint64(1)], _POWERS[:-1])))

    def __init__(self, seed):
        self.state = (int(seed) * self.MULT + self.INC) & self.MASK

    def next_u64(self):
        self.state = (self.state * self.MULT + self.INC) & self.MASK
        return self.state

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi], endpoints included.

        Divides by a fixed chunk so the value comes from the leading
        bits; the low bits of a power-of-two-modulus linear generator
        cycle with tiny periods and must not reach the caller. Ranges of
        more than 2^64 values raise ``ValueError``.
        """
        span = hi - lo + 1
        chunk = self._chunk(span)
        while True:
            v = self.next_u64() // chunk
            if v < span:
                return lo + v

    def randints(self, lo, hi, count):
        """``count`` draws of :meth:`randint` as one array.

        Equal to ``[self.randint(lo, hi) for _ in range(count)]``,
        rejections included, and leaves the same ``state``. The values
        are int64 when [lo, hi] fits int64, else Python ints in an
        object array.
        """
        span = hi - lo + 1
        chunk = self._chunk(span)
        if chunk > self.MASK:
            # a one-value range
            return _int_array([self.randint(lo, hi) for _ in range(count)])
        fits = -(1 << 63) <= lo and hi < 1 << 63
        out = np.empty(count, dtype=np.int64 if fits else object)
        done = 0
        while done < count:
            size = min(count - done, self._BLOCK)
            states = (self._POWERS[:size] * np.uint64(self.state)
                      + self._OFFSETS[:size])
            self.state = int(states[-1])
            v = states // np.uint64(chunk)
            v = v[v <= np.uint64(span - 1)]
            # in int64 the sum wraps back into [lo, hi]
            out[done:done + v.size] = v.astype(out.dtype) + lo
            done += v.size
        return out

    @staticmethod
    def _chunk(span):
        """Divisor that maps a state to a draw from ``span`` values."""
        if span <= 0:
            raise ValueError("empty range")
        if span > 1 << 64:
            raise ValueError(
                f"range of {span} values is wider than the generator's "
                f"2^64 states")
        return (1 << 64) // span

    def nonzero(self, bound):
        """Uniform nonzero integer with magnitude <= bound."""
        v = self.randint(1, bound)
        return v if self.randint(0, 1) else -v


@dataclass
class ProblemSpec:
    """What to generate: shape kind, sizes, rank, entry range, seed."""

    kind: str
    n: int
    m: int | None = None
    target_rank: int | None = None
    entry_bound: int = 9
    seed: int = 0
    family: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.m is None:
            self.m = {
                "determined": self.n,
                "overdetermined": 2 * self.n,
                "underdetermined": max(1, self.n // 2),
                "kt": max(1, self.n // 2),
                "diophantine": self.n,
            }[self.kind]
        if self.kind == "determined" and self.m != self.n:
            raise ValueError("determined systems are square")
        if self.kind == "overdetermined" and self.m <= self.n:
            raise ValueError("overdetermined systems need m > n")
        if self.kind == "underdetermined" and self.m >= self.n:
            raise ValueError("underdetermined systems need m < n")
        if self.kind == "kt" and not 1 <= self.m <= self.n:
            raise ValueError("kt systems need 1 <= m <= n")
        if self.target_rank is None:
            self.target_rank = min(self.m, self.n)
        if not 1 <= self.target_rank <= min(self.m, self.n):
            raise ValueError("target_rank must lie in [1, min(m, n)]")
        if not 1 <= self.entry_bound < 1 << 63:
            raise ValueError("entry_bound must lie in [1, 2^63)")
        if self.family is None:
            full = self.target_rank == min(self.m, self.n)
            self.family = "regular" if (full and self.m == self.n) \
                else "rankdef"
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}")
        if self.family in ("regular", "hilbert-like-int",
                          "twopower-illcond"):
            if self.m != self.n:
                raise ValueError(f"family {self.family} is square-only")
            if self.target_rank != self.n:
                raise ValueError(f"family {self.family} is full-rank-only")
        if self.family == "hilbert-like-int" and self.n > 12:
            raise ValueError("hilbert-like-int needs n <= 12 to stay exact")


@dataclass
class Metrics:
    """Benchmark report values for one (problem, solver) pair."""

    rel_solution_error: float
    rel_residual_error: float
    detected_rank: int
    elapsed_seconds: float
    mult_count: int


@dataclass
class GeneratedProblem:
    """A generated system: float views plus the exact integer originals."""

    spec: ProblemSpec
    a: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    a_int: list
    b_int: list
    x_int: list
    kt_system: kt.KTSystem | None = None
    kt_m: int | None = None

    @cached_property
    def _least_norm(self):
        # one lstsq per problem, however many methods are evaluated on it
        ref, *_ = np.linalg.lstsq(self.a, self.b, rcond=None)
        return ref

    @property
    def name(self):
        tag = self.spec.family
        if self.spec.kind == "kt":
            tag = "kt"
        elif self.spec.target_rank < min(self.spec.m, self.spec.n):
            tag = f"{tag}-r{self.spec.target_rank}"
        elif tag == "rankdef":
            # full-rank products are not rank deficient; show the shape
            tag = "product"
        return tag


def _int_array(values):
    # np.array would turn a mix of negatives and ints past 2^63 into floats
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _int_rows(rng, rows, cols, bound):
    return rng.randints(-bound, bound, rows * cols).reshape(rows, cols)


def _max_abs(a):
    # without the temporary array of np.abs(a)
    return max(int(a.max()), -int(a.min()))


def _matmul_int(a, b):
    """Exact ``a @ b`` of integer arrays (int64 or Python-int objects).

    When ``inner * max|a| * max|b| <= 2^53`` (``EXACT_LIMIT``) every
    product and every partial sum is an integer of magnitude at most
    2^53, so the float64 product is exact in any summation order, with
    fused multiply-adds and on any number of BLAS threads. It runs on
    blocks of rows of ``a`` of about ``_PRODUCT_BLOCK`` entries, so no
    float copy of a large ``a`` is made. Otherwise the product is taken
    in Python ints.
    """
    inner = len(b)
    if inner * max(1, _max_abs(a)) * max(1, _max_abs(b)) > EXACT_LIMIT:
        return a.astype(object) @ b.astype(object)
    b = b.astype(float)
    out = np.empty((len(a),) + b.shape[1:], dtype=np.int64)
    step = max(1, _PRODUCT_BLOCK // inner)
    for r0 in range(0, len(a), step):
        out[r0:r0 + step] = a[r0:r0 + step].astype(float) @ b
    return out


def _check_exact(values, what):
    if _max_abs(values) > EXACT_LIMIT:
        flat = values.ravel()
        first = np.flatnonzero(np.abs(flat) > EXACT_LIMIT)[0]
        raise UnrepresentableEntry(f"{what} entry {flat[first]} exceeds "
                                   "the exact double range 2^53")


def _float_in_place(a):
    """Float64 values of an integer matrix whose entries pass
    :func:`_check_exact`.

    An int64 matrix is converted in its own buffer, a row at a time, and
    holds floats afterwards. n x n temporaries freed once the problem is
    built stay resident in the allocator's heap: at n=600 they raised
    the dense-large benchmark's peak RSS by about 2 MB.
    """
    if a.dtype != np.int64:
        return a.astype(float)
    f = a.view(np.float64)
    for i in range(len(a)):
        f[i] = a[i]
    return f


def _build_regular(rng, n, bound):
    # strictly diagonally dominant rows: every leading principal
    # submatrix inherits the dominance, so all leading minors are
    # nonzero (safe for pivotless eliminations) and the condition
    # number stays moderate. int64 holds row totals below n * bound.
    dtype = np.int64 if n * bound < 1 << 63 else object
    a = np.zeros((n, n), dtype=dtype)
    off = []
    for i in range(n):
        # a row per call: no n x n temporary (see _float_in_place)
        row = rng.randints(-bound, bound, n - 1).astype(dtype, copy=False)
        a[i, :i], a[i, i + 1:] = row[:i], row[i:]
        off.append(int(np.abs(row).sum()))
    # the diagonal draws follow all off-diagonal ones
    for i in range(n):
        total = off[i] + rng.randint(1, bound)
        a[i, i] = total if rng.randint(0, 1) else -total
    return a


def _unit_bidiagonal(rng, r, lower):
    # unit triangular with a single +-1 off the diagonal per row: its
    # inverse has unit-magnitude entries, so the factor is full rank
    # with condition growing only polynomially in r
    t = np.eye(r, dtype=np.int64)
    i = np.arange(1, r)
    signs = 2 * rng.randints(0, 1, r - 1) - 1
    if lower:
        t[i, i - 1] = signs
    else:
        t[i - 1, i] = signs
    return t


def _build_rankdef(rng, m, n, r, bound):
    # left factor: r x r unit-lower block stacked over free rows; right
    # factor: unit-upper block beside free columns. Both have full rank
    # r by their triangular blocks, so the product has rank exactly r.
    left = np.vstack([_unit_bidiagonal(rng, r, lower=True),
                      _int_rows(rng, m - r, r, bound)])
    right = np.hstack([_unit_bidiagonal(rng, r, lower=False),
                       _int_rows(rng, r, n - r, bound)])
    return _matmul_int(left, right)


def _build_hilbert_like(n):
    scale = lcm(*range(1, 2 * n))
    return scale // np.add.outer(np.arange(1, n + 1), np.arange(n))


def _build_twopower(rng, n, bound):
    if n > 50:
        raise UnrepresentableEntry("twopower-illcond needs n <= 50")
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 1 << i
        if i + 1 < n:
            a[i][i + 1] = rng.nonzero(bound)
    return _int_array(a)


def generate(spec):
    """Generate the system for ``spec``; returns a GeneratedProblem.

    ``a``, ``b``, ``x_true`` are float views of exact integer data with
    ``b = A x_true`` verified in integer arithmetic. KT problems return
    the assembled block system in ``a`` / ``b`` / ``x_true`` and the
    block form in ``kt_system``.
    """
    rng = Lcg64(spec.seed)
    bound = spec.entry_bound

    if spec.kind == "kt":
        return _generate_kt(spec, rng, bound)

    n, m, r = spec.n, spec.m, spec.target_rank
    if spec.family == "regular":
        a_int = _build_regular(rng, n, bound)
    elif spec.family == "hilbert-like-int":
        a_int = _build_hilbert_like(n)
    elif spec.family == "twopower-illcond":
        a_int = _build_twopower(rng, n, bound)
    else:
        a_int = _build_rankdef(rng, m, n, r, bound)

    x_int = rng.randints(-bound, bound, n)
    while not x_int.any():
        x_int = rng.randints(-bound, bound, n)
    b_int = _matmul_int(a_int, x_int)
    _check_exact(a_int, "matrix")
    _check_exact(b_int, "rhs")

    # Python ints in the lists: the exact solver's arithmetic on them
    # must not wrap as np.int64 would
    a_rows = a_int.tolist()
    return GeneratedProblem(
        spec=spec, a=_float_in_place(a_int), b=b_int.astype(float),
        x_true=x_int.astype(float), a_int=a_rows, b_int=b_int.tolist(),
        x_int=x_int.tolist())


def _generate_kt(spec, rng, bound):
    n, m = spec.n, spec.m
    # SPD integer block: B B^T plus a dominant diagonal
    b_fac = _int_rows(rng, n, n, max(1, bound // 3))
    g_int = _matmul_int(b_fac, b_fac.T)
    g_int[np.diag_indices(n)] += n
    # full-row-rank constraints: unit-lower block plus free columns
    c_int = np.hstack([_unit_bidiagonal(rng, m, lower=True),
                       _int_rows(rng, m, n - m, bound)])
    p_hat = rng.randints(-bound, bound, n)
    z_hat = rng.randints(-bound, bound, m)
    c_rhs = _matmul_int(c_int, p_hat)
    g_rhs = _matmul_int(g_int, p_hat) + _matmul_int(c_int.T, z_hat)
    for block, label in ((g_int, "G block"), (c_int, "C block"),
                         (g_rhs, "gradient rhs"), (c_rhs, "constraint rhs")):
        _check_exact(block, label)

    a_int = [g_row + ct_row for g_row, ct_row in
             zip(g_int.tolist(), c_int.T.tolist())]
    a_int += [c_row + [0] * m for c_row in c_int.tolist()]
    x_int = p_hat.tolist() + z_hat.tolist()
    system = kt.KTSystem(g_mat=_float_in_place(g_int),
                         c_mat=_float_in_place(c_int),
                         g=g_rhs.astype(float), c=c_rhs.astype(float))
    a, b = system.assemble()
    return GeneratedProblem(
        spec=spec, a=a, b=b, x_true=np.array(x_int, dtype=float),
        a_int=a_int, b_int=g_rhs.tolist() + c_rhs.tolist(), x_int=x_int,
        kt_system=system, kt_m=m)


def parse_method(method_id):
    """Split a method id into (head, options dict).

    Plain ids (huang, dio, ...) have no options; ``kt:a1b2`` carries the
    stage pair; ``absm:m=3:y=energy[:seed=cyclic]`` carries iteration
    parameters. An unknown head or a malformed option raises
    ``ValueError``.
    """
    parts = method_id.strip().split(":")
    head = parts[0].lower()
    if head == "kt":
        if len(parts) != 2 or len(parts[1]) != 4 \
                or parts[1][:2] not in kt.P_METHODS \
                or parts[1][2:] not in kt.Z_METHODS:
            raise ValueError(
                f"kt method must look like kt:a1b2, got {method_id!r}")
        return head, {"p_method": parts[1][:2], "z_method": parts[1][2:]}
    if head == "absm":
        opts = {"m": 1, "scaling": "identity", "seed": "gradient"}
        for part in parts[1:]:
            if "=" not in part:
                raise ValueError(f"bad absm option {part!r}")
            key, value = part.split("=", 1)
            if key == "m":
                opts["m"] = int(value)
            elif key == "y":
                opts["scaling"] = value
            elif key == "seed":
                opts["seed"] = value
            else:
                raise ValueError(f"unknown absm option {key!r}")
        iterative.IterParams(**opts)  # a bad m, y or seed raises here
        return head, opts
    if head != "dio" and head not in strategies._REGISTRY:
        heads = sorted([*strategies._REGISTRY, "dio", "kt", "absm"])
        raise ValueError(f"unknown method {method_id!r}; choose from "
                         f"{', '.join(heads)}")
    if parts[1:]:
        raise ValueError(f"method {method_id!r} takes no options")
    return head, {}


def run_method(method_id, a, b, *, a_int=None, b_int=None, kt_system=None,
               kt_m=None, tol=None):
    """Run a registered method on a system; returns (x, rank, mult_count).

    ``a_int``/``b_int`` supply the exact data for ``dio``; ``kt_system``
    (or an assembled matrix with ``kt_m`` for the split) supplies the
    block form for ``kt:*`` methods. Solver failures propagate as the
    solver's exceptions. ``tol`` is refused for the methods that take no
    tolerance override (``dio``, ``kt:*`` and ``absm:*``).
    """
    head, opts = parse_method(method_id)
    if tol is not None and head in _NO_TOL_METHODS:
        raise ValueError(f"tol does not apply to method {method_id!r}")

    if head == "dio":
        if a_int is None or b_int is None:
            raise ValueError("dio needs exact integer system data")
        rep = diophantine.solve(a_int, b_int)
        return np.array(rep.x, dtype=float), rep.rank, 0

    if head == "kt":
        if kt_system is None:
            if kt_m is None:
                raise ValueError("kt methods need the constraint count")
            kt_system = split_assembled(a, b, kt_m)
        rep = kt.solve(kt_system, opts["p_method"], opts["z_method"])
        x = np.concatenate([rep.p, rep.z])
        return x, kt_system.n + kt_system.m, rep.mult_count

    if head == "absm":
        trace = iterative.limited_memory_solve(a, b,
                                               iterative.IterParams(**opts))
        return trace.x, a.shape[1], 0

    if head == "ilu" and a.shape[0] == a.shape[1]:
        rep = strategies.implicit_lu_solve(a, b, tol=tol)
        return rep.x, rep.rank, rep.mult_count

    if head == "gilu":
        rep = strategies.gilu_solve(a, b, np.eye(a.shape[1]), tol=tol)
        return rep.x, rep.rank, rep.mult_count

    rep = core.solve(a, b, strategy=head, tol=tol)
    return rep.x, rep.rank, rep.mult_count


def split_assembled(a, b, m):
    """Recover the block form from an assembled saddle-point system."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    size = a.shape[0]
    if a.shape != (size, size) or not 1 <= m < size:
        raise ValueError("need a square assembled system with 1 <= m < size")
    n = size - m
    g_mat = a[:n, :n]
    c_mat = a[n:, :n]
    if np.any(a[n:, n:]) or not np.array_equal(a[:n, n:], c_mat.T):
        raise ValueError("matrix is not an assembled saddle-point system")
    return kt.KTSystem(g_mat=g_mat, c_mat=c_mat, g=b[:n], c=b[n:])


def reference_solution(method_id, problem):
    """Reference vector for the solution-error metric.

    Least-norm solvers on rank-deficient or underdetermined systems are
    measured against the least-norm solution, which each problem computes
    once; everything else against the planted one.
    """
    head, _ = parse_method(method_id)
    deficient = problem.spec.target_rank < problem.a.shape[1] \
        or problem.a.shape[0] < problem.a.shape[1]
    if head in LEAST_NORM_METHODS and deficient:
        return problem._least_norm
    return problem.x_true


def evaluate(method_id, problem):
    """Run one solver on one problem and compute the report metrics.

    Solver failures propagate; the benchmark harness renders them as
    break-down rows.
    """
    t0 = time.perf_counter()
    x, rank, mults = run_method(
        method_id, problem.a, problem.b, a_int=problem.a_int,
        b_int=problem.b_int, kt_system=problem.kt_system,
        kt_m=problem.kt_m)
    elapsed = time.perf_counter() - t0

    ref = reference_solution(method_id, problem)
    ref_norm = float(np.linalg.norm(ref))
    rel_sol = float(np.linalg.norm(x - ref)) / (ref_norm or 1.0)
    b_norm = float(np.linalg.norm(problem.b))
    rel_res = float(np.linalg.norm(problem.a @ x - problem.b)) \
        / (b_norm or 1.0)
    return Metrics(rel_solution_error=rel_sol, rel_residual_error=rel_res,
                   detected_rank=rank, elapsed_seconds=elapsed,
                   mult_count=mults)
