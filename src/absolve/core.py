"""Scaled projection engine for general linear systems.

The engine processes one scaled equation per step. Step ``i`` works on the
scaled row ``y_i = A^T v_i`` (for the default unit scalings ``v_i = e_i`` this
is just row ``i`` of ``A``), projects it through the running projector matrix
``H``, and either

* classifies the equation as redundant (projected row and scaled residual
  both vanish),
* raises :class:`~absolve.errors.IncompatibleSystem` (projected row vanishes,
  scaled residual does not), or
* takes a step ``x <- x - alpha p`` along the search vector ``p = H^T z`` and
  deflates ``H`` by the rank-one oblique update
  ``H <- H - (H y) (w^T H) / (w^T H y)``.

``H`` starts from any nonsingular matrix (identity by default) and after the
run annihilates every processed scaled row from the right and every accepted
``w`` from the left. The accepted search vectors ``P``, scalings ``V``, and
pivots ``v_i^T A p_i`` give the implicit factorization ``V^T A P = L`` with
``L`` lower triangular.

Row indices in reports and exceptions are 0-based.

Multiplication counts are exact: every scalar multiply or divide the loop
performs is added to the counter, including the arithmetic inside tolerance
tests (norms and scale factors).
"""

import ctypes
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.cython_blas

from .counting import OpCounter
from .errors import IncompatibleSystem, NotFullRank, StrategyBreakdown

# Classification tolerances default to 1e-12 * n, scaled by the problem data
# (see Tolerances.resolve).
BASE_TOL = 1e-12

INDEPENDENT = "independent"
REDUNDANT = "redundant"
INCOMPATIBLE = "incompatible"


@dataclass
class Tolerances:
    """Relative thresholds for the engine's zero tests.

    ``None`` fields resolve to ``1e-12 * n`` at solve time. The dependency
    test compares ``|H y_i|`` against ``dependency * |y_i| * |H_1|_F``; the
    residual test compares the scaled residual ``tau_i`` against
    ``residual`` times the per-equation magnitudes (``|y_i| |x| + |b_i|``
    for unit scalings, ``|y_i| |x| + |v| |b|`` for general ones) plus the
    whole-system floor ``|v| (|A|_F |x| + |b|)``, so a numerically zero
    equation of a derived system reads as redundant rather than as a
    contradiction between round-off terms; the pivot test compares
    ``|v^T A p|`` against ``pivot * |y_i| * |p|``.
    """

    dependency: float | None = None
    residual: float | None = None
    pivot: float | None = None

    def resolve(self, n):
        base = BASE_TOL * max(n, 1)
        dep = base if self.dependency is None else self.dependency
        res = base if self.residual is None else self.residual
        piv = base if self.pivot is None else self.pivot
        return dep, res, piv


@dataclass
class ProjectorState:
    """Running state of a projection solve.

    ``h`` is the current projector, ``step`` the number of processed
    equations. ``p_cols`` / ``v_cols`` / ``pivots`` record the accepted search
    vectors, their scalings (an ``int`` entry means a unit vector ``e_i``),
    and the pivots ``v_i^T A p_i`` (the diagonal of the implicit ``L``).
    """

    h: np.ndarray
    step: int = 0
    p_cols: list = field(default_factory=list)
    v_cols: list = field(default_factory=list)
    pivots: list = field(default_factory=list)
    matrix: np.ndarray | None = None
    rhs: np.ndarray | None = None
    counter: OpCounter = field(default_factory=OpCounter)

    @property
    def n(self):
        if self.h is not None:
            return self.h.shape[0]
        return self.matrix.shape[1]

    def p_matrix(self):
        """Accepted search vectors as columns (n x rank)."""
        if not self.p_cols:
            return np.empty((self.n, 0))
        return np.column_stack(self.p_cols)

    def v_matrix(self, m=None):
        """Accepted scaling vectors as columns (m x rank)."""
        if m is None:
            m = self.matrix.shape[0]
        if not self.v_cols:
            return np.empty((m, 0))
        cols = []
        for v in self.v_cols:
            if isinstance(v, (int, np.integer)):
                e = np.zeros(m)
                e[v] = 1.0
                cols.append(e)
            else:
                cols.append(v)
        return np.column_stack(cols)


@dataclass
class SolveReport:
    """Outcome of a projection solve.

    ``x`` is the final iterate (``None`` when the run aborted on an
    incompatible equation), ``rank`` the number of equations classified
    independent, ``eq_status`` one tag per processed equation, ``state`` the
    final projector state, ``mult_count`` the exact multiply count, and
    ``residual_norm`` the final ``|A x - b|_2``. ``iterates`` holds the
    iterate history (x_1 first) when the solve was asked to keep it.
    """

    x: np.ndarray | None
    rank: int
    eq_status: list
    state: ProjectorState
    mult_count: int
    residual_norm: float | None
    iterates: list | None = None
    workspace: object | None = None


def _as_system(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if b.shape != (a.shape[0],):
        raise ValueError("rhs length must equal the row count")
    return a, b


def solve(a, b, strategy="huang", x1=None, tol=None, keep_iterates=False,
          counter=None):
    """Solve ``A x = b`` with a scaled projection strategy.

    Parameters
    ----------
    a, b : array_like
        System matrix (m x n) and right-hand side (m,). m > n is allowed;
        extra consistent equations are classified redundant, and the
        orthogonally scaled strategy resolves inconsistent ones in the
        least-squares sense.
    strategy : str or strategy object
        A name accepted by :func:`absolve.strategies.make_strategy` or an
        instantiated strategy.
    x1 : array_like, optional
        Starting iterate (default zero, which makes the norm-minimizing
        strategies return least-norm solutions).
    tol : Tolerances, optional
        Zero-test thresholds; fields default to ``1e-12 * n``.
    keep_iterates : bool
        Record the iterate after every equation (x_1 included).
    counter : OpCounter, optional
        Accumulate multiply counts into an existing counter.

    Returns
    -------
    SolveReport

    Raises
    ------
    IncompatibleSystem
        If a dependent equation has a nonvanishing scaled residual. The
        partial report is attached to the exception.
    StrategyBreakdown
        If the strategy's direction seed yields a vanishing pivot
        (:class:`~absolve.errors.RegularityFailure` for implicit LU).
    """
    a, b = _as_system(a, b)
    m, n = a.shape
    if isinstance(strategy, str):
        from .strategies import make_strategy
        strategy = make_strategy(strategy)
    dep_tol, res_tol, piv_tol = (tol or Tolerances()).resolve(n)
    counter = counter if counter is not None else OpCounter()

    x = np.zeros(n) if x1 is None else np.array(x1, dtype=float)
    if x.shape != (n,):
        raise ValueError("x1 length must equal the column count")
    state = ProjectorState(h=strategy.initial_h(n), matrix=a, rhs=b,
                           counter=counter)
    strategy.begin(a)

    # dependency tests compare against the initial projector's magnitude:
    # the current one shrinks to round-off as rows are absorbed, and
    # s = H y is bounded by it, so a live ||H|| can never flag anything
    h_ref = float(np.linalg.norm(state.h))
    norm_b = float(np.linalg.norm(b))
    # whole-system scale for the consistency test: a numerically zero row
    # of a derived system has y and b_i both at round-off, and comparing
    # noise against noise would turn it into a false contradiction
    a_ref = float(np.linalg.norm(a))
    counter.add(n * n + m + m * n)
    eq_status = []
    iterates = [x.copy()] if keep_iterates else None
    resolved = strategy.resolves_inconsistency
    # Python floats: the same IEEE arithmetic as numpy scalars, without
    # the scalar dispatch (as is ``u.dot(v)`` for ``u @ v`` on vectors)
    b_list = b.tolist()

    # The built-in hooks change h only through subtract_outer, which
    # creates no -0.0 in a matrix that holds none, so one scan of the
    # start projector answers subtract_outer's -0 question for the run.
    strategy._no_negative_zero = not _holds_negative_zero(state.h)
    # multiplies of the current step not yet added to the counter; the
    # step adds them once, and an exception adds what was done
    done = 0
    try:
        for i in range(m):
            v = strategy.scaling(i, state)
            if v is None:
                # unit scaling: the scaled row is row i itself
                y = a[i]
                tau = float(y.dot(x)) - b_list[i]
                done = n
                v_norm = 1.0
                b_scale = abs(b_list[i])
                v_rec = i
            else:
                y = a.T @ v
                r = a @ x - b
                tau = float(v @ r)
                v_norm = _norm(v)
                b_scale = v_norm * norm_b
                done = 2 * m * n + 2 * m + 1
                v_rec = v

            s = state.h @ y
            y_norm = _norm(y)
            done += n * n + n

            test_vec, test_scale = strategy.classify_vector(i, state, s,
                                                            y_norm, h_ref)
            done += n
            test_norm = _norm(test_vec)
            if test_norm <= dep_tol * test_scale:
                x_norm = _norm(x)
                done += n
                res_scale = y_norm * x_norm + b_scale \
                    + v_norm * (a_ref * x_norm + norm_b)
                if resolved or abs(tau) <= res_tol * (res_scale + 1e-300):
                    counter.add(done + 1)
                    done = 0
                    eq_status.append(REDUNDANT)
                    state.step += 1
                    if keep_iterates:
                        iterates.append(x.copy())
                    continue
                counter.add(done)
                done = 0
                eq_status.append(INCOMPATIBLE)
                partial = SolveReport(x=None, rank=len(state.pivots),
                                      eq_status=eq_status, state=state,
                                      mult_count=counter.mults,
                                      residual_norm=None,
                                      iterates=iterates)
                raise IncompatibleSystem(i, report=partial,
                                         detail=f"scaled residual {tau:.3e}")

            z = strategy.direction_seed(i, state, s)
            p = strategy.search_vector(i, state, s, z)
            den = float(y.dot(p))
            # most strategies test the search vector itself
            p_norm = test_norm if p is test_vec else _norm(p)
            done += 2 * n
            strategy.validate_pivot(i, den, y_norm * p_norm, piv_tol)
            if abs(den) <= piv_tol * y_norm * p_norm:
                raise StrategyBreakdown(i, detail=f"pivot {den:.3e}")

            alpha = tau / den
            x -= alpha * p
            done += n + 1

            w = strategy.projection_seed(i, state, s, z)
            strategy.update_h(state, s, w, p, den)
            counter.add(done)
            done = 0

            state.p_cols.append(p.copy())
            state.v_cols.append(v_rec)
            state.pivots.append(den)
            state.step += 1
            eq_status.append(INDEPENDENT)
            if keep_iterates:
                iterates.append(x.copy())
    except BaseException:
        counter.add(done)
        raise
    finally:
        # hooks called outside a run get subtract_outer's full check
        strategy._no_negative_zero = False

    res = float(np.linalg.norm(a @ x - b))
    counter.add(m * n + m)
    return SolveReport(x=x, rank=len(state.pivots), eq_status=eq_status,
                       state=state, mult_count=counter.mults,
                       residual_norm=res, iterates=iterates)


def _norm(v):
    """``float(np.linalg.norm(v))`` of a 1-D float64 vector, bit for bit.

    numpy takes the 2-norm of a vector as ``sqrt(x.dot(x))`` over
    ``x.ravel('K')``, which for a contiguous vector is the vector itself,
    so ``math.sqrt(v.dot(v))`` is the same number without the dispatch.
    Any other input goes to numpy: a strided ``dot`` may sum in another
    order than the contiguous copy that numpy's ravel makes.
    """
    if isinstance(v, np.ndarray) and v.ndim == 1 \
            and v.dtype == np.float64 and v.flags.c_contiguous:
        return math.sqrt(v.dot(v))
    return float(np.linalg.norm(v))


# Entries per temporary block of the row-block path of
# :func:`subtract_outer`: 256 KiB of float64 in place of an n x n
# temporary. Blocks of 16K entries or more ran equally fast on the
# engine's updates at n=300 and 600; smaller ones ran slower.
OUTER_BLOCK = 32768

# Fewest entries of ``h`` for which :func:`subtract_outer` calls BLAS on
# a C-contiguous ``h`` when the caller states no -0 fact, and on a
# strided view when it does; a C-contiguous ``h`` with the fact takes
# BLAS at any size, a strided view without it from ``_CHECKED_VIEW_MIN``
# entries. With one BLAS
# thread on a 2-vCPU Xeon VM (fastest decile of 2000 calls): with the
# fact, the dgemm path takes 3.8, 3.7, 4.0 and 4.2 us at 1 x 1, 8 x 8,
# 24 x 24 and 40 x 40 against 4.1, 4.5, 5.6 and 7.5 us for the row
# blocks; without it, the full exactness test adds about 5 us, the row
# blocks are faster up to 48 x 48 and 40 x 100, the two paths ran equally
# fast at 64 x 64 and 80 x 80, and BLAS 1.4-1.6x faster at 100 x 100.
# A strided view takes the ctypes ``dgemm`` of :func:`_dgemm_view`
# (about 6 us more per call than f2py's, see ``_dgemm``). On column slices
# (second-fastest of 15 x 2000 calls) it took 11-12 us from 8 x 4 to
# 32 x 32 with the fact, against 7-9 us for the row blocks, the two ran
# equally fast near 64 x 32 (2048 entries), and BLAS took 13 us against
# 20-22 us at 64 x 64 and 100 x 50. Without the fact, on blocks of an
# n x n buffer as the packed implicit LU passes them (fastest of 30 x 200
# calls), both took 19-22 us from 64 x 64 to 75 x 74, and BLAS took 18-19
# us against 24-25 us from 80 x 80 to 120 x 60 and 20 us against 38 us at
# 150 x 75.
BLAS_MIN = 4096

# Fewest entries of a strided view from which :func:`subtract_outer`
# calls BLAS when the caller states no -0 fact. The full check then
# decides, and on a rank-deficient system it can fail at every step: in
# the packed implicit LU of a planted rank-150 n=200 system (the
# bench-suite's ``determined`` n=200 unit) all 126 updates from 4096
# entries find a -0 in the block and a zero product. Where the check
# passes, as on full-rank systems, BLAS ran about as fast as the row
# blocks from 64 x 64 to 75 x 74 and faster from 80 x 80 (see
# BLAS_MIN); at 128 x 128 it takes 32 us against 59 us. The packed
# implicit LU, fastest of 12 in-process alternations (7 at n=600) in two
# runs, one BLAS thread on a 2-vCPU Xeon VM, with this gate, with 4096
# and on the row blocks: full-rank n=300 26.0-26.1, 25.2-25.9 and
# 30.7-33.2 ms, n=600 125-184, 131-133 and 207-281 ms, n=200 the same
# within noise; rank-deficient n=200 8.5-9.0, 10.7-11.8 and 8.2-9.0 ms,
# n=300 (blocks past this gate) 25.4, 26.1-26.6 and 21.9-22.4 ms.
_CHECKED_VIEW_MIN = 16384

# Fewest entries of a C-contiguous ``h`` from which an update with the
# -0 fact looks for the +-0 edge rows of ``u``; the search (``u.nonzero()``
# and the slices) costs about 2 us. In-process A/B with one BLAS thread
# on a 2-vCPU Xeon VM: leaving the search out made the engine's ``ilu``
# 9-24% slower at n=200 and 300 (faster in 1-5 of 21 alternations from
# n=190 on) and made no clear difference at n=100-175, while it made
# ``mhuang``'s overdetermined n=100 updates 1-4% faster (in 14 of 15 and
# 18 of 21 alternations). A strided view, which reaches BLAS only from
# ``BLAS_MIN`` entries, searches whenever it does: on ``gilu_solve``'s
# column slices, where each skipped row saves more, searching from 4096
# entries rather than from 32768 made the solve 8% faster at n=200 and
# 12% at n=300 (fastest of 15 alternations) and ran as fast at n=100-150.
_EDGE_SEARCH_BLAS = 32768

# f2py's dgemm for a C-contiguous ``h``: one entry point for both
# layouts would cost small-calls' n=8-40 updates, as the ctypes call of
# :func:`_dgemm_view` takes 7.4-7.6 us at 8 x 8 and 24 x 24 against
# 1.5 us for f2py's (one BLAS thread, 2-vCPU Xeon VM, third-fastest of
# 21 x 4000 calls), most of it in reading three arrays' addresses.
_dgemm = scipy.linalg.blas.dgemm


def _fortran_dgemm():
    """The Fortran ``dgemm`` that SciPy exports for Cython modules, as a
    ctypes function of 13 pointers.

    numba reaches BLAS by the same route; it needs no compiled code of
    ours. Unlike f2py's wrapper it takes every leading dimension as an
    argument, so it updates a strided view in place, not a copy."""
    capsule = scipy.linalg.cython_blas.__pyx_capi__["dgemm"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 13)(address)


_DGEMM = _fortran_dgemm()
# the arguments every call shares, passed by address: trans = 'N',
# alpha = -1 and beta = 1
_DGEMM_NOTRANS_CHAR = ctypes.c_char(b"N")
_DGEMM_NOTRANS = ctypes.addressof(_DGEMM_NOTRANS_CHAR)
_DGEMM_SCALARS = (ctypes.c_double * 2)(-1.0, 1.0)
_DGEMM_ALPHA = ctypes.addressof(_DGEMM_SCALARS)
_DGEMM_BETA = _DGEMM_ALPHA + 8
# K, M (= lda), N, ldb and ldc of one call
_DGEMM_DIMS = ctypes.c_int * 5
_C_INT_MAX = 2 ** 31 - 1


def _view_dims(h, u, v):
    """``(ldb, ldc)`` with which the Fortran ``dgemm`` updates the
    row-major view ``h`` in place, reading ``u`` with its own stride, or
    None.

    A row-major view has unit column stride and a row stride of at least
    ``cols`` entries; ``v`` must have unit stride, and every dimension
    must fit a C int."""
    rows, cols = h.shape
    row_step, col_step = h.strides
    if not (col_step == 8 and (v.strides[0] == 8 or cols == 1)
            and u.flags.aligned and v.flags.aligned):
        return None
    if rows == 1:
        return 1, cols  # neither leading dimension is stepped over
    u_step = u.strides[0]
    if row_step % 8 or u_step <= 0 or u_step % 8:
        return None
    ldb, ldc = u_step // 8, row_step // 8
    if ldc < cols or max(ldb, ldc, rows) > _C_INT_MAX:
        return None
    return ldb, ldc


def _dgemm_view(h, u, v, ldb, ldc):
    """``h -= np.outer(u, v)`` on the row-major view ``h`` by one k=1
    Fortran ``dgemm`` on ``h^T``: ``dgemm('N', 'N', M=cols, N=rows,
    K=1, alpha=-1, A=v, lda=cols, B=u, ldb, beta=1, C=h, ldc)``."""
    rows, cols = h.shape
    # each call has its own block of dimensions, so threads share none
    dims = _DGEMM_DIMS(1, cols, rows, ldb, ldc)
    k = ctypes.addressof(dims)
    _DGEMM(_DGEMM_NOTRANS, _DGEMM_NOTRANS, k + 4, k + 8, k, _DGEMM_ALPHA,
           v.ctypes.data, k + 4, u.ctypes.data, k + 12, _DGEMM_BETA,
           h.ctypes.data, k + 16)


# -0.0 read as an int64 is the smallest int64, so one integer min over
# the bits of a float64 array tells whether it holds a -0.0
_NEGATIVE_ZERO_BITS = np.iinfo(np.int64).min


def _holds_negative_zero(a):
    return a.size > 0 and int(a.view(np.int64).min()) == _NEGATIVE_ZERO_BITS


def _gemm_is_exact(h, u, v, clean=False):
    """True when the k=1 ``dgemm`` update of ``h`` equals the unfused
    ``h - np.outer(u, v)`` bit for bit.

    ``clean`` states that ``h`` holds no -0.0 and that ``v`` is finite."""
    if not (h.dtype == u.dtype == v.dtype == np.float64
            and h.flags.aligned and h.flags.writeable):
        return False  # BLAS would work on converted copies
    # a sum of squares is finite only if every entry is (an inf or a NaN
    # makes it inf or NaN); one that overflows takes the full test below
    if clean and math.isfinite(u.dot(u)):
        return True
    mag_u, mag_v = np.abs(u), np.abs(v)
    # a NaN fails both comparisons
    if not (mag_u.max() < np.inf and mag_v.max() < np.inf):
        return False
    # rounding is monotonic: every product is at least the smallest one
    if mag_u.min() * mag_v.min() > 0.0:
        return True
    return not _holds_negative_zero(h)


def subtract_outer(h, u, v, *, no_negative_zero=False):
    """In place ``h -= np.outer(u, v)``, bit for bit, without the n x n
    temporary.

    Each entry is ``h[i, j] - u[i] * v[j]`` with the product rounded
    first, exactly as the unfused expression. ``h`` may be any writable
    2-D view. ``v`` must not share memory with ``h`` (pass a copy of a
    row of ``h``), or entries already updated could be read.

    The update is one BLAS ``dgemm`` with inner dimension 1,
    ``h^T <- h^T - v u^T``, done in place on ``h.T``. It is exact: the
    kernel's accumulator starts at +0 and takes the single product
    ``round(u[i] v[j])``, multiplying that by -1 is exact, and adding it
    to ``h[i, j]`` rounds once, as the unfused subtraction does. The
    entries are independent, so any BLAS thread count gives the same
    bytes. The one difference is a product of exactly -0, which the +0
    accumulator turns into +0: where ``h[i, j]`` is -0 the kernel leaves
    -0 and the unfused expression gives +0.

    Two layouts take BLAS. A C-contiguous ``h`` (F-contiguous ``h.T``)
    goes to SciPy's f2py ``dgemm``, which costs the least per call. Any
    other row-major view, one with unit column stride and a row stride
    of at least ``cols`` (a column slice such as ``u[:, i+1:]``, whose
    copy is what f2py would update), goes to the Fortran ``dgemm`` that
    SciPy exports for Cython, called through ctypes with ``ldc`` set to
    the row stride, so the slice itself is updated (:func:`_dgemm_view`).
    The BLAS call is taken only when ``h`` is float64, ``u`` and ``v``
    are finite, and either no product can round to zero or ``h`` holds
    no -0.0. Neither path creates a -0 in a matrix that holds none (in
    round-to-nearest ``x - y`` is -0 only when ``x`` is), so a run that
    starts without one keeps the BLAS path. Everything else takes the
    row-block path: the products are formed a block of rows at a time in
    a buffer of about ``OUTER_BLOCK`` entries and subtracted by numpy.

    ``no_negative_zero=True`` states that ``h`` holds no -0.0, which the
    caller knows from one check of the matrix its run started with
    (:func:`solve` makes it once per run). The call then skips the tests
    on the magnitudes of ``u`` and ``v`` and the scan of ``h``, and only
    checks that the sums of squares ``v . v`` and ``u . u`` are finite:
    that fails on any inf or NaN and, conservatively, on squares that
    overflow, which fall back to the full check. A true statement
    changes no byte, only the time; a false one can leave a -0 where the
    unfused expression gives +0. With the statement a C-contiguous
    ``h`` takes the ``dgemm`` at any size and a strided view from
    ``BLAS_MIN`` entries; without it a C-contiguous ``h`` takes it from
    ``BLAS_MIN`` entries and a strided view from ``_CHECKED_VIEW_MIN``.
    Below those sizes the full check or the ctypes call costs more than
    the row blocks save, or, for a strided view whose check fails, a
    larger part of the update.

    Under that statement and with ``v`` finite, the update also leaves
    out the leading and trailing rows where ``u`` is +-0, and does
    nothing when all of ``u`` is. Such a row comes out as it went in:
    each product ``u[i] v[j]`` is +-0, and ``h[i, j] - (+-0)`` is
    ``h[i, j]`` for every ``h[i, j]`` but -0 (``+0 - (+-0)`` is +0) and
    a signalling NaN, which numpy never makes. This covers the zeroed
    leading rows of the implicit LU projector and the trailing zeros of
    the deflated directions of :func:`absolve.strategies.gilu_solve`.
    The search for those rows runs only from a size at which it costs
    less than the rows it saves: ``_EDGE_SEARCH_BLAS`` entries (about
    180 x 180) for a C-contiguous ``h``, and ``BLAS_MIN`` for a strided
    one, where each skipped row saves more. An update that has
    searched stays on BLAS however few rows are left: a ``dgemm`` of a
    few rows takes about 3 us, less than the row blocks (with one BLAS
    thread on a 2-vCPU Xeon VM, falling back to them made ``mhuang`` on
    an overdetermined n=100 system 15% slower than skipping no rows).
    """
    rows, cols = h.shape
    if rows == 0 or cols == 0:
        return
    clean = no_negative_zero and math.isfinite(v.dot(v))
    contiguous = h.flags.c_contiguous
    if h.size >= ((0 if contiguous else BLAS_MIN) if clean
                  else (BLAS_MIN if contiguous else _CHECKED_VIEW_MIN)):
        # u is dense in most updates: two scalar tests before any scan
        if clean and not (u[0] and u[-1]) and (
                h.size >= _EDGE_SEARCH_BLAS or not contiguous):
            nonzero = u.nonzero()[0]
            if nonzero.size == 0:
                return
            lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
            h, u = h[lo:hi], u[lo:hi]
            rows = hi - lo
        dims = None if contiguous else _view_dims(h, u, v)
        if (contiguous or dims) and _gemm_is_exact(h, u, v, clean):
            if contiguous:
                _dgemm(-1.0, v[:, None], u[None, :], beta=1.0, c=h.T,
                       overwrite_c=True)
            else:
                _dgemm_view(h, u, v, *dims)
            return
    if rows * cols <= OUTER_BLOCK:
        np.subtract(h, np.multiply(u[:, None], v), out=h)
        return
    step = max(1, OUTER_BLOCK // cols)
    buf = np.empty((step, cols))
    v = v[None, :]
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        prod = np.multiply(u[r0:r1, None], v, out=buf[:r1 - r0])
        np.subtract(h[r0:r1], prod, out=h[r0:r1])


def update_projector(state, scaled_row, w, tol=None):
    """Apply one rank-one oblique projector update; returns a new state.

    ``scaled_row`` is ``A^T v`` for the equation being absorbed (for unit
    scalings, the row itself). Requires ``|w^T H scaled_row|`` bounded away
    from zero, else :class:`~absolve.errors.DivisionByZero`.
    """
    from .errors import DivisionByZero

    h = np.asarray(state.h, dtype=float)
    y = np.asarray(scaled_row, dtype=float)
    w = np.asarray(w, dtype=float)
    s = h @ y
    wh = w @ h
    den = float(w @ s)
    n = h.shape[0]
    threshold = (BASE_TOL * n if tol is None else tol)
    # scale by the inputs, not by s: once the row is annihilated s is
    # round-off and a test relative to ||s|| could never fire
    scale = float(np.linalg.norm(y) * np.linalg.norm(w))
    if abs(den) <= threshold * (scale + 1e-300):
        raise DivisionByZero(f"update pivot w.s = {den:.3e} vanishes")
    new_h = h.copy()
    subtract_outer(new_h, s, wh / den)
    return ProjectorState(h=new_h, step=state.step + 1,
                          p_cols=list(state.p_cols),
                          v_cols=list(state.v_cols),
                          pivots=list(state.pivots),
                          matrix=state.matrix, rhs=state.rhs,
                          counter=state.counter)


def general_solution(report, q):
    """Map a parameter vector q to the solution ``x + H_final^T q``.

    Over all q this sweeps the full solution set of the processed system
    (``H_final`` annihilates every processed row, so each image point solves
    the system; rank-deficiency leaves ``H_final`` with rank n - rank).
    """
    if report.x is None:
        raise ValueError("no particular solution: the run was incompatible")
    q = np.asarray(q, dtype=float)
    return report.x + report.state.h.T @ q


def implicit_factorization(report):
    """Return (P, L, V) with ``V^T A P = L`` lower triangular.

    Requires a completed full-rank square run, else
    :class:`~absolve.errors.NotFullRank`. ``A^{-1} = P L^{-1} V^T`` follows;
    see :func:`reconstruct_inverse`.
    """
    a = report.state.matrix
    m, n = a.shape
    if report.rank != n or m != n:
        raise NotFullRank(
            f"need a full-rank square run (m={m}, n={n}, rank={report.rank})")
    p = report.state.p_matrix()
    v = report.state.v_matrix(m)
    l = v.T @ (a @ p)
    return p, l, v


def reconstruct_inverse(p, l, v):
    """Rebuild ``A^{-1} = P L^{-1} V^T`` from the implicit factors."""
    return p @ scipy.linalg.solve_triangular(l, v.T, lower=True)


def strongly_nonsingular(q, tol=1e-10):
    """True when Gaussian elimination without pivoting succeeds on ``q``.

    Equivalently: every leading principal minor is nonzero (within ``tol``
    relative to the largest entry), which is the admissibility condition for
    a scaled parameter set.
    """
    u = np.array(q, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("need a square matrix")
    k = u.shape[0]
    scale = max(1.0, float(np.abs(u).max())) if u.size else 1.0
    for j in range(k):
        if abs(u[j, j]) <= tol * scale:
            return False
        factors = u[j + 1:, j] / u[j, j]
        # row j lies outside the trailing block, so it is read as it is
        subtract_outer(u[j + 1:, j + 1:], factors, u[j, j + 1:])
    return True
