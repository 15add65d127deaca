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

The strategy (:mod:`absolve.strategies`) chooses ``v_i``, ``p`` and the
two factors of the update; the engine steps and applies the update.

``H`` starts from any nonsingular matrix (identity by default) and after the
run annihilates every processed scaled row from the right and every accepted
``w`` from the left. The accepted search vectors ``P``, scalings ``V``, and
pivots ``v_i^T A p_i`` give the implicit factorization ``V^T A P = L`` with
``L`` lower triangular.

Each independent row lowers the rank of ``H`` by one, so after n of them
``H`` is zero in exact arithmetic and every later row is dependent. Once a
run holds n pivots with rows still to come, it computes ``|H|_F`` once; if
``2 |H|_F <= min(1, dep_tol |H_1|_F)``, every later dependency test would
read "dependent" (see :func:`_spent`), and the later rows skip ``s = H y``
and the test. Only the residual test decides such a row, and a strategy
that resolves inconsistency skips the row's scaling too. The run's
verdicts, bytes and counts stay those of the full steps.

The update ``H <- H - u v^T`` is one k=1 ``dgemm`` through ctypes
(:class:`_BoundUpdate`), taken from the BLAS that numpy has already
loaded, or from SciPy's exported one where numpy exposes no ``dgemm``
symbol. A k=1 ``dgemm`` rounds each product once and each sum once, in
any BLAS and on any thread count, so the choice moves no byte (its
docstring gives the argument); it spares the import of
``scipy.linalg``, which takes several times as long as the rest of
absolve. Beside that fallback, only :func:`reconstruct_inverse` and two
calls in :mod:`absolve.kt` import it, where they run.

Row indices in reports and exceptions are 0-based.

Multiplication counts are exact: every scalar multiply or divide the loop
performs is added to the counter, including the arithmetic inside tolerance
tests (norms and scale factors).
"""

import ctypes
import math
import threading
from dataclasses import dataclass, field

import numpy as np

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
    ``|v^T A p|`` against ``pivot * |y_i| * |p|``. A negative, infinite or
    NaN field raises ``ValueError``.
    """

    dependency: float | None = None
    residual: float | None = None
    pivot: float | None = None

    def resolve(self, n):
        base = BASE_TOL * max(n, 1)
        dep = base if self.dependency is None else self.dependency
        res = base if self.residual is None else self.residual
        piv = base if self.pivot is None else self.pivot
        if not (0 <= dep < math.inf and 0 <= res < math.inf
                and 0 <= piv < math.inf):  # a NaN fails too
            raise ValueError(f"tolerances must be finite and at least 0: "
                             f"{self}")
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
          counter=None, resume=None):
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
    resume : SolveReport, optional
        A kept, completed run of this function on the leading ``k`` rows
        of this system, any right-hand side and start. The projector,
        the search vectors and the pivots of a run depend only on the
        rows, the strategy and the tolerances; ``b`` and ``x1`` enter
        through ``tau``, the step and the residual test of a dependent
        row. So where the kept matrix has the bytes and the strides of
        this system's first ``k`` rows, the run steps ``x`` along the
        kept search vectors with the kept pivots, retests each kept
        redundant row on this ``b``, and continues at row ``k`` from a
        copy of the kept projector (the projector itself when
        ``k == m``). Rows after ``k`` need a ``resumable`` strategy (its
        step reads only its own row, its index and the projector:
        ``huang``/``stable``, ``mhuang``, ``ilu``, ``gilu``) and unit
        scalings; ``k == m`` takes any strategy, but a kept redundant
        row that needs a retest needs a unit scaling. Otherwise, or where
        a retest fails, the run starts at row 0. Either way the report
        is the full run's, bytes, ``eq_status``, raised row and count,
        provided the kept run was made with the same strategy and
        tolerances and counted on its own counter (the default), so that
        its ``mult_count`` is its own: the kept rows are counted as if
        stepped again.

    Once the run holds n pivots with rows still to come, including a run
    resumed from a kept run of n rows, it checks whether the projector is
    spent (see the module docstring). If it is, each later row skips
    ``s = H y`` and the strategy's dependency test, and counts what the
    first row after the check, stepped in full, counted; a row whose test
    would read magnitudes outside ``[1e-150, 1e150]`` (an inf or a NaN
    among them) is stepped in full. The report is the same either way.

    Returns
    -------
    SolveReport

    Raises
    ------
    IncompatibleSystem
        If a dependent equation has a nonvanishing scaled residual. The
        partial report is attached to the exception.
    StrategyBreakdown
        If the strategy's search vector yields a vanishing pivot
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
    state = ProjectorState(h=strategy.initial_h(n), matrix=a, counter=counter)
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
    resolved = strategy.resolves_inconsistency
    # Python floats: the same IEEE arithmetic as numpy scalars, without
    # the scalar dispatch (as is ``u.dot(v)`` for ``u @ v`` on vectors)
    b_list = b.tolist()
    eq_status = []
    iterates = [x.copy()] if keep_iterates else None
    taken = _kept_rows(resume, a, b, b_list, x, strategy, a_ref, norm_b,
                       res_tol, keep_iterates)
    start = 0
    if taken is not None:
        x, kept_iterates = taken
        kept = resume.state
        start = len(resume.eq_status)
        # the kept rows' steps, counted as if taken again: the kept count
        # less its run's setup and final residual
        counter.add(resume.mult_count - n * n - 2 * start - 2 * start * n)
        state.h = kept.h if start == m else kept.h.copy()
        state.step = start
        state.p_cols = list(kept.p_cols)
        state.v_cols = list(kept.v_cols)
        state.pivots = list(kept.pivots)
        eq_status = list(resume.eq_status)
        if keep_iterates:
            iterates += kept_iterates
    # Once the projector is spent (n pivots and a small |H|_F, see
    # _spent), the rows after it skip the projection and the dependency
    # test, and each adds ``cost``: what the first row after the proof,
    # stepped in full, added to the counter from ``mark`` on.
    spent = len(state.pivots) >= n and start < m \
        and _spent(state.h, dep_tol, h_ref)
    cost, mark = 0, counter.mults
    # The run changes h only through rank-one updates, which create no
    # -0.0 in a matrix that holds none, so one scan of the start
    # projector gives the -0 fact of every update.
    update = _BoundUpdate(state.h, not _holds_negative_zero(state.h))
    # multiplies of the current step not yet added to the counter; the
    # step adds them once, and an exception adds what was done
    done = 0
    try:
        for i in range(start, m):
            if cost and resolved and _TINY <= _norm(a[i]) <= _HUGE:
                # dependent on the spent projector, and resolved: its
                # test reads a_i (the whole step is skipped)
                counter.add(cost)
                eq_status.append(REDUNDANT)
                state.step += 1
                if keep_iterates:
                    iterates.append(x.copy())
                continue
            v = strategy.scaling(i, state)
            if spent and not cost and not resolved:
                # a skipped row calls scaling too, which counts itself
                mark = counter.mults
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

            y_norm = _norm(y)
            if cost and not resolved and _TINY <= y_norm <= _HUGE:
                # dependent on the spent projector: only the residual
                # test decides, and the row counts ``cost`` in all
                dependent = True
                done = cost - n - 1
            else:
                s = state.h @ y
                done += n * n + n
                test_vec, test_scale = strategy.classify_vector(
                    i, state, s, y_norm, h_ref)
                done += n
                test_norm = _norm(test_vec)
                dependent = test_norm <= dep_tol * test_scale
            if dependent:
                x_norm = _norm(x)
                done += n
                if resolved or _residual_vanishes(tau, y_norm, x_norm,
                                                  b_scale, v_norm, a_ref,
                                                  norm_b, res_tol):
                    counter.add(done + 1)
                    done = 0
                    if spent and not cost:
                        cost = counter.mults - mark
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

            p = strategy.search_vector(i, state, s)
            den = float(y.dot(p))
            # most strategies test the search vector itself
            p_norm = test_norm if p is test_vec else _norm(p)
            done += 2 * n
            strategy.validate_pivot(i, den, y_norm * p_norm, piv_tol)
            if _pivot_vanishes(den, piv_tol * y_norm * p_norm):
                raise StrategyBreakdown(i, detail=f"pivot {den:.3e}")

            alpha = tau / den
            x -= alpha * p
            done += n + 1

            update(*strategy.update_factors(i, state, s, p, den))
            counter.add(done)
            done = 0

            state.p_cols.append(p.copy())
            state.v_cols.append(v_rec)
            state.pivots.append(den)
            state.step += 1
            eq_status.append(INDEPENDENT)
            if keep_iterates:
                iterates.append(x.copy())
            if len(state.pivots) >= n and i + 1 < m:
                spent = _spent(state.h, dep_tol, h_ref)
                cost, mark = 0, counter.mults
    except BaseException:
        counter.add(done)
        raise

    res = float(np.linalg.norm(a @ x - b))
    counter.add(m * n + m)
    return SolveReport(x=x, rank=len(state.pivots), eq_status=eq_status,
                       state=state, mult_count=counter.mults,
                       residual_norm=res, iterates=iterates)


def _residual_vanishes(tau, y_norm, x_norm, b_scale, v_norm, a_ref, norm_b,
                       res_tol):
    """The residual test of a dependent row: its scaled residual ``tau``
    against the row's own magnitudes plus the whole system's floor (see
    :class:`Tolerances`)."""
    scale = y_norm * x_norm + b_scale + v_norm * (a_ref * x_norm + norm_b)
    return abs(tau) <= res_tol * (scale + 1e-300)


def _pivot_vanishes(den, bound):
    """The pivot test of a step: ``|den| <= bound``, and an exact zero
    whatever the bound, so that a NaN bound (``0 * inf``, from a row or a
    search vector whose norm overflows) cannot let a zero pivot through to
    the division."""
    return den == 0.0 or abs(den) <= bound


# Magnitudes between which the squares and products of a dependency test
# neither overflow nor underflow.
_TINY, _HUGE = 1e-150, 1e150


def _spent(h, dep_tol, h_ref):
    """Whether every later dependency test on the projector ``h`` reads
    "dependent": ``2 |H|_F <= min(1, dep_tol * h_ref)``.

    Each strategy tests a vector of norm at most ``|H|_F scale / h_ref``
    against ``dep_tol * scale`` (the contract of
    :meth:`absolve.strategies.ParameterStrategy.classify_vector`), so on
    such an ``h`` its vector stays within half of its bound and the other
    half absorbs rounding. The proof holds for a row whose test reads
    magnitudes between ``_TINY`` and ``_HUGE``, which ``solve`` checks
    row by row (the scaled row's norm, or the row's own for a
    ``resolves_inconsistency`` strategy); a row outside is stepped in
    full. An ``h`` that holds an inf or a NaN is not spent.
    """
    peak = float(np.abs(h).max())
    # |H|_F >= peak, so a larger or NaN entry fails; where the squares
    # underflow, |H|_F <= n peak stands in for the norm
    if not peak <= 0.5:
        return False
    h_norm = float(np.linalg.norm(h)) if peak >= _TINY else len(h) * peak
    # a NaN bound (0 * inf) fails
    return 2.0 * h_norm <= 1.0 and 2.0 * h_norm <= dep_tol * h_ref


def _kept_rows(kept, a, b, b_list, x, strategy, a_ref, norm_b, res_tol,
               keep_iterates):
    """Where ``solve``'s ``resume`` applies, the iterate after the rows of
    the kept run ``kept``, stepped from ``x`` along the kept search
    vectors with the kept pivots and ``tau`` from this ``b``, and the
    iterates after each row (``None`` unless ``keep_iterates``). ``None``
    where it does not apply, or where a kept redundant row fails its
    residual test on this ``b``: the run then starts at row 0."""
    if kept is None or kept.x is None or kept.state.h is None:
        return None
    state = kept.state
    k, m = len(kept.eq_status), a.shape[0]
    ka = state.matrix
    # the kept rows must be these rows, bit for bit and in their layout
    if not 0 < k <= m or ka.shape != (k, a.shape[1]) \
            or ka.strides != a.strides or ka.tobytes() != a[:k].tobytes():
        return None
    # a run keeps no scaling of a redundant row: it is retested under a
    # unit one, where every kept independent row had a unit scaling
    unit = bool(state.v_cols) and all(isinstance(v, (int, np.integer))
                                      for v in state.v_cols)
    retest = not strategy.resolves_inconsistency
    if (k < m and not (strategy.resumable and unit)) \
            or (retest and not unit and REDUNDANT in kept.eq_status):
        return None
    x = x.copy()
    iterates = [] if keep_iterates else None
    # the arithmetic of the engine's steps on the rows that touch x or tau
    steps = zip(state.p_cols, state.v_cols, state.pivots)
    for i, status in enumerate(kept.eq_status):
        if status == INDEPENDENT:
            p, v, den = next(steps)
            if isinstance(v, (int, np.integer)):
                tau = float(a[i].dot(x)) - b_list[i]
            else:
                tau = float(v @ (a @ x - b))
            alpha = tau / den
            x -= alpha * p
        elif retest:
            y = a[i]
            tau = float(y.dot(x)) - b_list[i]
            if not _residual_vanishes(tau, _norm(y), _norm(x),
                                      abs(b_list[i]), 1.0, a_ref, norm_b,
                                      res_tol):
                return None
        if keep_iterates:
            iterates.append(x.copy())
    return x, iterates


def _norm(v):
    """``float(np.linalg.norm(v))`` of a 1-D float64 vector, bit for bit.

    numpy takes the 2-norm of a vector as ``sqrt(x.dot(x))`` over
    ``x.ravel('K')``, so the same two steps give the same number without
    the dispatch: ``ravel('K')`` is the contiguous vector itself, and a
    contiguous copy, in numpy's own order, of a strided one. A ``dot`` on
    the strided vector may sum in another order. Any other input goes to
    numpy.
    """
    if isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.float64:
        if not v.flags.c_contiguous:
            v = v.ravel(order="K")
        return math.sqrt(v.dot(v))
    return float(np.linalg.norm(v))


def _asymmetry(a):
    """The largest entry of ``|a - a^T|`` where it exceeds
    ``1e-10 (1 + max|a|)``, so that ``a`` counts as not symmetric, else
    0.0."""
    skew = float(np.abs(a - a.T).max())
    return skew if skew > 1e-10 * (1.0 + float(np.abs(a).max())) else 0.0


# Fewest entries of an update without the -0 fact from which it tests
# the magnitudes of ``u`` and ``v`` and, where they pass, takes the
# ``dgemm``. With one BLAS thread on a 2-vCPU Xeon VM (fastest of 31 x
# 1000 calls on blocks of an n x (2n + 1) buffer, as the packed implicit
# LU passes them), the test and the dgemm took 5.8 us from 16 x 16 to
# 32 x 32, numpy 4.5, 5.3 and 6.6 us at 16 x 16, 24 x 24 and
# 32 x 32; at 48 x 48 6.3 us against 11.2, at 128 x 128 16-17 us against
# 48-52. With the fact an update takes the dgemm at any size: 3.8 us from
# 8 x 8 to 32 x 32, up to 1.7 us more than numpy (2.1 us at
# 8 x 8), about a tenth of an n=8 engine step, and 4.2 us against 4.7
# at 40 x 40.
_CHECKED_MIN = 1024

# Fewest entries of an update with the -0 fact from which it looks for
# the +-0 edge rows of ``u``. The search adds about 1 us: with a quarter
# or half of ``u`` zero at its start, a call took 5.1-6.9 us with it and
# 4.0-5.9 us without from 24 x 24 to 90 x 90, and 7.6-8.5 us against
# 8.4 at 128 x 128 (fastest of 31 x 2000 calls). Leaving it out made the
# engine's ``ilu`` 13% and ``gilu_solve`` 18% slower at n=300 (fastest
# of 61-71 in-process alternations).
_EDGE_SEARCH_MIN = 16384


def _numpy_dgemm():
    """The address of the Fortran ``dgemm`` in the BLAS that numpy has
    loaded, and the ctypes type of its integers; ``None`` where numpy's
    extension exposes no such symbol.

    ``dlsym`` on a handle of numpy's ``_multiarray_umath`` also searches
    the libraries it depends on, which hold numpy's BLAS. The scipy-openblas
    wheels export it as ``scipy_dgemm_64_`` with 64-bit integers; other
    builds as ``dgemm_64_`` or, with 32-bit integers, ``dgemm_``."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for name, blas_int in (("scipy_dgemm_64_", ctypes.c_int64),
                           ("dgemm_64_", ctypes.c_int64),
                           ("dgemm_", ctypes.c_int)):
        address = getattr(lib, name, None)
        if address is not None:
            return ctypes.cast(address, ctypes.c_void_p).value, blas_int
    return None


def _scipy_dgemm():
    """The address of the Fortran ``dgemm`` that SciPy exports for Cython
    modules, and its integer type, ``int``."""
    import scipy.linalg.cython_blas
    capsule = scipy.linalg.cython_blas.__pyx_capi__["dgemm"]
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, name)
    return address, ctypes.c_int


def _fortran_dgemm():
    """A Fortran ``dgemm`` as a ctypes function of 13 pointers, and the
    ctypes type of its integers.

    It comes from the BLAS that numpy has already loaded
    (:func:`_numpy_dgemm`), so that importing absolve loads no BLAS of its
    own; where numpy exposes none (on Windows ``GetProcAddress`` does not
    search an extension's dependencies), from SciPy's exported capsule
    (:func:`_scipy_dgemm`). Which BLAS runs it changes no byte: a k=1
    update rounds each product once and each sum once in any of them
    (see :class:`_BoundUpdate`). It takes every leading dimension as an
    argument, so it updates a strided view in place."""
    address, blas_int = _numpy_dgemm() or _scipy_dgemm()
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 13)(address), blas_int


_DGEMM, _BLAS_INT = _fortran_dgemm()
# The largest dimension the dgemm's integers hold.
_BLAS_INT_MAX = 2 ** (8 * ctypes.sizeof(_BLAS_INT) - 1) - 1
# The pointers every call shares: trans = 'N', alpha = -1 and beta = 1.
# The call takes ctypes objects for its pointers: it converts them in
# half the time it takes for Python ints.
_PTR = ctypes.c_void_p
_DGEMM_NOTRANS_CHAR = ctypes.c_char(b"N")
_DGEMM_SCALARS = (ctypes.c_double * 2)(-1.0, 1.0)
_DGEMM_NOTRANS = _PTR(ctypes.addressof(_DGEMM_NOTRANS_CHAR))
_DGEMM_ALPHA = _PTR(ctypes.addressof(_DGEMM_SCALARS))
_DGEMM_BETA = _PTR(ctypes.addressof(_DGEMM_SCALARS) + 8)
_F64 = np.dtype(np.float64)

# -0.0 read as an int64 is the smallest int64, so one integer min over
# the bits of a float64 array tells whether it holds a -0.0
_NEGATIVE_ZERO_BITS = np.iinfo(np.int64).min


def _holds_negative_zero(a):
    return a.size > 0 and int(a.view(np.int64).min()) == _NEGATIVE_ZERO_BITS


# Each thread's dgemm call (:class:`_DgemmCall`), made on first use.
_THREAD = threading.local()


class _DgemmCall:
    """The ctypes arguments of one thread's k=1 ``dgemm``, and the
    workspace that ``v`` and then ``u`` are copied to, so that ``A`` is
    always the workspace's start.

    Every update sets the dims ``M``, ``N`` and ``ldc`` and the pointers
    ``u_at`` and ``h_at`` that it reads, so all the bindings of a thread
    share its one call; a binding grows the workspace to its largest
    ``rows + cols`` and reads it at each update. Each thread keeps its
    own, since the dgemm runs without the GIL.
    """

    __slots__ = ("uv", "uv_at", "a_at", "u_at", "h_at", "dims", "args")

    def __init__(self, size):
        # K (= ldb), M (= lda), N and ldc, in the dgemm's integers
        self.dims = dims = (_BLAS_INT * 4)(1)
        d, width = ctypes.addressof(dims), ctypes.sizeof(_BLAS_INT)
        k, m, n, ldc = (_PTR(d + i * width) for i in range(4))
        self.a_at, self.u_at, self.h_at = _PTR(), _PTR(), _PTR()
        # dgemm('N', 'N', M, N, K, -1, A=v, lda, B=u, ldb, 1, C=h, ldc)
        # on h^T
        self.args = (_DGEMM_NOTRANS, _DGEMM_NOTRANS, m, n, k, _DGEMM_ALPHA,
                     self.a_at, m, self.u_at, k, _DGEMM_BETA, self.h_at, ldc)
        self.grow(size)

    def grow(self, size):
        workspace = (ctypes.c_double * size)()
        self.uv = np.frombuffer(workspace)
        self.a_at.value = self.uv_at = ctypes.addressof(workspace)


class _BoundUpdate:
    """The rank-one updates of one matrix ``h``, bound once for a run.

    ``bound(u, v)`` is ``h[:len(u), -len(v):] -= np.outer(u, v)`` in
    place, bit for bit, on the top-right block that the lengths of ``u``
    and ``v`` give, without the n x n temporary on the BLAS route. Each
    entry is ``h[i, j] - u[i] * v[j]`` with the product rounded first, as
    in the unfused expression. ``h`` may be any writable 2-D view; ``v``
    must not share memory with ``h`` (pass a copy of a row of ``h``). A
    block larger than ``h`` raises ``ValueError``.

    Binding reads what every step shares: whether ``h`` is a row-major
    float64 view that the ``dgemm`` can update in place (unit column
    stride, a row stride of at least ``cols``), its address and row
    stride, and the caller's -0 fact (``no_negative_zero``: ``h`` holds
    no -0.0). Binding fetches the thread's :class:`_DgemmCall` and grows
    its workspace to ``rows + cols``; each update copies ``v`` and ``u``
    there and sets the call's dims and pointers, so no step reads an
    address or a layout. A binding is for the thread that made it. The
    engine, the direction deflation and the packed implicit LU bind
    their matrix once per run, with the fact where they know it.

    The one BLAS route is a k=1 call of the Fortran ``dgemm``
    (:func:`_fortran_dgemm`), through ctypes, on ``h^T`` in place with
    the row stride of ``h`` as its leading dimension. It is exact: the
    kernel's accumulator starts at +0 and takes the one product
    ``round(u[i] v[j])``, multiplying that by -1 is exact, and adding it
    to ``h[i, j]`` rounds once, as the unfused subtraction does; the
    entries are independent, so any BLAS thread count, and any BLAS
    library, gives the same bytes. The one difference is a product of
    exactly -0, which the accumulator turns into +0: where ``h[i, j]`` is
    -0 the kernel leaves -0 and the unfused expression gives +0. The
    route is therefore taken when ``h`` is such a view, the sum of the
    squares of ``u`` and ``v`` is finite (an inf or a NaN fails, and so,
    conservatively, does a sum that overflows), and either the binding
    states the -0 fact or no product can round to zero
    (``min|u| min|v| > 0``, by the monotonicity of rounding). The
    magnitude test runs from ``_CHECKED_MIN`` entries; the fact takes the
    route at any size. Everything else takes one numpy
    ``np.subtract(h, np.multiply(u[:, None], v), out=h)``. Neither path
    creates a -0 in a matrix that holds none (``x - y`` is -0 only when
    ``x`` is), so one check of the matrix a run starts with states the
    fact for the run. A true fact changes no byte; a false one can leave
    a -0 where the unfused expression gives +0.

    Under the fact an update of ``_EDGE_SEARCH_MIN`` entries or more also
    leaves out the leading and trailing rows where ``u`` is +-0, and does
    nothing when all of ``u`` is: ``h[i, j] - (+-0)`` is ``h[i, j]`` for
    every ``h[i, j]`` but -0 and a signalling NaN, which numpy never
    makes. These are the zeroed rows of the implicit LU projectors and
    the trailing zeros of the deflated directions of
    :func:`absolve.strategies.gilu_solve`.
    """

    __slots__ = ("h", "_rows", "_cols", "_clean", "_target", "_ld",
                 "_call")

    def __init__(self, h, no_negative_zero=False):
        rows, cols = h.shape
        row_step, col_step = h.strides
        ld = row_step // 8 if rows > 1 else max(cols, 1)
        flags = h.flags
        # unit column stride and a row stride of at least cols, in the
        # dgemm's integers
        blas = (h.dtype is _F64 and flags.aligned and flags.writeable
                and h.size > 0 and (cols == 1 or col_step == 8)
                and (rows == 1 or (row_step % 8 == 0 and ld >= cols))
                and max(rows, ld) <= _BLAS_INT_MAX)
        self.h, self._rows, self._cols, self._ld = h, rows, cols, ld
        self._clean = no_negative_zero
        self._target = self._call = None
        if blas:
            # a contiguous matrix gives its address through its buffer in
            # a third of the time of ``h.ctypes.data``
            self._target = ctypes.addressof(ctypes.c_char.from_buffer(h)) \
                if flags.c_contiguous else h.ctypes.data
            call = getattr(_THREAD, "dgemm", None)
            if call is None:
                call = _THREAD.dgemm = _DgemmCall(rows + cols)
            elif call.uv.size < rows + cols:
                call.grow(rows + cols)
            self._call = call

    def __call__(self, u, v):
        rows, cols = len(u), len(v)
        if rows > self._rows or cols > self._cols:
            raise ValueError(f"a {rows} x {cols} update does not fit a "
                             f"{self._rows} x {self._cols} matrix")
        if rows == 0 or cols == 0:
            return
        clean = self._clean
        if (self._target is not None and u.dtype is _F64
                and v.dtype is _F64
                and (clean or rows * cols >= _CHECKED_MIN)):
            # v ends where u starts, so one dot covers both
            call = self._call
            uv = call.uv
            lo, hi = cols, cols + rows
            uv[:cols] = v
            uv[lo:hi] = u
            both = uv[:hi]
            exact = math.isfinite(both.dot(both))
            if exact and not clean:
                mag = np.abs(both)
                exact = mag[mag[:cols].argmin()] \
                    * mag[cols + mag[cols:].argmin()] > 0.0
            # u is dense in most updates: two scalar tests first
            elif exact and rows * cols >= _EDGE_SEARCH_MIN \
                    and not (uv[lo] and uv[hi - 1]):
                nonzero = uv[lo:hi].nonzero()[0]
                if nonzero.size == 0:
                    return
                lo, hi = lo + int(nonzero[0]), lo + int(nonzero[-1]) + 1
            if exact:
                dims = call.dims
                dims[1], dims[2], dims[3] = cols, hi - lo, self._ld
                call.u_at.value = call.uv_at + 8 * lo
                # the block's row lo - cols, its first column
                call.h_at.value = self._target + 8 * (
                    (lo - cols) * self._ld + self._cols - cols)
                _DGEMM(*call.args)
                return
        h = self.h[:rows, self._cols - cols:]
        np.subtract(h, np.multiply(u[:, None], v), out=h)


def general_solution(report, q):
    """Map a parameter vector q to the solution ``x + H_final^T q``.

    Over all q this sweeps the full solution set of the processed system
    (``H_final`` annihilates every processed row, so each image point solves
    the system; rank-deficiency leaves ``H_final`` with rank n - rank).
    """
    if report.x is None:
        raise ValueError("no particular solution: the run was incompatible")
    if report.state.h is None:
        raise ValueError("no projector: the run deflated its directions "
                         "without forming one")
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
    # imported here: nothing else on the engine's path needs scipy.linalg,
    # which costs more to import than absolve does without it
    import scipy.linalg
    return p @ scipy.linalg.solve_triangular(l, v.T, lower=True)
