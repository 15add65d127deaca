"""Named parameter policies for the scaled projection engine.

Each strategy fixes the free choices of the engine loop: the scaling vector
applied to the current equation, the search vector, and the factors of the
projector update. A strategy only chooses; the engine steps and updates.
The engine calls the hooks in a fixed order per step:

    scaling -> classify_vector -> search_vector -> validate_pivot
            -> update_factors

and then subtracts ``np.outer(u, v)`` of the returned factors from the
projector, through the one rank-one update it binds for the run.

Strategies count every multiply they perform themselves through
``state.counter``; the engine counts the shared work (scaled row, projected
row, tolerance arithmetic).

Besides the engine-pluggable classes this module provides two standalone
solvers that exploit structure the generic loop cannot:

* :func:`implicit_lu_solve` works only on the nonzero block of the projector
  and meters its auxiliary storage (peak <= n^2/4 + n entries).
* :func:`gilu_solve` runs the deflation on a set of direction vectors without
  ever forming the projector; :func:`absolve.iterative.recursive_solve`
  runs the same loop on scaled rows.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .counting import OpCounter, StorageMeter
from .errors import RegularityFailure, StrategyBreakdown, UnsupportedShape


class ParameterStrategy:
    """Base policy: unit scalings and the dependency test on ``H y``.

    Subclasses choose the step through ``search_vector``, which returns
    the search vector ``p``, and ``update_factors``, which returns the
    factors ``(u, v)`` of the projector update ``H <- H - u v^T``.
    ``v`` must not share memory with ``H`` (pass a copy of a row).
    ``resolves_inconsistency`` marks strategies whose dependent equations
    never signal incompatibility (the scaled residual of a dependent
    equation vanishes identically, as for orthogonal scalings on
    least-squares runs). ``resumable`` marks strategies whose step reads
    only its own row, its index and the projector, so that a run of more
    rows can continue from a kept run of its leading rows
    (:func:`absolve.core.solve`'s ``resume``); a kept run of every row
    serves any strategy.
    """

    resolves_inconsistency = False
    resumable = False

    def initial_h(self, n):
        return np.eye(n)

    def begin(self, a):
        """Validate the system shape and reset per-run state."""

    def scaling(self, i, state):
        """Return the scaling vector v_i, or None for the unit vector e_i."""
        return None

    def classify_vector(self, i, state, s, y_norm, h_norm):
        """Vector and scale for the dependency test on equation i.

        ``h_norm`` is the norm of the *initial* projector, not the
        current one: s = H y shrinks with the live projector, so only a
        fixed reference can separate dependent rows from small ones.

        The engine relies on one contract: when ``|H|_F <= 1``, the
        returned vector's norm is at most ``|H|_F * scale / h_norm``, up
        to rounding. On a projector with ``2 |H|_F <= min(1, dep_tol *
        h_norm)`` the test then reads "dependent" whatever the row, so
        :func:`absolve.core.solve` skips this hook on such a run's later
        rows (and ``scaling`` too where ``resolves_inconsistency``). Every
        strategy here keeps it: ``H y`` against ``|y| h_norm``,
        ``H (H y)`` likewise, and ``H^T a_i`` against ``|a_i| h_norm``.
        """
        return s, y_norm * h_norm

    def search_vector(self, i, state, s):
        """Search vector p_i of equation i, given ``s = H y_i``."""
        raise NotImplementedError

    def validate_pivot(self, i, den, scale, piv_tol):
        """Strategy-specific pivot check; the engine re-checks generically."""

    def update_factors(self, i, state, s, p, den):
        """Factors ``(u, v)`` of the update ``H <- H - u v^T`` after the
        step along ``p`` with pivot ``den``; ``state.h`` is still the
        step's projector."""
        raise NotImplementedError


def _oblique_factors(i, state, s, w, wh):
    """Factors of ``H <- H - s (w^T H) / (w^T s)`` at equation ``i``,
    given ``wh = w^T H``."""
    den_w = float(w @ s)
    n = state.n
    if den_w == 0.0:
        state.counter.add(n * n + n)
        raise StrategyBreakdown(
            i, detail="projector update pivot w.H.y vanished")
    state.counter.add(2 * (n * n + n))
    return s, wh / den_w


class HuangStrategy(ParameterStrategy):
    """Unit scalings with row seeds; the projector stays symmetric.

    Search vectors are mutually orthogonal and, from a zero start, every
    iterate is the least-norm solution of the equations processed so far.
    Among all admissible parameter choices this one minimizes the
    worst-case amplification of a perturbation of one iterate into the
    final solution; the registry also offers it as ``stable``.
    """

    resumable = True

    def search_vector(self, i, state, s):
        # p = H^T a_i = H a_i = s up to symmetric round-off
        return s

    def update_factors(self, i, state, s, p, den):
        n = state.n
        state.counter.add(n * n + n)
        return s, s / den


class ModifiedHuangStrategy(ParameterStrategy):
    """Reprojected Huang update for sharper rank decisions.

    The search vector is projected twice (p = H (H a_i)) and the projector
    update divides by p.p, which keeps H symmetric idempotent in exact
    arithmetic. The double projection pushes the dependent-row signal down
    to round-off level, which makes the rank count reliable on nearly
    dependent rows.
    """

    resumable = True

    def classify_vector(self, i, state, s, y_norm, h_norm):
        # the step's search vector: the engine tests it, then steps on it
        self._p2 = p2 = state.h @ s
        state.counter.add(state.n * state.n)
        return p2, y_norm * h_norm

    def search_vector(self, i, state, s):
        return self._p2

    def update_factors(self, i, state, s, p, den):
        n = state.n
        den_p = float(p @ p)
        if den_p == 0.0:
            state.counter.add(n)
            raise StrategyBreakdown(
                i, detail="reprojected direction vanished")
        state.counter.add(n * n + 2 * n)
        return p, p / den_p


class ImplicitLXStrategy(ParameterStrategy):
    """Unit scalings with a column-pivoted unit seed.

    Each step seeds on the component of the projected row that is largest
    in magnitude (ties: smallest unused index), which keeps the division
    well scaled without touching the row order. Components chosen earlier
    are exactly zero in later projected rows, so each index is picked at
    most once.

    The update zeroes row k of the projector, and a zeroed row stays
    zero, with ``s`` +-0 there. The rank-one update leaves out such rows
    where they reach an end of the matrix. Here they are scattered, so
    most steps update nearly all n rows; in the implicit LU subclass
    they form a leading block that later updates skip.
    """

    def begin(self, a):
        self._used = []

    def _pivot_index(self, i, s):
        scores = np.abs(s)
        scores[self._used] = -1.0
        k = int(np.argmax(scores))  # argmax ties break to the smallest index
        self._used.append(k)
        return k

    def search_vector(self, i, state, s):
        # p = H^T e_k: row k of the projector, copied before the update
        self._k = k = self._pivot_index(i, s)
        return state.h[k].copy()

    def update_factors(self, i, state, s, p, den):
        n = state.n
        pivot = float(s[self._k])
        if pivot == 0.0:
            raise StrategyBreakdown(
                i, detail="pivot component of the projected row is 0")
        state.counter.add(n * n + n)
        # dividing on the s side zeroes row k exactly (s_k/s_k == 1), and
        # p is row k
        return s / pivot, p


class ImplicitLUStrategy(ImplicitLXStrategy):
    """Implicit LX with the index fixed to the equation's own: unit seeds
    e_i, pivots on the projected diagonal.

    Requires every leading principal submatrix of the processed rows to be
    nonsingular (:class:`~absolve.errors.RegularityFailure` otherwise) and
    m <= n. The projector keeps rows 0..i-1 zero, so search vectors come
    out of it for free; see :func:`implicit_lu_solve` for the variant that
    also exploits the sparsity for storage.
    """

    resumable = True

    def begin(self, a):
        m, n = a.shape
        if m > n:
            raise UnsupportedShape(
                f"implicit LU needs m <= n, got {m} rows, {n} columns")

    def _pivot_index(self, i, s):
        return i

    def validate_pivot(self, i, den, scale, piv_tol):
        if core._pivot_vanishes(den, piv_tol * scale):
            raise RegularityFailure(i)


class GiluStrategy(ImplicitLUStrategy):
    """Implicit LU deflation started from a caller-supplied projector.

    The initial projector must be nonsingular; pivot failures mean the
    interaction matrix of the chosen projector with the system rows has a
    singular leading block, reported as the engine's generic breakdown.
    """

    def __init__(self, h1):
        self.h1 = np.array(h1, dtype=float)
        if self.h1.ndim != 2 or self.h1.shape[0] != self.h1.shape[1]:
            raise ValueError("initial projector must be square")

    def initial_h(self, n):
        if self.h1.shape != (n, n):
            raise ValueError(
                f"initial projector is {self.h1.shape}, system needs "
                f"({n}, {n})")
        return self.h1.copy()

    def validate_pivot(self, i, den, scale, piv_tol):
        pass  # generic breakdown check applies


class _CachedSearchStrategy(ParameterStrategy):
    """Hooks shared by strategies whose ``scaling`` computes the step's
    search vector H^T a_i and row norm |a_i| and keeps them as ``_pt``
    and ``_a_norm`` until the next step's scaling: the dependency test
    and the step both use the kept vector.
    """

    def classify_vector(self, i, state, s, y_norm, h_norm):
        return self._pt, self._a_norm * h_norm

    def search_vector(self, i, state, s):
        return self._pt

    def update_factors(self, i, state, s, p, den):
        # w = a_i, and the kept p = H^T a_i has the bytes of w^T H (the
        # same BLAS call), so the update reuses it
        return _oblique_factors(i, state, s, state.matrix[i], p)


class ImplicitQRStrategy(_CachedSearchStrategy):
    """Orthogonal scalings: v_i = A H^T a_i.

    Scaled rows are orthogonal in the column space of A, the residual norm
    never increases, and on overdetermined systems the run lands on the
    least-squares solution after rank(A) steps; the remaining equations
    are dependent under this scaling and classified redundant even when
    their raw residuals stay nonzero.
    """

    resolves_inconsistency = True

    def scaling(self, i, state):
        a = state.matrix
        m, n = a.shape
        row = a[i]
        pt = state.h.T @ row
        v = a @ pt
        self._pt, self._a_norm = pt, core._norm(row)
        state.counter.add(n * n + m * n + n)
        return v


class ConjugateDirectionStrategy(_CachedSearchStrategy):
    """Search vectors conjugate in the (symmetric positive definite) matrix.

    Scalings equal the search vectors, so pivots are energy norms and must
    stay positive; a nonpositive pivot or an asymmetric matrix raises
    :class:`~absolve.errors.UnsupportedShape`. The error decreases
    monotonically in the energy norm.
    """

    def begin(self, a):
        m, n = a.shape
        if m != n:
            raise UnsupportedShape("conjugate directions need a square matrix")
        skew = core._asymmetry(a)
        if skew:
            raise UnsupportedShape(
                f"matrix is not symmetric (max asymmetry {skew:.3e})")

    def scaling(self, i, state):
        row = state.matrix[i]
        pt = state.h.T @ row
        n = state.n
        state.counter.add(n * n)
        self._pt, self._a_norm = pt, core._norm(row)
        state.counter.add(n)
        return pt

    def validate_pivot(self, i, den, scale, piv_tol):
        if den <= piv_tol * scale:
            raise UnsupportedShape(
                f"pivot p.A.p = {den:.3e} is not positive: matrix is not "
                f"positive definite")


class GeneralStrategy(ParameterStrategy):
    """Explicitly supplied scalings/seeds, one column per equation.

    ``v``, ``z``, ``w`` are matrices whose column i is used at step i; any
    of them may be None to fall back to the default (unit scaling, row
    seed, w = z). ``h1`` replaces the identity start. An inadmissible
    choice raises :class:`~absolve.errors.StrategyBreakdown` at its first
    vanishing pivot.
    """

    def __init__(self, v=None, z=None, w=None, h1=None):
        self.v = None if v is None else np.asarray(v, dtype=float)
        self.z = None if z is None else np.asarray(z, dtype=float)
        self.w = None if w is None else np.asarray(w, dtype=float)
        self.h1 = None if h1 is None else np.array(h1, dtype=float)

    def initial_h(self, n):
        if self.h1 is None:
            return np.eye(n)
        if self.h1.shape != (n, n):
            raise ValueError("initial projector shape mismatch")
        return self.h1.copy()

    def scaling(self, i, state):
        if self.v is None:
            return None
        return self.v[:, i]

    def search_vector(self, i, state, s):
        # the seed z_i, kept for the update's default w_i = z_i
        if self.z is not None:
            z = self.z[:, i]
        elif self.v is None:
            z = state.matrix[i]
        else:
            # no explicit seed: fall back to the scaled row
            z = state.matrix.T @ self.v[:, i]
            state.counter.add(state.matrix.size)
        self._z = z
        p = state.h.T @ z
        state.counter.add(state.n * state.n)
        return p

    def update_factors(self, i, state, s, p, den):
        w = self._z if self.w is None else self.w[:, i]
        return _oblique_factors(i, state, s, w, w @ state.h)


_REGISTRY = {
    "huang": HuangStrategy,
    "stable": HuangStrategy,
    "mhuang": ModifiedHuangStrategy,
    "ilu": ImplicitLUStrategy,
    "ilx": ImplicitLXStrategy,
    "iqr": ImplicitQRStrategy,
    "cgdir": ConjugateDirectionStrategy,
    "gilu": GiluStrategy,
}


def make_strategy(name, **kwargs):
    """Instantiate a strategy by its short name.

    Names: huang, stable, mhuang, ilu, ilx, iqr, cgdir, gilu. ``stable``
    is an alias of ``huang``, the optimally stable choice. ``gilu``
    requires the initial projector as ``h1=...``; without it, or for an
    unknown name, raises ``ValueError``.
    """
    key = name.lower().strip()
    cls = _REGISTRY.get(key)
    if cls is None:
        raise ValueError(
            f"unknown strategy {name!r}; choose from {sorted(_REGISTRY)}")
    if cls is GiluStrategy and "h1" not in kwargs:
        raise ValueError("strategy 'gilu' needs its initial projector as "
                         "h1=...")
    return cls(**kwargs)


@dataclass
class CompactLUWorkspace:
    """Auxiliary-storage accounting of :func:`implicit_lu_solve`.

    The meter counts the semantic entries the algorithm still needs: the
    nonzero block of the projector, the current update column, and the
    gathered search prefix. Inputs and outputs (matrix, right-hand side,
    solution, returned factors) are excluded, and so is the layout of the
    working arrays: the solver keeps the block in one n x n buffer and
    forms the products each new column is summed from in a scratch block
    of up to n^2/4 entries, but an entry of the projector block counts
    only while a later step can still read it. The peak is that of a
    layout which reclaims consumed entries, at or below n^2/4 + n.
    """

    storage: StorageMeter
    n: int


# Fewest products of a step (i x w, block rows by new-column entries)
# from which a run with the products fact forms them with ``np.einsum``.
# With one BLAS thread on a 2-vCPU Xeon VM (fastest of 15 x 3 x 500 calls
# on blocks of an n x n buffer, as the packed implicit LU passes them),
# the einsum took 1.29-1.39x the multiply's time from 720 to 992
# products, 0.91-1.07x from 1800 to 2450, 0.82-0.87x from 2976 to 4032
# and 0.66-0.69x from 8100 to 16256.
_EXACT_PRODUCTS_MIN = 2048


def implicit_lu_solve(a, b, tol=None, counter=None):
    """Solve a regular square system by projection, storing only the
    nonzero projector block.

    After step i the projector has rows 0..i-1 zero and an identity in
    its trailing columns, so only an (n-i) x i block carries information.
    The block lives in one packed buffer, ``packed[c, r]`` = projector
    entry (row r, column c), so the live block at step i is
    ``packed[:i, i:]`` and each step drops its first column. The
    ``StorageMeter`` counts those live entries, not the buffer: the peak
    stays at or below n^2/4 + n entries (reported in
    ``report.workspace.storage.peak``) and the multiply count stays
    within ~10% of n^3/3. The working arrays themselves take
    n^2 + n^2/4 floats (the n x n buffer and the scratch block that holds
    the products the new column is summed from; about 3.6 MB at n=600),
    more than the metered ceiling: the buffer trades the ceiling for
    whole-block numpy calls.

    Each step makes a fixed number of numpy calls on the block. The
    block itself, a column slice of the buffer, takes one rank-one update
    (see :class:`absolve.core._BoundUpdate`) through the buffer, which
    the solve binds once: a strided ``dgemm`` on the slice in place.

    The new column sums ``row[i + 1:]`` and the products
    ``row[c] * block[c, j]`` in ascending ``c``, as the column loop adds
    them, the order of a scalar loop over the columns.
    ``np.add.reduce`` starts from -0.0: from its own +0.0 a -0.0 of
    ``row[i + 1:]`` would come out +0. The products come from
    ``np.multiply`` with the row broadcast down the columns, which numpy
    runs one block row at a time; or, in a run with the products fact and
    from ``_EXACT_PRODUCTS_MIN`` products, from
    ``np.einsum("c,cj->cj", ...)``, which runs each block row as a scalar
    times a contiguous vector, 1.5-2x as fast on the blocks of an n=600
    run. The fact is that ``a`` is finite and holds no -0.0; the solve
    reads it once, and only where its largest step reaches the threshold.
    The einsum adds each product into a zeroed output, so an entry is
    ``0 + row[c] * block[c, j]``: the rounded product, since adding +0
    changes no number but -0, so a zero product may come out +0 where the
    multiply gives -0. With ``a`` finite at most one operand is not: an
    infinity or a NaN of the block gives the multiply's infinity or NaN.
    The sum tells the two zeros apart only where its running value is -0,
    and in round-to-nearest ``x + y`` is -0 only when both ``x`` and
    ``y`` are. Under the fact the running value starts at ``row[i + 1:]``,
    which holds no -0.0, so it never is -0, and the new column has the
    multiply's bytes. A run leaves the route for good at its first step
    whose new column is not finite, where the block takes the numpy
    update below; a run without the fact takes the multiply throughout.

    A step adds its multiplies to the counter once, by the formula of
    the column loop: with ``w = n - i - 1`` entries in the new column,
    ``3i + n + 2`` for the pivot, its test and the step of ``x``, and
    ``w (2i + 1)`` for the new column and the block update. A step that
    fails the pivot test adds the ``i + n + 1`` of the pivot and its
    test. The meter moves once per step too: ``i + w`` entries come (the
    heads and the new column), and ``2i`` go (the heads, and the first
    row of the block, which at the last step is all of it).

    Raises :class:`~absolve.errors.RegularityFailure` when a leading
    principal submatrix is singular (within tolerance).
    """
    a, b = core._as_system(a, b)
    m, n = a.shape
    if m != n:
        raise UnsupportedShape(f"need a square system, got {m} x {n}")
    _, _, piv_tol = (tol or core.Tolerances()).resolve(n)
    counter = counter if counter is not None else OpCounter()
    meter = StorageMeter()

    x = np.zeros(n)
    packed = np.empty((n, n))
    # the products the new column is summed from: first row row[i+1:],
    # then column c times row[c]
    scratch = np.empty(n * n // 4)
    # the block can hold -0.0 (the stored -t of an exact zero), so its
    # updates state no -0 fact
    update = core._BoundUpdate(packed)
    # the products fact, read where the largest step (i = (n - 1) // 2)
    # reaches the einsum's threshold
    half = (n - 1) // 2
    products_fact = (half * (n - 1 - half) >= _EXACT_PRODUCTS_MIN
                     and bool(np.isfinite(a).all())
                     and not core._holds_negative_zero(a))
    rhs = b.tolist()
    head_mags = np.empty(n)
    p_out = []
    pivots = []
    for i in range(n):
        row = a[i]
        head_row = row[:i]
        # the search vector: the heads of the block's columns, then 1
        p = packed[:i + 1, i].copy()
        p[i] = 1.0
        heads = p[:i]

        # pivot: projected diagonal entry (H a_i)_i
        d = float(head_row.dot(heads)) + float(row[i])
        a_norm = core._norm(row)
        # argmax, as max, finds the first NaN, and skips max's Python
        # wrapper. |heads| goes to a buffer of the run: an array per step
        # that outlives the next p leaves a hole in the heap per step
        # (1 MB more peak RSS at n=600)
        mags = np.abs(heads, out=head_mags[:i])
        p_bound = max(1.0, float(mags[mags.argmax()]) if i else 1.0) \
            * math.sqrt(i + 1)
        if core._pivot_vanishes(d, piv_tol * a_norm * p_bound):
            counter.add(i + n + 1)
            raise RegularityFailure(i)

        # x has support 0..i-1 before this step
        tau = float(head_row.dot(x[:i])) - rhs[i]
        alpha = tau / d
        x[:i] -= alpha * heads
        x[i] = -alpha

        p_out.append(p)  # output, not metered
        pivots.append(d)

        w = n - i - 1
        if w:
            # sub-diagonal projected entries, then the new column -t/d
            body = packed[:i, i + 1:]
            prods = scratch[:(i + 1) * w].reshape(i + 1, w)
            prods[0] = row[i + 1:]
            if products_fact and i * w >= _EXACT_PRODUCTS_MIN:
                np.einsum("c,cj->cj", head_row, body, out=prods[1:])
            else:
                np.multiply(body, head_row[:, None], out=prods[1:])
            if w > 1:
                # row by row, in column order, from -0.0: numpy's own start
                # is +0.0, and +0 + -0 would lose a -0.0 of row[i + 1:]
                t = np.add.reduce(prods, axis=0, initial=-0.0)
            else:
                # a 1-column reduce would switch to pairwise summation
                t = np.add.accumulate(prods[:, 0])[-1:]
            t /= d
            # the new column is -t, and body + heads (-t) is body - heads t
            # bit for bit: the product negates exactly and x + (-y) is
            # x - y. Only a NaN product that meets a NaN of the block
            # tells them apart (which NaN numpy's add keeps depends on
            # its loop), and with d and t finite no product is NaN: a
            # non-finite head makes d non-finite.
            if math.isfinite(d) and math.isfinite(t.dot(t)):
                update(heads, t)  # the block packed[:i, i + 1:]
                np.negative(t, out=packed[i, i + 1:])
            else:
                products_fact = False
                np.negative(t, out=t)
                np.multiply(heads[:, None], t, out=prods[1:])
                np.add(body, prods[1:], out=body)
                packed[i, i + 1:] = t
        counter.add(3 * i + n + 2 + w * (2 * i + 1))
        meter.alloc(i + w)
        meter.free(2 * i)

    res = float(np.linalg.norm(a @ x - b))
    counter.add(n * n + n)
    state = core.ProjectorState(h=np.zeros((n, n)), step=n, p_cols=p_out,
                                v_cols=list(range(n)), pivots=pivots,
                                matrix=a, counter=counter)
    return core.SolveReport(x=x, rank=n,
                            eq_status=[core.INDEPENDENT] * n, state=state,
                            mult_count=counter.mults, residual_norm=res,
                            workspace=CompactLUWorkspace(storage=meter, n=n))


def gilu_solve(a, b, h1, z=None, tol=None, counter=None):
    """Implicit LU deflation carried on direction vectors only.

    Starts from the columns of ``h1^T z`` (``z=None`` means unit seeds,
    which costs no setup multiplies) and deflates the trailing vectors
    against each processed equation instead of updating a projector.
    The surviving vector of step i equals the search vector the engine
    run with the same initial projector would use, and the multiply
    count stays at or below n^3 + 6 n^2 for the unit-seed form (with an
    explicit ``z`` the setup product adds m n^2).

    Returns a report whose ``state.p_cols`` are the used direction
    vectors; the projector itself is never formed (``state.h`` is None).
    """
    a, b = core._as_system(a, b)
    m, n = a.shape
    if m > n:
        raise UnsupportedShape(f"need m <= n, got {m} rows, {n} columns")
    h1 = np.asarray(h1, dtype=float)
    if h1.shape != (n, n):
        raise ValueError(f"initial projector is {h1.shape}, need ({n}, {n})")
    _, _, piv_tol = (tol or core.Tolerances()).resolve(n)
    counter = counter if counter is not None else OpCounter()

    if z is None:
        u = h1.T[:, :m].copy()
    else:
        z = np.asarray(z, dtype=float)
        if z.shape != (n, m):
            raise ValueError(f"seed matrix is {z.shape}, need ({n}, {m})")
        u = h1.T @ z
        counter.add(m * n * n)

    x = np.zeros(n)
    p_out, pivots = _deflate_directions(a, b, u, x, piv_tol, counter)

    res = float(np.linalg.norm(a @ x - b))
    counter.add(m * n + m)
    state = core.ProjectorState(h=None, step=m, p_cols=p_out,
                                v_cols=list(range(m)), pivots=pivots,
                                matrix=a, counter=counter)
    return core.SolveReport(x=x, rank=m,
                            eq_status=[core.INDEPENDENT] * m, state=state,
                            mult_count=counter.mults, residual_norm=res)


def _deflate_directions(y, c, u, x, piv_tol, counter, iterates=None):
    """Right-looking direction deflation shared by :func:`gilu_solve` and
    :func:`absolve.iterative.recursive_solve`.

    ``y`` holds the scaled rows, ``c`` the scaled right-hand side, the
    columns of ``u`` (n x m, overwritten) the seeds and ``x`` the start,
    updated in place. Step i takes column i of ``u`` as its direction,
    steps along it, and deflates the trailing columns against the scaled
    row ``y[i]``, so each surviving column is the search vector of the
    engine run whose update seed equals its direction seed. Appends each
    iterate to ``iterates`` when given; returns the directions and the
    pivots ``y[i] . u_i``.
    """
    m, n = y.shape
    p_out = []
    pivots = []
    # The update creates no -0 where there is none, so one check of the
    # seeds gives the -0 fact of every step.
    update = core._BoundUpdate(u, not core._holds_negative_zero(u))
    for i in range(m):
        row = y[i]
        ui = u[:, i]
        # numpy takes the norm of the strided column over a contiguous
        # copy, so the copy's norm has its bytes; the dot stays on the
        # column, since over the copy it may sum in another order
        p = ui.copy()
        den = float(row @ ui)
        row_norm = core._norm(row)
        ui_norm = core._norm(p)
        if core._pivot_vanishes(den, piv_tol * row_norm * ui_norm):
            counter.add(3 * n)
            raise StrategyBreakdown(
                i, detail=f"direction pivot {den:.3e} vanishes")
        tau = float(row @ x) - float(c[i])
        alpha = tau / den
        x -= alpha * p
        done = 5 * n + 1
        if i + 1 < m:
            coeff = (row @ u[:, i + 1:]) / den
            update(p, coeff)  # the trailing columns u[:, i + 1:]
            done += (2 * n + 1) * (m - i - 1)
        counter.add(done)
        p_out.append(p)
        pivots.append(den)
        if iterates is not None:
            iterates.append(x.copy())
    return p_out, pivots
