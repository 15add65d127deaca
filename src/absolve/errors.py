"""Failure modes shared across the solver family.

Every algorithmic failure raises a subclass of :class:`AbsError`. Exceptions
that abort a run mid-stream carry whatever partial state was already computed
(``report`` or ``trace`` attributes) so callers can inspect the work done up
to the failing equation.
"""


class AbsError(Exception):
    """Base class for all solver errors."""


class IncompatibleSystem(AbsError):
    """A scaled equation is linearly dependent but has a nonzero residual.

    ``row`` is the 0-based index of the offending equation; ``report`` holds
    the partial solve report (iterates up to the failure, ``x`` absent): a
    :class:`~absolve.core.SolveReport` from the engine, a
    :class:`~absolve.matrixeq.MatSolveReport` from
    :func:`absolve.matrixeq.solve`.
    """

    def __init__(self, row, report=None, detail=""):
        self.row = row
        self.report = report
        msg = f"equation {row} is incompatible with the preceding ones"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StrategyBreakdown(AbsError):
    """The search direction of equation ``row`` gives a vanishing pivot.

    Raised by the engine (the supplied direction seed z has z.s = 0), by
    the strategies' update seeds (``update_factors``: the update pivot
    w.H.y of :class:`~absolve.strategies.GeneralStrategy`, ``iqr`` and
    ``cgdir``, the reprojected direction of ``mhuang``, the pivot
    component of ``ilx``), by the direction-deflation solvers and by
    :func:`absolve.matrixeq.solve`.
    """

    def __init__(self, row, detail=""):
        self.row = row
        msg = f"direction seed at equation {row} gives a vanishing pivot"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class RegularityFailure(StrategyBreakdown):
    """Implicit LU hit a vanishing leading principal minor.

    Subclass of :class:`StrategyBreakdown`: the failed object is still the
    pivot z.s, but for the unit-vector parameters its vanishing is exactly a
    zero leading minor, which deserves the sharper name.
    """

    def __init__(self, row):
        super().__init__(row, detail="leading principal minor vanishes; "
                                     "the matrix is not regular")


class NotFullRank(AbsError):
    """A full-rank factorization was requested from a rank-deficient run."""


class UnsupportedShape(AbsError):
    """Matrix shape or structure rules out the requested strategy."""


class SingularKT(AbsError):
    """A saddle-point stage found an unexpected dependent-equation count."""


class Stagnation(AbsError):
    """Iterative window pivot vanished before the residual tolerance was met.

    Carries the trace collected so far as ``trace``.
    """

    def __init__(self, iteration, trace=None):
        self.iteration = iteration
        self.trace = trace
        super().__init__(f"window pivot vanished at iteration {iteration}")


class MaxIterReached(AbsError):
    """Iteration budget exhausted before the residual tolerance was met.

    Carries the trace collected so far as ``trace``.
    """

    def __init__(self, max_iter, trace=None):
        self.max_iter = max_iter
        self.trace = trace
        super().__init__(f"no convergence within {max_iter} iterations")


class IntegerInconsistent(AbsError):
    """The integer system has real solutions but no integer ones.

    ``row`` names the failing equation, ``delta`` the gcd of the projected
    row, ``tau`` the residual that delta fails to divide. (delta, tau) is the
    certificate: delta does not divide tau. ``report`` holds the partial
    :class:`~absolve.diophantine.DioReport` (projector, deltas and
    ``eq_status`` up to the failing row, ``x`` absent).
    """

    def __init__(self, row, delta, tau, report=None):
        self.row = row
        self.delta = delta
        self.tau = tau
        self.report = report
        super().__init__(
            f"equation {row}: gcd {delta} does not divide residual {tau}; "
            "no integer solution exists")


class UnrepresentableEntry(AbsError):
    """A generated entry left the exactly-representable float range (2**53)."""
