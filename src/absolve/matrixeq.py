"""Projection solver for linear matrix equations under the trace inner
product.

Systems here constrain an unknown n x n matrix X by equations
``A_k . X = b_k`` where ``.`` is the trace pairing (elementwise product
sum). The solver runs the same deflation process as :mod:`absolve.core`
but in matrix space: the projector becomes a linear operator on matrices
(stored flat as an n^2 x n^2 array), equations are absorbed one at a
time, and the general solution sweeps ``X + Hop^T W`` over parameter
matrices W.

The module is deliberately small-n: the operator costs O(n^4) memory by
design. Its defining invariant, exercised by the tests, is that the
whole iterate sequence coincides with the vector engine applied to the
flattened n^2-unknown system with matching parameters.

:func:`quasi_newton_solve` builds secant-update problems on top: find a
matrix sending a step ``delta`` to a response ``r``, optionally under
symmetry and fixed-entry side conditions, each encoded as one more
trace-pairing equation.
"""

from dataclasses import dataclass

import numpy as np

from . import core
from .counting import OpCounter
from .errors import IncompatibleSystem, StrategyBreakdown

INDEPENDENT = core.INDEPENDENT
REDUNDANT = core.REDUNDANT


def trace_dot(a, b):
    """Trace inner product: the sum of elementwise products."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


@dataclass
class MatrixSystem:
    """m trace-pairing equations ``terms[k] . X = rhs[k]`` on n x n X."""

    terms: list
    rhs: np.ndarray

    def __post_init__(self):
        self.terms = [np.asarray(t, dtype=float) for t in self.terms]
        self.rhs = np.asarray(self.rhs, dtype=float)
        if not self.terms:
            raise ValueError("need at least one equation")
        n = self.terms[0].shape[0]
        for t in self.terms:
            if t.shape != (n, n):
                raise ValueError("all equation matrices must be n x n")
        if self.rhs.shape != (len(self.terms),):
            raise ValueError("rhs length must equal the equation count")

    @property
    def n(self):
        return self.terms[0].shape[0]

    @property
    def m(self):
        return len(self.terms)


class MatOperator:
    """Linear operator on n x n matrices, stored as an n^2 x n^2 array.

    ``apply`` is the operator action; ``apply_adjoint`` the action of
    its transpose. Row-major flattening fixes the isomorphism with the
    vector engine.
    """

    def __init__(self, flat, n):
        self.flat = np.asarray(flat, dtype=float)
        self.n = n
        if self.flat.shape != (n * n, n * n):
            raise ValueError("operator storage must be n^2 x n^2")

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n * n), n)

    def apply(self, mat):
        v = self.flat @ np.asarray(mat, dtype=float).ravel()
        return v.reshape(self.n, self.n)

    def apply_adjoint(self, mat):
        v = self.flat.T @ np.asarray(mat, dtype=float).ravel()
        return v.reshape(self.n, self.n)


@dataclass
class MatSolveReport:
    """Outcome of a matrix-equation solve; mirrors the vector report.

    A partial report, attached to
    :class:`~absolve.errors.IncompatibleSystem`, has ``x`` and
    ``residual_norm`` None and the rest as of the failing equation.
    """

    x: np.ndarray | None
    rank: int
    eq_status: list
    hop: MatOperator
    mult_count: int
    residual_norm: float | None
    iterates: list | None = None


def solve(system, tol=None, keep_iterates=False, counter=None):
    """Absorb the trace-pairing equations one by one into X.

    Parameters mirror the vector engine with its norm-minimizing
    defaults (seeds equal the equation matrices, identity start), so a
    zero start returns the least-Frobenius-norm solution. Raises
    :class:`~absolve.errors.IncompatibleSystem` on a contradictory
    equation, with the partial report attached, and
    :class:`~absolve.errors.StrategyBreakdown` on a vanishing pivot.
    """
    n = system.n
    m = system.m
    nn = n * n
    dep_tol, res_tol, piv_tol = (tol or core.Tolerances()).resolve(nn)
    counter = counter if counter is not None else OpCounter()

    hop = MatOperator.identity(n)
    x = np.zeros((n, n))
    # dependency reference is the initial operator's magnitude; the live
    # one decays to round-off once all directions are absorbed, so a test
    # scaled by it could never fire (same rule as the vector engine)
    h_ref = float(np.linalg.norm(hop.flat))
    counter.add(nn * nn)
    norm_rhs = float(np.linalg.norm(system.rhs))
    counter.add(m)
    # whole-system scale floor for the consistency test, as in the
    # vector engine: stacked Frobenius norm of all equation matrices
    a_ref = float(np.sqrt(sum(float(np.sum(t * t))
                              for t in system.terms)))
    counter.add(m * nn)
    eq_status = []
    pivots = []
    iterates = [x.copy()] if keep_iterates else None

    for k in range(m):
        ak = system.terms[k]
        tau = trace_dot(ak, x) - float(system.rhs[k])
        counter.add(nn)
        s = hop.apply(ak)
        counter.add(nn * nn)
        a_norm = float(np.linalg.norm(ak))
        counter.add(nn)

        if float(np.linalg.norm(s)) <= dep_tol * a_norm * h_ref:
            counter.add(nn)
            x_norm = float(np.linalg.norm(x))
            counter.add(nn)
            res_scale = a_norm * x_norm + abs(float(system.rhs[k])) \
                + a_ref * x_norm + norm_rhs
            if abs(tau) <= res_tol * (res_scale + 1e-300):
                counter.add(1)
                eq_status.append(REDUNDANT)
                if keep_iterates:
                    iterates.append(x.copy())
                continue
            eq_status.append(core.INCOMPATIBLE)
            partial = MatSolveReport(x=None, rank=len(pivots),
                                     eq_status=eq_status, hop=hop,
                                     mult_count=counter.mults,
                                     residual_norm=None, iterates=iterates)
            raise IncompatibleSystem(k, report=partial)
        counter.add(nn)

        p = s  # seed Z_k = A_k through the running operator
        den = trace_dot(ak, p)
        counter.add(nn)
        p_norm = float(np.linalg.norm(p))
        counter.add(nn)
        if abs(den) <= piv_tol * a_norm * p_norm:
            raise StrategyBreakdown(k, detail=f"pivot {den:.3e}")
        alpha = tau / den
        counter.add(1)
        x -= alpha * p
        counter.add(nn)

        sv = s.ravel()
        hop.flat -= np.outer(sv, sv / den)
        counter.add(nn * nn + nn)
        eq_status.append(INDEPENDENT)
        pivots.append(den)
        if keep_iterates:
            iterates.append(x.copy())

    res = float(np.linalg.norm(
        np.array([trace_dot(t, x) for t in system.terms]) - system.rhs))
    counter.add(m * nn + m)
    return MatSolveReport(x=x, rank=len(pivots), eq_status=eq_status,
                          hop=hop, mult_count=counter.mults,
                          residual_norm=res, iterates=iterates)


def general_solution(report, w):
    """Solution ``X + Hop^T W`` for an arbitrary parameter matrix W.

    Sweeps the full solution set of the processed equations as W ranges
    over all matrices; W = 0 returns the particular solution.
    """
    w = np.asarray(w, dtype=float)
    return report.x + report.hop.apply_adjoint(w)


def quasi_newton_solve(delta, r, constraints=(), tol=None):
    """Least-norm matrix sending ``delta`` to ``r``, under side conditions.

    Builds one trace-pairing equation per secant row ((e_i delta^T) . B
    = r_i), then the requested constraints, and solves with the
    norm-minimizing defaults. ``constraints`` entries are either the
    string ``"symmetry"`` (expands to all off-diagonal antisymmetry
    pairs) or ``("fix", row, col, value)`` pinning one entry. Raises
    :class:`~absolve.errors.IncompatibleSystem` when a constraint
    contradicts the secant equations.
    """
    delta = np.asarray(delta, dtype=float)
    r = np.asarray(r, dtype=float)
    if delta.ndim != 1 or delta.shape != r.shape:
        raise ValueError("step and response must be equal-length vectors")
    if not np.any(delta):
        raise ValueError("step vector must be nonzero")
    n = delta.shape[0]

    terms = []
    rhs = []
    for i in range(n):
        t = np.zeros((n, n))
        t[i, :] = delta
        terms.append(t)
        rhs.append(float(r[i]))
    for c in constraints:
        if c == "symmetry":
            for j in range(n):
                for k in range(j + 1, n):
                    t = np.zeros((n, n))
                    t[j, k] = 1.0
                    t[k, j] = -1.0
                    terms.append(t)
                    rhs.append(0.0)
        elif isinstance(c, tuple) and len(c) == 4 and c[0] == "fix":
            _, j, k, value = c
            t = np.zeros((n, n))
            t[j, k] = 1.0
            terms.append(t)
            rhs.append(float(value))
        else:
            raise ValueError(f"unknown constraint {c!r}")

    report = solve(MatrixSystem(terms=terms, rhs=np.array(rhs)), tol=tol)
    x = report.x
    if "symmetry" in constraints:
        # the antisymmetry equations leave round-off level skew; averaging
        # removes it bitwise without moving any entry past that level
        x = (x + x.T) / 2.0
    return x
