"""Projection solvers for saddle-point (KT) systems.

The block system

    [ G  C^T ] [ p ]   [ g ]
    [ C   0  ] [ z ] = [ c ]

with an n x n matrix G and an m x n full-row-rank constraint matrix C is
solved in stages. The constraint stage runs the projection engine once on
``C p = c`` and keeps everything it produced: a particular solution, the
projector H that spans the constraint null space, the search vectors P, and
the implicitly factored ``L = C P``. That stage depends only on C and c, so
a :class:`KTSolver` builds it once and shares it across method combinations;
only the first call counts its multiplies, so the per-call counts expose the
saving. The solver likewise forms each p-stage's ``p`` and the product
``H G`` (which ``a1`` stacks and ``a2`` multiplies by ``H^T``) once and
reuses them; as ``counting`` states for a product reused because it has the
same bytes, each call counts them as if formed again. The engine pays for
each row once, through ``core.solve``'s ``resume``: ``a1``'s stacked system
starts with the constraint rows, so its run continues the constraint run at
row m, and the ``b1`` run for a second ``p`` takes every row of the first
one and steps no row. Both give the bytes and the counts of a full run.

Two interchangeable methods finish each unknown block:

* p-stage ``a1``: append the projected gradient equations to the
  constraints and solve the stacked system (m of the appended equations
  are classified redundant).
* p-stage ``a2``: solve the projected system ``H G H^T q = H (g - G p0)``
  in the null space and correct ``p = p0 + H^T q``; the multiplier block
  never enters.
* z-stage ``b1``: solve the overdetermined ``C^T z = g - G p`` directly
  (n - m equations are redundant).
* z-stage ``b2``: back-substitute through the triangular ``L^T z =
  P^T (g - G p)`` reusing the constraint-stage factors.

Stage-two right-hand sides inherit the rounding error of earlier stages,
so those subsolves run with a loosened redundancy-residual threshold
(1e-8) while keeping the default dependency threshold. A wrong number of
dependent equations in any stage means the saddle-point matrix is
singular; that raises :class:`~absolve.errors.SingularKT`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import core
from .counting import OpCounter
from .errors import IncompatibleSystem, SingularKT

STAGE_RESIDUAL_TOL = 1e-8

P_METHODS = ("a1", "a2")
Z_METHODS = ("b1", "b2")


@dataclass
class KTSystem:
    """Saddle-point problem data: blocks G, C and right-hand sides g, c."""

    g_mat: np.ndarray
    c_mat: np.ndarray
    g: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.g_mat = np.asarray(self.g_mat, dtype=float)
        self.c_mat = np.asarray(self.c_mat, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        n = self.g_mat.shape[0]
        m = self.c_mat.shape[0]
        if self.g_mat.shape != (n, n):
            raise ValueError("G block must be square")
        if self.c_mat.shape != (m, n):
            raise ValueError("C block column count must match G")
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
        if self.g.shape != (n,) or self.c.shape != (m,):
            raise ValueError("right-hand side shapes must match the blocks")

    @property
    def n(self):
        return self.g_mat.shape[0]

    @property
    def m(self):
        return self.c_mat.shape[0]

    def assemble(self):
        """Dense (n+m) x (n+m) block matrix and stacked right-hand side."""
        n, m = self.n, self.m
        k = np.zeros((n + m, n + m))
        k[:n, :n] = self.g_mat
        k[:n, n:] = self.c_mat.T
        k[n:, :n] = self.c_mat
        rhs = np.concatenate([self.g, self.c])
        return k, rhs

    def residual(self, p, z):
        """Norm of the full block residual at (p, z)."""
        r1 = self.g_mat @ p + self.c_mat.T @ z - self.g
        r2 = self.c_mat @ p - self.c
        return float(np.sqrt(r1 @ r1 + r2 @ r2))


@dataclass
class KTReport:
    """One saddle-point solve: blocks, method tags, and this call's cost."""

    p: np.ndarray
    z: np.ndarray
    p_method: str
    z_method: str
    mult_count: int
    residual_norm: float


class KTSolver:
    """Stage-caching solver for one saddle-point system.

    The constraint stage (everything derived from ``C p = c``) is built on
    first use and shared by later calls; ``c_stage_mults`` reports its
    cost, and each :class:`KTReport` counts only the multiplies of its own
    call, so only the first report includes it. Each p-stage and the
    product ``H G`` are built on first use too, and reused with the same
    bytes; every report counts them as if formed again, so a report's
    count equals a fresh solver's less ``c_stage_mults`` after the first
    call. ``a1`` resumes the constraint stage's engine run instead of
    stepping its rows again, and a ``b1`` call after the first resumes
    the first ``b1`` run on its right-hand side, so the four pairs take
    five engine runs, the last of which steps no row; each report's
    bytes and count are a full run's. Each report holds its own copy of
    ``p``. A stage that raises is not kept: the next call runs it again
    and raises the same :class:`~absolve.errors.SingularKT`.
    """

    def __init__(self, system, strategy="huang"):
        self.system = system
        self.strategy = strategy
        self._stage = None
        self.c_stage_mults = 0
        self._hg = None
        # p-stage method -> (p, the stage's multiplies)
        self._p_stages = {}
        # the engine runs that later stages resume
        self._c_run = None
        self._b1_run = None

    def _constraint_stage(self, counter):
        if self._stage is not None:
            return self._stage
        sys = self.system
        stage_counter = OpCounter()
        try:
            rep = core.solve(sys.c_mat, sys.c, strategy=self.strategy,
                             counter=stage_counter)
        except IncompatibleSystem as exc:
            raise SingularKT(
                f"constraints are inconsistent at row {exc.row}") from exc
        if rep.rank != sys.m:
            raise SingularKT(
                f"constraint matrix is rank deficient (rank {rep.rank} of "
                f"{sys.m})")
        self._c_run = rep
        p0 = rep.x
        h = rep.state.h
        p_mat = rep.state.p_matrix()
        l_mat = sys.c_mat @ p_mat
        stage_counter.add(sys.m * sys.n * sys.m)
        self._stage = (p0, h, p_mat, l_mat)
        self.c_stage_mults = stage_counter.mults
        counter.add(stage_counter.mults)
        return self._stage

    def _p_stage(self, p_method, p0, h):
        """``p`` by ``p_method`` and the multiplies that it takes."""
        sys = self.system
        n, m = sys.n, sys.m
        counter = OpCounter()
        if self._hg is None:
            self._hg = h @ sys.g_mat
        hg = self._hg
        # both p-stages count H G, as if each formed it
        counter.add(n * n * n)
        if p_method == "a1":
            hgvec = h @ sys.g
            counter.add(n * n)
            stacked = np.vstack([sys.c_mat, hg])
            rhs = np.concatenate([sys.c, hgvec])
            # the first m rows are the constraint run's, which the
            # engine continues rather than steps again
            rep = self._stage_solve(stacked, rhs, counter,
                                    expect_redundant=m, stage="p-stage a1",
                                    resume=self._c_run)
            return rep.x, counter.mults
        gp0 = sys.g_mat @ p0
        counter.add(n * n)
        hgh = hg @ h.T
        counter.add(n * n * n)
        rhs = h @ (sys.g - gp0)
        counter.add(n * n)
        rep = self._stage_solve(hgh, rhs, counter, expect_redundant=m,
                                stage="p-stage a2")
        p = p0 + h.T @ rep.x
        counter.add(n * n)
        return p, counter.mults

    def solve(self, p_method="a2", z_method="b2"):
        if p_method not in P_METHODS:
            raise ValueError(f"p_method must be one of {P_METHODS}")
        if z_method not in Z_METHODS:
            raise ValueError(f"z_method must be one of {Z_METHODS}")
        sys = self.system
        n, m = sys.n, sys.m
        counter = OpCounter()
        p0, h, p_mat, l_mat = self._constraint_stage(counter)
        if p_method not in self._p_stages:
            self._p_stages[p_method] = self._p_stage(p_method, p0, h)
        p, p_mults = self._p_stages[p_method]
        p = p.copy()
        counter.add(p_mults)

        grad_gap = sys.g - sys.g_mat @ p
        counter.add(n * n)
        if z_method == "b1":
            # C^T is the same for every p: later calls resume the first
            # run on their right-hand side; each run counts on its own
            # counter, so that the kept run's count is its own
            rep = self._stage_solve(sys.c_mat.T, grad_gap, OpCounter(),
                                    expect_redundant=n - m,
                                    stage="z-stage b1", resume=self._b1_run)
            if self._b1_run is None:
                self._b1_run = rep
            counter.add(rep.mult_count)
            z = rep.x
        else:
            rhs = p_mat.T @ grad_gap
            counter.add(m * n)
            z = scipy.linalg.solve_triangular(l_mat.T, rhs, lower=False)
            counter.add(m * (m + 1) // 2)

        res = self.system.residual(p, z)
        counter.add(n * n + m * n + n * m + n + m)
        return KTReport(p=p, z=z, p_method=p_method, z_method=z_method,
                        mult_count=counter.mults, residual_norm=res)

    def _stage_solve(self, a, b, counter, expect_redundant, stage,
                     resume=None):
        """One stage's engine run of ``a x = b``, resumed from the kept
        run ``resume`` where it applies."""
        tol = core.Tolerances(residual=STAGE_RESIDUAL_TOL)
        try:
            rep = core.solve(a, b, strategy=self.strategy, tol=tol,
                             counter=counter, resume=resume)
        except IncompatibleSystem as exc:
            raise SingularKT(
                f"{stage}: equation {exc.row} is inconsistent; the "
                f"saddle-point matrix is singular") from exc
        redundant = sum(1 for t in rep.eq_status if t == core.REDUNDANT)
        if redundant != expect_redundant:
            raise SingularKT(
                f"{stage}: expected {expect_redundant} dependent equations, "
                f"found {redundant}; the saddle-point matrix is singular")
        return rep


def solve(system, p_method="a2", z_method="b2", strategy="huang"):
    """One-shot saddle-point solve; see :class:`KTSolver` for reuse."""
    return KTSolver(system, strategy=strategy).solve(p_method, z_method)


def dense_baseline(system):
    """Reference solution of the assembled block system via dense LU."""
    k, rhs = system.assemble()
    lu, piv = scipy.linalg.lu_factor(k)
    sol = scipy.linalg.lu_solve((lu, piv), rhs)
    return sol[:system.n], sol[system.n:]
