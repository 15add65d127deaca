"""Direction-recursion and limited-memory iterative solvers.

Two formulations of the projection process live here, both working on
direction vectors instead of a projector matrix:

* :func:`recursive_solve` deflates each direction against every
  previous equation (the full recursion). It runs the right-looking loop
  of :func:`absolve.strategies.gilu_solve` on the scaled rows: after each
  step the seeds of all later equations are deflated at once, and every
  multiply is counted. It reproduces the engine of :mod:`absolve.core`
  step for step when the engine's update seed equals its direction seed,
  while storing the directions instead of the n x n projector.
* :func:`limited_memory_solve` keeps only a sliding window of directions
  and iterates until the residual converges. The window length m names
  the family: each step orthogonalizes against the last m - 1 accepted
  directions, so m = 1 applies raw seed directions and m = n recovers
  the full recursion on an n-step run.

The iteration minimizes the error in a weighted norm chosen by
``scaling``:

* ``identity``: plain Euclidean error. Directions must carry a row-space
  preimage (p = A^T u), which the gradient and cyclic seeds do; the step
  size is then computable from residuals alone.
* ``normal``: error measured through A^T A; equivalently the residual
  norm. Works whenever A is nonsingular.
* ``energy``: error measured through A itself; requires symmetric
  positive definite A.

With cyclic unit seeds and m = 1 the iteration reduces to two classical
methods exactly: coordinate relaxation sweeps (``energy``) and row
projection sweeps (``identity``).

Each step performs an exact line minimization of the weighted error
along its direction, so the error norm never increases, and when the
direction stays at an angle bounded away from 90 degrees from the
error-norm gradient the contraction factor ``sqrt(1 - gamma^2 /
cond(Y))`` applies; :func:`angle_contraction_check` verifies that bound
against a recorded trace.
"""

from dataclasses import dataclass, field

import numpy as np

from . import core, strategies
from .counting import OpCounter
from .errors import MaxIterReached, Stagnation

SCALINGS = ("identity", "normal", "energy")
SEEDS = ("gradient", "cyclic")


@dataclass
class IterParams:
    """Knobs of the limited-memory iteration.

    ``m`` is the window size (>= 1), ``scaling`` one of ``identity`` /
    ``normal`` / ``energy``, ``seed`` the direction seed rule
    (``gradient`` of the error norm, or ``cyclic`` unit seeds, which give
    the classical methods at m = 1). ``max_iter`` defaults to 100 n.
    ``restart`` clears the window every m steps instead of sliding it.
    """

    m: int = 1
    scaling: str = "identity"
    seed: str = "gradient"
    x1: np.ndarray | None = None
    max_iter: int | None = None
    rtol: float = 1e-10
    restart: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("window size m must be >= 1")
        if self.scaling not in SCALINGS:
            raise ValueError(f"scaling must be one of {SCALINGS}")
        if self.seed not in SEEDS:
            raise ValueError(f"seed must be one of {SEEDS}")


@dataclass
class IterTrace:
    """Per-iteration history of a limited-memory run.

    ``iterates[k]`` is x_k (the start point included), ``residuals[k]``
    the residual norm at x_k. ``errors`` holds the weighted error norms
    when the true solution was supplied, else None. ``alphas`` and
    ``gammas`` have one entry per completed step: the step size and the
    cosine of the angle between the direction and the error-norm
    gradient (None when the gradient needs the unknown solution).
    ``bound_factors`` is filled by :func:`angle_contraction_check`.
    """

    scaling: str
    iterates: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    errors: list | None = None
    alphas: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    bound_factors: list | None = None

    @property
    def x(self):
        return self.iterates[-1] if self.iterates else None

    @property
    def steps(self):
        return len(self.alphas)

    def gamma_floor(self):
        """Running minimum of the recorded angle cosines per step."""
        floors = []
        best = None
        for g in self.gammas:
            if g is not None:
                best = g if best is None else min(best, g)
            floors.append(best)
        return floors

    def write_history(self, path):
        """Write the trace as tab-separated text for external plotting."""
        with open(path, "w") as fh:
            fh.write("iter\tresidual\terror\talpha\tgamma\n")
            for k, res in enumerate(self.residuals):
                err = "" if self.errors is None else f"{self.errors[k]:.17e}"
                alpha = f"{self.alphas[k]:.17e}" if k < len(self.alphas) \
                    else ""
                gamma = ""
                if k < len(self.gammas) and self.gammas[k] is not None:
                    gamma = f"{self.gammas[k]:.17e}"
                fh.write(f"{k}\t{res:.17e}\t{err}\t{alpha}\t{gamma}\n")


def recursive_solve(a, b, x1=None, v=None, z=None, h1=None, tol=None,
                    keep_iterates=False):
    """Single sweep with full direction recursion.

    Takes one projection step per equation along a direction that has
    been deflated against every earlier equation in the scaled pairing.
    ``v`` and ``z`` supply scaling and seed columns (defaults: unit
    scalings and the scaled rows ``A^T v_k`` as seeds, which are the
    rows of A under unit scalings); ``h1`` replaces the identity start
    of the direction seeds. The produced iterates match the core engine
    run with the same parameters and update seeds equal to the direction
    seeds, as :class:`~absolve.strategies.GeneralStrategy` chooses them
    by default. From the identity start the pivot of step k is then
    ``y_k^T H y_k = |H y_k|^2``, with ``H`` the symmetric projector of
    the earlier scaled rows ``y``, which cannot vanish on an independent
    row; raw-row seeds under general scalings give no such guarantee.

    The sweep is the right-looking loop of
    :func:`absolve.strategies.gilu_solve` run on the scaled rows
    ``V^T A`` and the scaled right-hand side ``V^T b``: after each step
    the remaining seed columns are deflated against the processed
    equation. ``mult_count`` is exact: the loop's count, the m n^2
    setup product ``h1^T Z`` when ``h1`` is given, m^2 (n + 1) for
    ``V^T A`` and ``V^T b`` when ``v`` is given, and m n + m for the
    final residual. Raises :class:`~absolve.errors.StrategyBreakdown`
    on a vanishing pivot.
    """
    a, b = core._as_system(a, b)
    m, n = a.shape
    _, _, piv_tol = (tol or core.Tolerances()).resolve(n)
    counter = OpCounter()

    if v is None:
        y, c = a, b
    else:
        v = np.asarray(v, dtype=float)
        y = v.T @ a
        c = v.T @ b
        counter.add(m * m * n + m * m)
    seeds = y.T if z is None else np.asarray(z, dtype=float)
    if h1 is None:
        u = seeds.copy()
    else:
        u = np.asarray(h1, dtype=float).T @ seeds
        counter.add(m * n * n)

    x = np.zeros(n) if x1 is None else np.array(x1, dtype=float)
    iterates = [x.copy()] if keep_iterates else None
    dirs, pivots = strategies._deflate_directions(y, c, u, x, piv_tol,
                                                  counter, iterates)

    res = float(np.linalg.norm(a @ x - b))
    counter.add(m * n + m)
    state = core.ProjectorState(h=None, step=m, p_cols=dirs,
                                v_cols=list(range(m)) if v is None
                                else [v[:, k] for k in range(m)],
                                pivots=pivots, matrix=a, rhs=b,
                                counter=counter)
    return core.SolveReport(x=x, rank=m, eq_status=[core.INDEPENDENT] * m,
                            state=state, mult_count=counter.mults,
                            residual_norm=res, iterates=iterates)


def _seed(scaling, seed, k, a, r):
    """Direction seed and (for identity scaling) its row-space preimage."""
    n = a.shape[1]
    if seed == "gradient":
        if scaling == "identity":
            return a.T @ r, r.copy()
        if scaling == "normal":
            return a.T @ r, None
        return r.copy(), None
    idx = k % n
    if scaling == "identity":
        u = np.zeros(n)
        u[idx] = 1.0
        return a[idx].copy(), u
    e = np.zeros(n)
    e[idx] = 1.0
    return e, None


def limited_memory_solve(a, b, params=None, x_star=None):
    """Iterate to convergence with a sliding window of m - 1 directions.

    Runs until the relative residual drops to ``params.rtol``; raises
    :class:`~absolve.errors.MaxIterReached` if the iteration budget runs
    out and :class:`~absolve.errors.Stagnation` if the windowed
    orthogonalization annihilates a direction (vanishing pivot). Both
    exceptions carry the trace collected so far. ``x_star`` enables the
    weighted-error and angle records in the trace.

    Returns the completed :class:`IterTrace`.
    """
    a, b = core._as_system(a, b)
    m_rows, n = a.shape
    if m_rows != n:
        raise ValueError("the limited-memory iteration needs a square "
                         "system")
    params = params or IterParams()
    scaling = params.scaling
    if scaling == "energy":
        if core._asymmetry(a):
            raise ValueError("energy scaling needs a symmetric matrix")
    max_iter = params.max_iter if params.max_iter is not None else 100 * n
    dep_tol, _, _ = core.Tolerances().resolve(n)

    x = np.zeros(n) if params.x1 is None else np.array(params.x1,
                                                       dtype=float)
    x_star = None if x_star is None else np.asarray(x_star, dtype=float)
    trace = IterTrace(scaling=scaling,
                      errors=None if x_star is None else [])
    norm_b = float(np.linalg.norm(b))
    window = []  # (p, a_p, preimage, pivot)

    def record_point(r):
        trace.iterates.append(x.copy())
        trace.residuals.append(float(np.linalg.norm(r)))
        if x_star is not None:
            trace.errors.append(_weighted_error(a, x - x_star, scaling))

    for k in range(max_iter):
        r = a @ x - b
        record_point(r)
        if trace.residuals[-1] <= params.rtol * (norm_b + 1e-300):
            return trace

        z, pre = _seed(scaling, params.seed, k, a, r)
        p = z.copy()
        ap = a @ p if scaling in ("normal", "energy") else None
        seed_scale = float(np.linalg.norm(ap if scaling == "normal" else z))
        for pj, apj, prej, dj in window:
            if scaling == "identity":
                c = float(pj @ p) / dj
            elif scaling == "normal":
                c = float(apj @ ap) / dj
            else:
                c = float(pj @ ap) / dj
            if c:
                p -= c * pj
                if ap is not None:
                    ap -= c * apj
                if pre is not None:
                    pre -= c * prej

        if scaling == "identity":
            pivot = float(p @ p)
            tau = float(pre @ r)
            live = float(np.linalg.norm(p))
        elif scaling == "normal":
            pivot = float(ap @ ap)
            tau = float(ap @ r)
            live = float(np.linalg.norm(ap))
        else:
            pivot = float(p @ ap)
            tau = float(p @ r)
            live = float(np.linalg.norm(p))
        if live <= dep_tol * (seed_scale + 1e-300) or pivot == 0.0 \
                or (scaling == "energy" and pivot < 0.0):
            raise Stagnation(k, trace=trace)

        gamma = _gamma(a, x, x_star, r, p, scaling)
        trace.gammas.append(gamma)
        alpha = tau / pivot
        trace.alphas.append(alpha)
        x -= alpha * p

        if params.m > 1:
            if params.restart and len(window) == params.m - 1:
                window.clear()
            window.append((p, ap, pre, pivot))
            if len(window) > params.m - 1:
                window.pop(0)

    r = a @ x - b
    record_point(r)
    if trace.residuals[-1] <= params.rtol * (norm_b + 1e-300):
        return trace
    raise MaxIterReached(max_iter, trace=trace)


def _weighted_error(a, e, scaling):
    if scaling == "identity":
        return float(np.linalg.norm(e))
    if scaling == "normal":
        return float(np.linalg.norm(a @ e))
    return float(np.sqrt(abs(float(e @ (a @ e)))))


def _gamma(a, x, x_star, r, p, scaling):
    """Cosine of the angle between p and the error-norm gradient.

    The gradient of the weighted error at x is Y (x - x*): the plain
    error for identity scaling (needs x*), A^T r for the normal scaling,
    and r itself for the energy scaling.
    """
    if scaling == "identity":
        if x_star is None:
            return None
        grad = x - x_star
    elif scaling == "normal":
        grad = a.T @ r
    else:
        grad = r
    denom = float(np.linalg.norm(p)) * float(np.linalg.norm(grad))
    if denom == 0.0:
        return None
    return abs(float(p @ grad)) / denom


def angle_contraction_check(trace, y_cond, gamma=None, slack=1e-10):
    """Verify the per-step error contraction bound on a recorded trace.

    Checks ``err_{k+1} <= sqrt(1 - g^2 / y_cond) * err_k`` for every
    completed step, where ``g`` is the supplied uniform ``gamma`` or,
    by default, the running minimum of the trace's recorded angle
    cosines. ``y_cond`` is the eigenvalue ratio of the scaling matrix
    (1 for identity scaling). The comparison allows ``slack * (1 +
    err_k)`` of rounding headroom. Fills ``trace.bound_factors`` and
    returns True iff the bound held at every step.
    """
    if trace.errors is None:
        raise ValueError("trace has no reference-solution errors; solve "
                         "with x_star to record them")
    if y_cond < 1.0:
        raise ValueError("the eigenvalue ratio is at least 1")
    floors = trace.gamma_floor() if gamma is None \
        else [gamma] * trace.steps
    factors = []
    ok = True
    for k in range(trace.steps):
        g = floors[k]
        if g is None:
            factors.append(None)
            continue
        g = min(g, 1.0)
        factor = float(np.sqrt(max(0.0, 1.0 - g * g / y_cond)))
        factors.append(factor)
        if trace.errors[k + 1] > factor * trace.errors[k] \
                + slack * (1.0 + trace.errors[k]):
            ok = False
    trace.bound_factors = factors
    return ok


def scaling_condition(a, scaling):
    """Eigenvalue ratio cond(Y) of the scaling matrix for ``a``."""
    if scaling == "identity":
        return 1.0
    if scaling == "normal":
        s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)
        return float((s[0] / s[-1]) ** 2)
    w = np.linalg.eigvalsh(np.asarray(a, dtype=float))
    return float(w[-1] / w[0])
