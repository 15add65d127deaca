"""The engine's output, frozen.

A sha256 over everything the projection engine and the direction
deflation return on a fixed grid: solutions, final projectors, search
vectors, pivots, ``eq_status``, iterates and multiply counts, or the
exception text. It was recorded with the row-block rank-one update,
whose entries are the unfused ``h - np.outer(u, v)``, so any change in
the last bit of any update, in a count or in a rank decision moves it.

The inputs are exact: full-mantissa floats and small integers drawn from
the package's own generator stream. The outputs are computed by BLAS
matrix-vector products, so the digest belongs to the BLAS build and CPU
kernel it was recorded with (OpenBLAS 0.3.31, x86-64); on another build
re-record it from the commit before the change under test. It is the
same on one and on two BLAS threads. Matrix-matrix products with long
inner dimensions are not: ``gilu_solve``'s seed product ``h1^T z`` and
the KT stages at n=150 change bytes with the thread count, so the grid
uses exact seed products and KT systems up to n=70.

A second digest freezes the packed implicit LU solver in the same way,
on full-mantissa, sparse small-integer (whose exact zeros put -0.0 in
the packed block) and NaN-holding systems. A third freezes
``GeneralStrategy`` under every combination of explicit scalings ``v``,
search seeds ``z``, update seeds ``w`` and start projector ``h1``, with
the multiply count of each run, failed runs included.

The update's ``dgemm`` comes from the BLAS that numpy loads; the first two
digests are also checked with it bound from SciPy's exported capsule, the
source on installs whose numpy exposes no BLAS symbol.
"""

import hashlib
import itertools

import numpy as np

from absolve import core, kt, problems, strategies
from absolve.counting import OpCounter
from absolve.errors import AbsError

ENGINE_DIGEST = ("9d533a2193e715aff0f34aea94387e66"
                 "1fdd4616c63db9ef1d6d708868c18a0d")
# the packed implicit LU solver, recorded with its two-pass numpy update
PACKED_LU_DIGEST = ("56a1f6f9dc807044b1f6ae8febe09ee6"
                    "7c397f8570c953cfd681d01371b61da2")
# GeneralStrategy with explicit v, z, w and h1, recorded when the engine
# still passed z and w between the hooks (direction_seed, projection_seed);
# re-recorded when a vanishing update pivot became a StrategyBreakdown
# that names its row (general-zero-w, the one run that moved)
GENERAL_DIGEST = ("35777e566710be648d7d7bfaf1ede0a5"
                  "561f266d2a5f8b12d6e5cf8477686636")

SIZES = (*range(1, 40), 63, 64, 65, 100, 129, 200, 257, 300)
ENGINE_STRATEGIES = ("huang", "mhuang", "ilu", "ilx", "iqr")


def _floats(rng, *shape):
    """Floats in [-1, 1] with full 53-bit mantissas, exact from the
    package's integer stream."""
    count = int(np.prod(shape))
    return (rng.randints(-2 ** 52, 2 ** 52, count) / 2.0 ** 52) \
        .reshape(shape)


def _ints(rng, *shape):
    """Integers in [-1024, 1024] as floats: their products are exact."""
    count = int(np.prod(shape))
    return rng.randints(-1024, 1024, count).astype(float).reshape(shape)


def _record(obj):
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return ("ndarray", arr.dtype.str, arr.shape,
                hashlib.sha256(arr.tobytes()).hexdigest())
    if isinstance(obj, (list, tuple)):
        return tuple(_record(v) for v in obj)
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, (core.SolveReport, core.ProjectorState,
                        kt.KTReport)):
        return (type(obj).__name__,) + tuple(
            (name, _record(value)) for name, value in vars(obj).items()
            if name not in ("matrix", "rhs", "counter"))
    if isinstance(obj, (np.floating, np.integer)):
        return _record(obj.item())
    return repr(obj)


def _run(call):
    try:
        return _record(call())
    except AbsError as exc:
        return (type(exc).__name__, str(exc),
                _record(getattr(exc, "report", None)))


def _negative_zero_eye(n):
    h = np.full((n, n), -0.0)
    np.fill_diagonal(h, 1.0)
    return h


def engine_runs():
    """(label, thunk) for every run of the grid."""
    runs = []
    for n in SIZES:
        rng = problems.Lcg64(1000 + n)
        a = _floats(rng, n, n) + n * np.eye(n)
        b = _floats(rng, n)
        k = _ints(rng, n, n)
        spd = (k @ k.T) / 2.0 ** 20 + np.eye(n)
        for name in ENGINE_STRATEGIES:
            runs.append((f"{name}/{n}", lambda a=a, b=b, s=name: core.solve(
                a, b, strategy=s, keep_iterates=True)))
        runs.append((f"cgdir/{n}", lambda s=spd, b=b: core.solve(
            s, b, strategy="cgdir", keep_iterates=True)))
        runs.append((f"gilu/{n}", lambda a=a, b=b, n=n: core.solve(
            a, b, strategy=strategies.GiluStrategy(np.eye(n)),
            keep_iterates=True)))
        runs.append((f"gilu_solve/{n}", lambda a=a, b=b, n=n:
                     strategies.gilu_solve(a, b, np.eye(n))))
        if n in (9, 64, 129, 300):
            # h1^T z is exact, so the seeds do not depend on how BLAS
            # splits the product
            h1 = np.eye(n) + _ints(rng, n, n) \
                * 2.0 ** -(12 + n.bit_length())
            z = _ints(rng, n, n) + 2048 * np.eye(n)
            half = max(1, n // 2)
            runs += [
                (f"gilu-h1/{n}", lambda a=a, b=b, h1=h1: core.solve(
                    a, b, strategy=strategies.GiluStrategy(h1),
                    keep_iterates=True)),
                (f"gilu_solve-z/{n}", lambda a=a, b=b, h1=h1, z=z:
                 strategies.gilu_solve(a, b, h1, z=z)),
                (f"gilu_solve-half/{n}", lambda a=a, b=b, n=n, h=half:
                 strategies.gilu_solve(a[:h], b[:h], np.eye(n))),
                # -0.0 in the start projector: the updates must keep it
                # wherever the unfused expression does
                (f"general-negzero/{n}", lambda a=a, b=b, n=n: core.solve(
                    a, b, strategy=strategies.GeneralStrategy(
                        h1=_negative_zero_eye(n)), keep_iterates=True)),
                (f"gilu_solve-negzero/{n}", lambda a=a, b=b, n=n:
                 strategies.gilu_solve(a, b, _negative_zero_eye(n))),
            ]
        if n in (64, 129):
            bad = a.copy()
            bad[n // 2, 3] = np.inf
            for name in ("huang", "ilu"):
                runs.append((f"{name}-inf/{n}", lambda a=bad, b=b, s=name:
                             core.solve(a, b, strategy=s,
                                        keep_iterates=True)))
            bad = a.copy()
            bad[0, n - 1] = np.inf
            runs.append((f"gilu_solve-inf/{n}", lambda a=bad, b=b, n=n:
                         strategies.gilu_solve(a, b, np.eye(n))))
            # a redundant equation before the last pivots
            dup, rhs = a.copy(), b.copy()
            dup[n // 3], rhs[n // 3] = dup[1], rhs[1]
            for name in ("ilu", "huang"):
                runs.append((f"{name}-redundant/{n}",
                             lambda a=dup, b=rhs, s=name: core.solve(
                                 a, b, strategy=s, keep_iterates=True)))
    specs = [dict(kind="determined", n=n, target_rank=r, seed=s)
             for n, r, s in ((30, 20, 1), (80, 50, 2), (150, 90, 3))]
    specs += [dict(kind="overdetermined", n=n, seed=s)
              for n, s in ((20, 4), (100, 5))]
    specs += [dict(kind="overdetermined", n=60, m=90, target_rank=40,
                   seed=6),
              dict(kind="underdetermined", n=120, seed=7),
              dict(kind="underdetermined", n=90, m=50, target_rank=30,
                   seed=8),
              dict(kind="determined", n=200, seed=9)]
    for spec in specs:
        p = problems.generate(problems.ProblemSpec(**spec))
        label = ",".join(f"{k}={v}" for k, v in spec.items())
        for name in ENGINE_STRATEGIES:
            runs.append((f"{name}/{label}", lambda p=p, s=name: core.solve(
                p.a, p.b, strategy=s, keep_iterates=True)))
        if p.a.shape[0] <= p.a.shape[1]:
            runs.append((f"gilu_solve/{label}", lambda p=p:
                         strategies.gilu_solve(p.a, p.b,
                                               np.eye(p.a.shape[1]))))
    # a contradiction planted after the rank is reached
    p = problems.generate(problems.ProblemSpec(kind="overdetermined", n=70,
                                               seed=10))
    rhs = p.b.copy()
    rhs[-1] += 1.0
    for name in ("huang", "mhuang", "ilx"):
        runs.append((f"{name}/incompatible", lambda a=p.a, b=rhs, s=name:
                     core.solve(a, b, strategy=s, keep_iterates=True)))
    for n, seed in ((40, 11), (70, 12)):
        system = problems.generate(problems.ProblemSpec(
            kind="kt", n=n, seed=seed)).kt_system
        for p_method in kt.P_METHODS:
            for z_method in kt.Z_METHODS:
                runs.append((f"kt:{p_method}{z_method}/{n}",
                             lambda s=system, pm=p_method, zm=z_method:
                             kt.solve(s, pm, zm)))
    return runs


def _sparse_ints(rng, n):
    """Small integers, nine in ten of them zero, on a dominant diagonal:
    every leading minor is regular, and the exact zeros of the block
    make the packed solver's new columns hold -0.0."""
    k = _ints(rng, n, n)
    k[np.abs(k) > 100] = 0.0
    return k + 1024 * np.eye(n)


def packed_lu_runs():
    """(label, thunk) for every run of the packed implicit LU grid."""
    runs = []
    for n in SIZES:
        rng = problems.Lcg64(2000 + n)
        a = _floats(rng, n, n) + n * np.eye(n)
        b = _floats(rng, n)
        sparse = _sparse_ints(rng, n)
        runs += [
            (f"packed/{n}", lambda a=a, b=b:
             strategies.implicit_lu_solve(a, b)),
            (f"packed-sparse/{n}", lambda a=sparse, b=b:
             strategies.implicit_lu_solve(a, b)),
        ]
        if n in (64, 129):
            # an inf makes its row's norm inf, which fails the pivot
            # test; a NaN passes it and spreads: right of the diagonal
            # it makes one entry of the new column NaN while the heads
            # of the block stay finite, left of it it makes the pivot
            # NaN and everything after it
            for col, bad_value in ((3, np.inf), (3, np.nan),
                                   (n - 1, np.nan)):
                bad = a.copy()
                bad[n // 2, col] = bad_value
                runs.append((f"packed-{bad_value}@{col}/{n}",
                             lambda a=bad, b=b:
                             strategies.implicit_lu_solve(a, b)))
            # a singular leading minor: the failure names its row
            sing = a.copy()
            sing[n // 2, :n // 2 + 1] = a[0, :n // 2 + 1] + a[1, :n // 2 + 1]
            runs.append((f"packed-singular/{n}", lambda a=sing, b=b:
                         strategies.implicit_lu_solve(a, b)))
    # generated systems; the rank-deficient ones put -0.0 in the block
    # where products are zero, and fail on the row of their rank
    for seed, n, rank in ((3, 150, None), (9, 200, None), (5, 300, None),
                          (7, 200, 150), (5, 300, 225)):
        spec = problems.ProblemSpec(kind="determined", n=n, seed=seed,
                                    target_rank=rank)
        p = problems.generate(spec)
        runs.append((f"packed/determined,n={n},seed={seed},rank={rank}",
                     lambda p=p: strategies.implicit_lu_solve(p.a, p.b)))
    return runs


def _general(a, b, **params):
    """One GeneralStrategy run with its multiply count, or the failure
    with the count up to it."""
    counter = OpCounter()
    try:
        rep = core.solve(a, b, strategy=strategies.GeneralStrategy(**params),
                         keep_iterates=True, counter=counter)
    except AbsError as exc:
        return (type(exc).__name__, str(exc),
                _record(getattr(exc, "report", None)), counter.mults)
    return rep, counter.mults


def general_runs():
    """(label, thunk) for every run of the GeneralStrategy grid."""
    names = ("v", "z", "w", "h1")
    runs = []

    def combos(label, a, b, params):
        for given in itertools.product((False, True), repeat=len(names)):
            kw = {k: params[k] for k, on in zip(names, given) if on}
            runs.append((f"general[{','.join(kw)}]/{label}",
                         lambda a=a, b=b, kw=kw: _general(a, b, **kw)))

    def near_eye(rng, n, m, bits):
        # the identity's columns plus small exact integers: admissible
        # choices whose pivots stay near the diagonal of A
        return np.eye(n, m) + _ints(rng, n, m) * 2.0 ** -bits

    for n in (1, 2, 3, 4, 5, 8, 13, 31, 64, 100):
        rng = problems.Lcg64(3000 + n)
        a = _floats(rng, n, n) + n * np.eye(n)
        b = _floats(rng, n)
        bits = 12 + n.bit_length()
        combos(n, a, b, {k: near_eye(rng, n, n, bits) for k in names})
    specs = [dict(kind="determined", n=40, target_rank=25, seed=21),
             dict(kind="overdetermined", n=30, seed=22),
             dict(kind="underdetermined", n=50, seed=23)]
    for spec in specs:
        p = problems.generate(problems.ProblemSpec(**spec))
        m, n = p.a.shape
        rng = problems.Lcg64(spec["seed"])
        bits = 12 + n.bit_length()
        params = {"v": near_eye(rng, m, m, bits),
                  "z": near_eye(rng, n, m, bits),
                  "w": near_eye(rng, n, m, bits),
                  "h1": near_eye(rng, n, n, bits)}
        combos(",".join(f"{k}={v}" for k, v in spec.items()), p.a, p.b,
               params)
    # a vanishing search seed breaks the pivot, a vanishing update seed
    # the projector update, both at step 2
    rng = problems.Lcg64(3999)
    a = _floats(rng, 6, 6) + 6 * np.eye(6)
    b = _floats(rng, 6)
    for name in ("z", "w"):
        seeds = np.eye(6)
        seeds[:, 2] = 0.0
        runs.append((f"general-zero-{name}",
                     lambda a=a, b=b, kw={name: seeds}: _general(a, b, **kw)))
    return runs


def _digest(runs):
    digest = hashlib.sha256()
    # the runs with an inf in the data spread NaNs on purpose
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for label, call in runs:
            digest.update(repr((label, _run(call))).encode())
    return digest.hexdigest()


def engine_digest():
    return _digest(engine_runs())


def test_engine_output_is_frozen():
    assert engine_digest() == ENGINE_DIGEST


def test_packed_implicit_lu_output_is_frozen():
    assert _digest(packed_lu_runs()) == PACKED_LU_DIGEST


def test_general_strategy_output_is_frozen():
    assert _digest(general_runs()) == GENERAL_DIGEST


def test_scipys_dgemm_gives_the_frozen_bytes(capsule_dgemm):
    # the update's dgemm bound from SciPy's capsule instead of numpy's
    # BLAS: a k=1 update rounds each product and each sum once in either
    assert engine_digest() == ENGINE_DIGEST
    assert _digest(packed_lu_runs()) == PACKED_LU_DIGEST
    assert capsule_dgemm
