"""Parameter strategies: correctness, invariants, and the LU variants."""

import numpy as np
import pytest
from fractions import Fraction

from absolve import core, strategies
from absolve.counting import OpCounter
from absolve.errors import (RegularityFailure, StrategyBreakdown,
                            UnsupportedShape)

import oracles


ALL_NAMES = ("huang", "stable", "mhuang", "ilu", "ilx", "iqr", "cgdir")


def spd_system(rng, n):
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    x = rng.standard_normal(n)
    return a, a @ x, x


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_strategy_solves_an_spd_system(name):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
    a, b, x = spd_system(rng, 7)
    rep = core.solve(a, b, strategy=name)
    assert rep.rank == 7
    assert np.allclose(rep.x, x, atol=1e-8)


def test_unknown_strategy_name():
    with pytest.raises(ValueError):
        strategies.make_strategy("nope")


def test_huang_search_vectors_are_orthogonal():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    rep = core.solve(a, b, strategy="huang")
    p = rep.state.p_matrix()
    gram = p.T @ p
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-10 * np.abs(gram).max()


def test_modified_huang_handles_nearly_dependent_rows():
    # third row differs from a combination of the first two by 1e-13
    a = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [1.0, 1.0, 1e-13]])
    b = np.array([1.0, 1.0, 2.0])
    rep = core.solve(a, b, strategy="mhuang")
    assert rep.rank == 2
    assert rep.eq_status[2] == core.REDUNDANT


def test_implicit_lu_zeroes_processed_projector_rows_exactly():
    a = np.array([[2.0, 1.0, 1.0],
                  [4.0, 3.0, 3.0],
                  [8.0, 7.0, 9.0]])
    b = a @ np.array([1.0, -1.0, 2.0])
    rep = core.solve(a, b, strategy="ilu")
    h = rep.state.h
    assert np.all(h[:3] == 0.0)
    assert np.allclose(rep.x, [1.0, -1.0, 2.0], atol=1e-12)


def _sprinkle(rng, a, rate, values):
    mask = rng.random(a.shape) < rate
    a[mask] = rng.choice(values, mask.sum())


@pytest.mark.parametrize("seed", range(20))
def test_implicit_lu_update_equals_the_full_update(seed):
    # for any s, any start and any order of pivot rows the factors of
    # update_factors give h - outer(s / s_k, h_k), bit for bit; a binding
    # without the -0 fact updates every row (the row skip of a run is
    # tested in test_core)
    rng = np.random.default_rng(seed)
    n = 80
    h = rng.standard_normal((n, n))
    _sprinkle(rng, h, 0.2, [0.0, -0.0])
    _sprinkle(rng, h, 0.002, [np.inf, -np.inf, np.nan])
    strategy = strategies.GiluStrategy(h)
    state = core.ProjectorState(h=strategy.initial_h(n))
    strategy.begin(np.zeros((n, n)))
    expected = state.h.copy()
    # pivot rows in order, with gaps where an equation was redundant
    ks = np.flatnonzero(rng.random(n) < 0.8)[:30]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for k in ks:
            s = rng.standard_normal(n)
            _sprinkle(rng, s[:k], 0.9, [0.0, -0.0])
            _sprinkle(rng, s, 0.01, [np.inf, -np.inf, np.nan])
            p = strategy.search_vector(int(k), state, s)
            core._BoundUpdate(state.h)(*strategy.update_factors(
                int(k), state, s, p, None))
            expected -= np.outer(s / s[k], expected[k].copy())
            assert state.h.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ("general", "iqr", "cgdir", "mhuang",
                                  "ilx"))
def test_a_vanishing_update_seed_is_a_breakdown_at_its_row(name):
    # s is orthogonal to row 2 of the matrix and to the seed w_2 = e_2,
    # its component at the ilx pivot index is 0, and the reprojected
    # direction p is 0
    a = np.eye(3)
    s = np.array([0.0, 1.0, 0.0])
    state = core.ProjectorState(h=np.eye(3), matrix=a)
    strategy = strategies.GeneralStrategy(w=a) if name == "general" \
        else strategies.make_strategy(name)
    strategy.begin(a)
    strategy._k = 0
    with pytest.raises(StrategyBreakdown) as exc:
        strategy.update_factors(2, state, s, np.zeros(3), 1.0)
    assert type(exc.value) is StrategyBreakdown and exc.value.row == 2
    assert str(exc.value).startswith(
        "direction seed at equation 2 gives a vanishing pivot (")


def test_implicit_lu_pivots_equal_exact_minor_ratios():
    rng = np.random.default_rng(8)
    a_int = [[7, 1, -2, 3], [2, -9, 1, 0], [-1, 4, 8, -2], [3, 0, 1, 6]]
    a = np.array(a_int, dtype=float)
    x = np.array([1.0, 2.0, -1.0, 0.5])
    rep = core.solve(a, a @ x, strategy="ilu")
    exact = [float(r) for r in oracles.leading_minor_ratios(a_int)]
    assert np.allclose(rep.state.pivots, exact, rtol=1e-12)


def test_implicit_lu_rejects_nonregular_matrix():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RegularityFailure) as exc:
        core.solve(a, np.array([1.0, 1.0]), strategy="ilu")
    assert exc.value.row == 0


def test_implicit_lu_requires_no_more_rows_than_columns():
    a = np.ones((3, 2))
    with pytest.raises(UnsupportedShape):
        core.solve(a, np.ones(3), strategy="ilu")


def test_implicit_lx_solves_the_permutation_case():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = core.solve(a, np.array([3.0, 4.0]), strategy="ilx")
    assert np.allclose(rep.x, [4.0, 3.0], atol=1e-14)


def test_implicit_lx_marks_each_column_once():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((6, 6))
    strategy = strategies.ImplicitLXStrategy()
    core.solve(a, rng.standard_normal(6), strategy=strategy)
    assert sorted(strategy._used) == list(range(6))


def test_orthogonal_scaling_reaches_the_least_squares_solution():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    rep = core.solve(a, b, strategy="iqr")
    ref, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(rep.x, ref, atol=1e-9)
    # rows past the rank carry no new information under this scaling
    assert rep.rank == 3
    assert all(t == core.REDUNDANT for t in rep.eq_status[3:])


def test_conjugate_directions_reject_asymmetric_and_indefinite():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((4, 4))
    with pytest.raises(UnsupportedShape):
        core.solve(a, np.ones(4), strategy="cgdir")
    indefinite = np.diag([1.0, -1.0, 1.0, 1.0])
    with pytest.raises((UnsupportedShape, StrategyBreakdown)):
        core.solve(indefinite, np.ones(4), strategy="cgdir")


def test_conjugate_directions_are_matrix_conjugate():
    rng = np.random.default_rng(50)
    a, b, _ = spd_system(rng, 6)
    rep = core.solve(a, b, strategy="cgdir")
    p = rep.state.p_matrix()
    gram = p.T @ a @ p
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-8 * np.abs(gram).max()


def test_general_strategy_with_unit_columns_matches_implicit_lu():
    rng = np.random.default_rng(60)
    a = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    b = rng.standard_normal(4)
    eye = np.eye(4)
    general = strategies.GeneralStrategy(v=eye, z=eye, w=eye, h1=eye)
    rep_g = core.solve(a, b, strategy=general)
    rep_l = core.solve(a, b, strategy="ilu")
    assert np.allclose(rep_g.x, rep_l.x, atol=1e-12)


def test_gilu_by_name_needs_its_start_projector():
    a = np.eye(3)
    with pytest.raises(ValueError, match="gilu.*h1="):
        core.solve(a, np.ones(3), strategy="gilu")
    rep = core.solve(a, np.ones(3), strategy=strategies.make_strategy(
        "gilu", h1=np.eye(3)))
    assert np.array_equal(rep.x, np.ones(3))


def test_compact_lu_matches_the_engine_variant():
    rng = np.random.default_rng(80)
    a = rng.standard_normal((9, 9)) + 9 * np.eye(9)
    x = rng.standard_normal(9)
    b = a @ x
    compact = strategies.implicit_lu_solve(a, b)
    engine = core.solve(a, b, strategy="ilu")
    assert np.allclose(compact.x, engine.x, atol=1e-11)
    assert np.allclose(compact.x, x, atol=1e-9)


def test_compact_lu_counts_and_storage_are_frozen():
    # n = 20 reference values pin the counting and metering rules:
    # recursion 2*sum i(n-1-i) + 3*sum i + n^2 per-step + residual,
    # peak i(n-i) + n - 1 at i = n/2
    rng = np.random.default_rng(90)
    a = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    b = rng.standard_normal(20)
    rep = strategies.implicit_lu_solve(a, b)
    assert rep.mult_count == 3900
    assert rep.workspace.storage.peak == 119
    assert rep.workspace.storage.live == 0


def test_gilu_count_is_frozen():
    # n = 20 reference value pins the counting rule: 5n + 1 per step,
    # (2n + 1)(n - 1 - i) for the deflation after step i, n^2 + n residual
    rng = np.random.default_rng(90)
    a = rng.standard_normal((20, 20)) + 20 * np.eye(20)
    b = rng.standard_normal(20)
    rep = strategies.gilu_solve(a, b, np.eye(20))
    assert rep.mult_count == 10230


def _column_loop_case(kind, n):
    """The system, and the tolerances, of one case of the bit-for-bit
    comparison with the column loop."""
    rng = np.random.default_rng(1000 + n)
    tol = None
    if kind in ("sparse", "negative-zero"):
        # small integers, four in five zero: a new column entry that
        # sums to +0 is stored as -(+0 / d) = -0, and the block's updates
        # then meet -0 in both the block and the column
        a = rng.integers(-3, 4, size=(n, n)) \
            * (rng.random((n, n)) < 0.2) + 4 * np.eye(n)
        a = a.astype(float)
        if kind == "negative-zero":
            # the rows the new columns are summed from start at -0.0
            a[a == 0.0] = -0.0
    elif kind == "dense":
        scale = 10.0 ** rng.integers(-3, 4, size=(n, 1))
        a = (rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n)) \
            * scale
    else:
        a = rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n)
        if kind == "inf-row":
            a[n // 2, 3] = np.inf
        elif kind == "nan-row":
            a[n // 2, 3] = np.nan
        elif kind == "rows-to-1e200":
            # the norms of the later rows overflow, which fails their
            # pivot test
            a *= 10.0 ** (200.0 * np.arange(n) / (n - 1))[:, None]
        elif kind == "column-overflow":
            # with no pivot tolerance the middle step divides by a pivot
            # near 1e-160 and its new column overflows
            a[:, n // 2] *= 1e-160
            a[:, n // 2 + 1:] *= 1e160
            tol = core.Tolerances(pivot=0.0)
    return a, rng.standard_normal(n), tol


def _run_with_count(solver, a, b, tol):
    """The report, or the row of the RegularityFailure, and the count."""
    counter = OpCounter()
    try:
        return solver(a, b, tol=tol, counter=counter), counter.mults
    except RegularityFailure as exc:
        return exc.row, counter.mults


@pytest.mark.parametrize("n, kind", [
    *(pytest.param(n, "dense", id=str(n))
      for n in (1, 2, 3, 8, 9, 10, 30, 64, 301)),
    *(pytest.param(n, "sparse", id=f"sparse-{n}") for n in (2, 9, 64, 301)),
    # the edges of the products route, below its threshold and above it
    *(pytest.param(n, kind, id=f"{kind}-{n}")
      for kind in ("negative-zero", "inf-row", "nan-row", "rows-to-1e200",
                   "column-overflow")
      for n in (64, 301)),
])
def test_packed_lu_reproduces_the_column_loop_bit_for_bit(n, kind):
    # n >= 9 reaches a last step whose block has one column and at
    # least nine rows to sum
    a, b, tol = _column_loop_case(kind, n)
    finite = kind in ("dense", "sparse", "negative-zero")
    with np.errstate(**({} if finite else dict(all="ignore"))):
        ref, ref_count = _run_with_count(oracles.column_loop_implicit_lu,
                                         a, b, tol)
        rep, count = _run_with_count(strategies.implicit_lu_solve, a, b,
                                     tol)
    assert count == ref_count
    if kind in ("inf-row", "rows-to-1e200"):
        assert rep == ref > 0  # the same row
        return
    if kind in ("sparse", "negative-zero") and n > 2:
        assert any(np.signbit(p[p == 0.0]).any()
                   for p in ref.state.p_cols)
    if kind in ("nan-row", "column-overflow"):
        # the run goes on with non-finite columns from the middle step
        assert not np.isfinite(ref.state.p_cols[n // 2 + 1]).all()
    assert len(rep.state.p_cols) == len(ref.state.p_cols) == n
    nan_signs = False
    for got, want in zip([rep.x, rep.state.pivots, *rep.state.p_cols],
                         [ref.x, ref.state.pivots, *ref.state.p_cols]):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        bits = got.view(np.int64) ^ want.view(np.int64)
        differ = bits != 0
        # every entry has the column loop's bits but the sign of a NaN
        assert np.isnan(got[differ]).all()
        assert (bits[differ] == np.iinfo(np.int64).min).all()
        nan_signs |= bool(differ.any())
    assert rep.mult_count == ref.mult_count
    assert rep.workspace.storage.peak == ref.workspace.storage.peak
    assert rep.workspace.storage.live == ref.workspace.storage.live == 0
    if nan_signs:
        pytest.xfail("where NaNs of both signs meet in one operation, "
                     "which one numpy keeps depends on its loop")


def test_packed_lu_fails_on_the_same_row_as_the_column_loop():
    rng = np.random.default_rng(1100)
    a = rng.integers(-5, 6, size=(12, 12)).astype(float) + 20 * np.eye(12)
    # leading 7 x 7 minor singular: row 6 repeats rows 0 + 1 there
    a[6, :7] = a[0, :7] + a[1, :7]
    b = rng.standard_normal(12)
    with pytest.raises(RegularityFailure) as ref:
        oracles.column_loop_implicit_lu(a, b)
    with pytest.raises(RegularityFailure) as exc:
        strategies.implicit_lu_solve(a, b)
    assert exc.value.row == ref.value.row == 6


def test_compact_lu_rejects_nonsquare_and_nonregular():
    with pytest.raises(UnsupportedShape):
        strategies.implicit_lu_solve(np.ones((2, 3)), np.ones(2))
    singular = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RegularityFailure):
        strategies.implicit_lu_solve(singular, np.ones(2))


def test_gilu_matches_core_run_with_composed_start():
    rng = np.random.default_rng(100)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal(5)
    h1 = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    z = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    seeded = strategies.gilu_solve(a, b, h1, z=z)
    composed = core.solve(a, b, strategy=strategies.GiluStrategy(z.T @ h1))
    for u, p in zip(seeded.state.p_cols, composed.state.p_cols):
        assert np.linalg.norm(u - p) < 1e-9 * max(1.0, np.linalg.norm(p))
    assert np.allclose(seeded.x, composed.x, atol=1e-9)


def test_gilu_validates_the_initial_matrix():
    a = np.eye(3)
    with pytest.raises(ValueError):
        strategies.gilu_solve(a, np.ones(3), np.ones((2, 3)))
