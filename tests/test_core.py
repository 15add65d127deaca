"""Engine-level behavior: classification, invariants, reports, counting."""

import ctypes
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absolve import core, iterative, strategies
from absolve.counting import OpCounter
from absolve.errors import (AbsError, IncompatibleSystem, NotFullRank,
                            RegularityFailure, StrategyBreakdown)

import oracles


def random_system(rng, m, n, consistent=True):
    a = rng.standard_normal((m, n))
    if consistent:
        x = rng.standard_normal(n)
        return a, a @ x, x
    return a, rng.standard_normal(m), None


def test_diagonal_system_by_hand():
    # two projection steps on a diagonal system are hand-checkable
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([2.0, 8.0])
    rep = core.solve(a, b)
    assert rep.eq_status == [core.INDEPENDENT, core.INDEPENDENT]
    assert np.allclose(rep.x, [1.0, 2.0], atol=1e-14)
    assert rep.state.pivots == [4.0, 16.0]


def test_duplicate_row_is_redundant():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [1.0, 0.0]])
    b = np.array([3.0, 6.0, 1.0])
    rep = core.solve(a, b)
    assert rep.eq_status == [core.INDEPENDENT, core.REDUNDANT,
                             core.INDEPENDENT]
    assert rep.rank == 2
    assert np.allclose(a @ rep.x, b, atol=1e-12)


def test_contradictory_row_raises_with_partial_report():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    b = np.array([3.0, 7.0])
    with pytest.raises(IncompatibleSystem) as exc:
        core.solve(a, b)
    assert exc.value.row == 1
    partial = exc.value.report
    assert partial.rank == 1
    assert partial.eq_status[-1] == core.INCOMPATIBLE
    assert partial.x is None


def test_warm_start_keeps_exact_solution():
    rng = np.random.default_rng(5)
    a, b, x = random_system(rng, 4, 4)
    rep = core.solve(a, b, x1=x)
    assert np.allclose(rep.x, x, atol=1e-12)


def test_rank_matches_exact_oracle_on_integer_systems():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m, n = rng.integers(1, 6, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        left = rng.integers(-3, 4, size=(m, r))
        right = rng.integers(-3, 4, size=(r, n))
        a_int = (left @ right).tolist()
        expected = oracles.fraction_rank(a_int)
        a = np.array(a_int, dtype=float)
        x = rng.integers(-3, 4, size=n)
        rep = core.solve(a, a @ x, strategy="mhuang")
        assert rep.rank == expected


def test_least_norm_solution_on_underdetermined():
    rng = np.random.default_rng(3)
    a, b, _ = random_system(rng, 3, 7)
    rep = core.solve(a, b)
    ref, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(rep.x, ref, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(2, 8))
def test_consistent_systems_solve_to_small_residual(seed, m, n):
    rng = np.random.default_rng(seed)
    a, b, _ = random_system(rng, m, n)
    rep = core.solve(a, b)
    scale = np.linalg.norm(b) or 1.0
    assert rep.residual_norm / scale < 1e-9
    assert rep.rank == len([t for t in rep.eq_status
                            if t == core.INDEPENDENT])


def test_keep_iterates_records_every_equation():
    rng = np.random.default_rng(9)
    a, b, _ = random_system(rng, 5, 3)
    rep = core.solve(a, b, keep_iterates=True)
    assert len(rep.iterates) == 6
    assert np.array_equal(rep.iterates[0], np.zeros(3))


def _subtract_outer_case(name, rng):
    """(h, u, v) as each caller of ``subtract_outer`` passes them."""
    if name == "contiguous":
        return rng.standard_normal((7, 5)), rng.standard_normal(7), \
            rng.standard_normal(5)
    if name == "column-slice":
        # gilu deflates u[:, i+1:] against its own column i
        u = rng.standard_normal((9, 9))
        return u[:, 4:], u[:, 3], rng.standard_normal(5)
    if name == "copied-row":
        # implicit LU passes a copy of the pivot row of h
        h = rng.standard_normal((6, 6))
        return h, rng.standard_normal(6), h[2].copy()
    if name == "row-blocks":
        rows = 252  # 100800 entries: a tall update
        return rng.standard_normal((rows, 400)), rng.standard_normal(rows), \
            rng.standard_normal(400)
    # signed zeros: -0.0 - (+0.0) must stay -0.0, 0.0 - (-0.0) is +0.0
    h = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 1.0]])
    return h, np.array([0.0, -0.0]), np.array([1.0, -1.0, 0.0])


@pytest.mark.parametrize("case", ("contiguous", "column-slice",
                                  "copied-row", "row-blocks",
                                  "signed-zeros"))
def test_subtract_outer_matches_the_unfused_expression(case):
    rng = np.random.default_rng(23)
    h, u, v = _subtract_outer_case(case, rng)
    parent = h.base if case == "column-slice" else h
    before = parent.copy()
    expected = h - np.outer(u, v)
    core.subtract_outer(h, u, v)
    assert np.array_equal(h, expected)
    assert np.array_equal(np.signbit(h), np.signbit(expected))
    # columns outside the view are left alone
    assert np.array_equal(parent[:, :parent.shape[1] - h.shape[1]],
                          before[:, :parent.shape[1] - h.shape[1]])


def _full_mantissa(rng, size):
    # uniform in [1, 2) times a random sign and power of two: the
    # mantissas are full, so a product of two is almost never exact
    return (1.0 + rng.random(size)) * rng.choice([-1.0, 1.0], size) \
        * 2.0 ** rng.integers(-3, 4, size)


def _near_cancellation(rng, rows, cols):
    """(h, u, v) with h within 2^-20 of outer(u, v), where a fused
    multiply-add, ``round(h - u v)``, differs from the unfused
    ``round(h - round(u v))`` whenever the product is inexact."""
    u, v = _full_mantissa(rng, rows), _full_mantissa(rng, cols)
    h = np.outer(u, v) * (1.0 + 2.0 ** -20 * rng.uniform(-1, 1,
                                                         (rows, cols)))
    return h, u, v


def _fused(h, u, v):
    return float(Fraction(h) - Fraction(u) * Fraction(v))


@pytest.fixture
def dgemm_calls(monkeypatch):
    """Records the BLAS calls of the rank-one updates, one-shot and
    bound, as the ``(cols, rows)`` of the update: the ``M`` and ``N`` of
    the one ``dgemm`` entry point."""
    calls = []
    real = core._DGEMM

    def counting(*args):
        calls.append(tuple(ctypes.c_int.from_address(ptr.value).value
                           for ptr in args[2:4]))
        return real(*args)

    monkeypatch.setattr(core, "_DGEMM", counting)
    return calls


def _check_subtract_outer(h, u, v, parent=None):
    parent = h if parent is None else parent
    outside = parent.shape[1] - h.shape[1]
    before = parent[:, :outside].copy()
    expected = h - np.outer(u, v)
    core.subtract_outer(h, u, v)
    assert h.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(h), np.signbit(expected))
    assert parent[:, :outside].tobytes() == before.tobytes()


def test_subtract_outer_on_blas_is_not_fused(dgemm_calls):
    rng = np.random.default_rng(31)
    h, u, v = _near_cancellation(rng, 300, 300)
    # the case discriminates: a fused kernel would differ in most entries
    sample = [(i, (7 * i) % 300) for i in range(300)]
    differ = sum(_fused(h[i, j], u[i], v[j]) != h[i, j] - u[i] * v[j]
                 for i, j in sample)
    assert differ > 0.9 * len(sample)
    _check_subtract_outer(h, u, v)
    assert dgemm_calls == [(300, 300)]


def _with_zeros(rng, h, u, v):
    """A quarter of u and of v set to +-0, and h +0 where the product
    is: the rows and columns that the update leaves as they are."""
    for vec in (u, v):
        idx = rng.choice(vec.size, vec.size // 4, replace=False)
        vec[idx] = rng.choice([-0.0, 0.0], idx.size)
    h = np.where(np.outer(u, v) == 0.0, 0.0, h)
    return h, u, v


def test_subtract_outer_keeps_zero_products_off_blas_without_the_fact(
        dgemm_calls):
    # products of exactly -0 and no -0 in h: without the caller's fact
    # nothing tells the update that h holds none, and it does not scan
    rng = np.random.default_rng(32)
    h, u, v = _with_zeros(rng, *_near_cancellation(rng, 300, 300))
    assert np.signbit(np.outer(u, v)[h == 0.0]).any()
    assert not np.signbit(h[h == 0.0]).any()
    _check_subtract_outer(h, u, v)
    assert dgemm_calls == []


def test_subtract_outer_falls_back_on_a_negative_zero(dgemm_calls):
    rng = np.random.default_rng(33)
    h, u, v = _with_zeros(rng, *_near_cancellation(rng, 300, 300))
    # u_i v_j is -0 at (i, j): unfused, -0 - (-0) is +0; the k=1 kernel
    # would keep -0 there
    i = int(np.flatnonzero(u == 0.0)[0])
    j = int(np.flatnonzero(v != 0.0)[0])
    u[i] = -0.0 if v[j] > 0 else 0.0
    h[i, j] = -0.0
    _check_subtract_outer(h, u, v)
    assert h[i, j] == 0.0 and not np.signbit(h[i, j])
    assert dgemm_calls == []


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_subtract_outer_falls_back_on_nonfinite_input(bad, dgemm_calls):
    rng = np.random.default_rng(34)
    h, u, v = _near_cancellation(rng, 300, 300)
    v[5] = 0.0  # inf * 0 is NaN
    u[17] = bad
    with np.errstate(invalid="ignore"):
        _check_subtract_outer(h, u, v)
    assert dgemm_calls == []


@pytest.mark.parametrize("shape", ((31, 33), (32, 32), (100, 300),
                                   (600, 600), (1000, 1024)))
def test_subtract_outer_shapes_around_the_blas_cutoffs(shape, dgemm_calls):
    # both sides of _CHECKED_MIN, and shapes that OpenBLAS may send to
    # its small-matrix kernels (up to 10^6 products) or not
    rng = np.random.default_rng(35)
    h, u, v = _near_cancellation(rng, *shape)
    _check_subtract_outer(h, u, v)
    rows, cols = shape
    assert dgemm_calls == ([(cols, rows)]
                           if rows * cols >= core._CHECKED_MIN else [])


@pytest.mark.parametrize("signed_zeros", (False, True))
@pytest.mark.parametrize("shape", ((1, 1), (1, 9), (9, 1), (2, 3), (8, 8),
                                   (16, 16), (24, 24), (32, 32), (40, 40),
                                   (40, 100), (63, 64), (64, 63)))
def test_subtract_outer_on_the_fact_takes_blas_at_any_size(
        shape, signed_zeros, dgemm_calls):
    # from 1 x 1 up, below and above _CHECKED_MIN, the k=1 dgemm on
    # near-cancelling data (a fused kernel would differ), with products
    # of exactly -0 too
    rng = np.random.default_rng(40)
    h, u, v = _near_cancellation(rng, *shape)
    if signed_zeros:
        h, u, v = _with_zeros(rng, h, u, v)
    assert not core._holds_negative_zero(h)
    expected = h - np.outer(u, v)
    core._BoundUpdate(h, True)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(h), np.signbit(expected))
    rows, cols = shape
    assert dgemm_calls == [(cols, rows)]


@pytest.mark.parametrize("case", ("no-fact", "nonfinite", "negative-zero",
                                  "column-slice"))
@pytest.mark.parametrize("shape", ((2, 1), (8, 8), (40, 40), (40, 100)))
def test_small_updates_that_blas_cannot_do_exactly_take_the_row_blocks(
        shape, case, dgemm_calls):
    rng = np.random.default_rng(41)
    rows, cols = shape
    h, u, v = _near_cancellation(rng, rows, cols)
    parent, fact = h, True
    if case == "no-fact":
        # a product of exactly zero: without the fact h may hold a -0
        # there that the kernel would keep
        fact = False
        u[-1] = 0.0
    elif case == "nonfinite":
        u[-1] = np.inf
    elif case == "negative-zero":
        # a -0 in h and a product of exactly -0 there: the kernel would
        # keep the -0, so without the fact the magnitude test refuses BLAS
        fact = False
        u[0], v[0], h[0, 0] = -0.0, 1.0, -0.0
    else:
        # a column slice of more than one row, with a zero product and no
        # fact
        parent = np.hstack([rng.standard_normal((rows, 2)), h])
        h = parent[:, 2:]
        fact = False
        v[-1] = -0.0
    before = parent[:, :parent.shape[1] - cols].copy()
    with np.errstate(invalid="ignore"):
        expected = h - np.outer(u, v)
        core._BoundUpdate(h, fact)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(h), np.signbit(expected))
    assert parent[:, :parent.shape[1] - cols].tobytes() == before.tobytes()
    assert dgemm_calls == []


def test_subtract_outer_searches_edge_rows_from_its_size_gate(dgemm_calls):
    # on the dgemm path the search for +-0 edge rows of u pays only on
    # large updates; below its gate the update keeps every row
    rng = np.random.default_rng(42)
    for n in (100, 150):
        h, u, v = _near_cancellation(rng, n, n)
        u[:10] = 0.0
        u[-5:] = -0.0
        expected = h - np.outer(u, v)
        dgemm_calls.clear()
        core._BoundUpdate(h, True)(u, v)
        assert h.tobytes() == expected.tobytes()
        searched = n * n >= core._EDGE_SEARCH_MIN
        assert searched == (n == 150)
        assert dgemm_calls == [(n, n - 15 if searched else n)]


def test_subtract_outer_updates_a_column_slice_in_its_parent(dgemm_calls):
    rng = np.random.default_rng(36)
    parent, u, _ = _near_cancellation(rng, 300, 300)
    h = parent[:, 100:]
    assert h.size >= core._CHECKED_MIN
    # the slice takes the strided dgemm, whose leading dimension is the
    # parent's row length, and the parent buffer sees the update
    _check_subtract_outer(h, u, _full_mantissa(rng, 200), parent=parent)
    assert dgemm_calls == [(200, 300)]


def _check_view_update(parent, index, u, v, fact=False):
    """subtract_outer on the view ``parent[index]``: the view gets the
    unfused bytes, and no entry of parent outside it changes."""
    h = parent[index]
    outside = np.ones(parent.shape, dtype=bool)
    outside[index] = False
    before = parent.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        expected = h - np.outer(u, v)
        core._BoundUpdate(h, fact)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(h), np.signbit(expected))
    assert parent[outside].tobytes() == before[outside].tobytes()


@pytest.mark.parametrize("fact", (False, True))
@pytest.mark.parametrize("index", (
    np.s_[:, 37:],  # a column slice
    np.s_[11:200, 3:250],  # rows and columns cut off
    np.s_[::2, 5:205],  # a row stride of two parent rows
), ids=("columns", "rows-and-columns", "every-other-row"))
def test_subtract_outer_takes_the_strided_dgemm_on_views(fact, index,
                                                         dgemm_calls):
    # near-cancelling data: a fused kernel would differ in most entries
    rng = np.random.default_rng(43)
    big, _, _ = _near_cancellation(rng, 250, 260)
    rows, cols = big[index].shape
    assert not big[index].flags.c_contiguous
    assert rows * cols >= core._CHECKED_MIN
    u, v = _full_mantissa(rng, rows), _full_mantissa(rng, cols)
    _check_view_update(big, index, u, v, fact)
    assert dgemm_calls == [(cols, rows)]


def test_subtract_outer_reads_u_with_its_own_stride(dgemm_calls):
    # a column of the same buffer as u: the update reads it with the row
    # length as its stride, into a workspace the dgemm reads
    rng = np.random.default_rng(44)
    big, _, _ = _near_cancellation(rng, 120, 90)
    u = big[:, 40]
    assert u.strides[0] == big.strides[0]
    _check_view_update(big, np.s_[:, 41:], u, _full_mantissa(rng, 49),
                       fact=True)
    assert dgemm_calls == [(49, 120)]


def test_subtract_outer_keeps_views_it_cannot_pass_to_blas_on_row_blocks(
        dgemm_calls):
    rng = np.random.default_rng(45)
    big, _, _ = _near_cancellation(rng, 200, 200)
    u, v = _full_mantissa(rng, 190), _full_mantissa(rng, 150)
    # reversed rows and a column stride of -1
    _check_view_update(big, np.s_[194:4:-1, 50:], u, v)
    _check_view_update(big, np.s_[:190, 149::-1], u, v)
    assert dgemm_calls == []
    # a strided v is copied into the workspace of the dgemm
    _check_view_update(big, np.s_[:190, 50:], u, np.repeat(v, 2)[::2])
    assert dgemm_calls == [(150, 190)]
    # a -0 in the view and a product of exactly -0 there
    big[0, 50], u[0], v[0] = -0.0, -0.0, 1.0
    _check_view_update(big, np.s_[:190, 50:], u, v)
    assert big[0, 50] == 0.0 and not np.signbit(big[0, 50])
    assert dgemm_calls == [(150, 190)]


def test_strided_updates_from_several_threads_keep_their_own_shapes():
    import threading
    rng = np.random.default_rng(47)
    # four views of different shapes and leading dimensions, each updated
    # 30 times by its own thread while the others run
    jobs = []
    for rows, width, left in ((70, 130, 3), (90, 100, 40), (65, 200, 100),
                              (120, 64, 1)):
        big, _, _ = _near_cancellation(rng, rows, width)
        cols = width - left
        steps = [(_full_mantissa(rng, rows), _full_mantissa(rng, cols))
                 for _ in range(30)]
        expected = big.copy()
        for u, v in steps:
            expected[:, left:] = expected[:, left:] - np.outer(u, v)
        jobs.append((big, left, steps, expected))

    def run(big, left, steps):
        for u, v in steps:
            core._BoundUpdate(big[:, left:], True)(u, v)

    threads = [threading.Thread(target=run, args=job[:3]) for job in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for big, _, _, expected in jobs:
        assert big.tobytes() == expected.tobytes()


def test_interleaved_bindings_share_the_threads_growing_workspace(
        dgemm_calls):
    # bindings of one thread share one dgemm call whose workspace grows
    # to the largest binding: each update must set its own dims and read
    # the workspace as it is now, not as it was when it was bound
    rng = np.random.default_rng(48)
    # a 4 x 4 matrix at the start of a padded buffer: an update that
    # used a larger binding's leading dimension would write the padding
    small = np.zeros(16 + 4 * 300)
    small[:16] = _near_cancellation(rng, 4, 4)[0].ravel()
    square = _near_cancellation(rng, 300, 300)[0]
    wide = _near_cancellation(rng, 300, 300)[0]
    buffers = {"small": small, "square": square, "slice": wide}
    expected = {name: buf.copy() for name, buf in buffers.items()}

    def view(name, buf):
        if name == "small":
            return buf[:16].reshape(4, 4)
        return buf[:, 150:] if name == "slice" else buf

    bindings = {}

    def bind(name):
        for fact in (False, True):
            bindings[name, fact] = core._BoundUpdate(
                view(name, buffers[name]), fact)

    def update(name, fact):
        want = view(name, expected[name])
        rows, cols = want.shape
        u, v = _full_mantissa(rng, rows), _full_mantissa(rng, cols)
        if fact and rows > 4:
            u[:20] = 0.0  # the fact's edge search leaves these rows out
        want[...] = want - np.outer(u, v)
        bindings[name, fact](u, v)

    def run():
        bind("small")
        update("small", True)
        bind("slice")  # grows the workspace to 450 entries
        update("small", True)
        update("small", False)
        update("slice", False)
        bind("square")  # grows it to 600
        for name in ("slice", "small", "square", "slice", "small"):
            for fact in (True, False):
                update(name, fact)

    thread = threading.Thread(target=run)  # a thread with no workspace yet
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    for name, buf in buffers.items():
        assert buf.tobytes() == expected[name].tobytes(), name
        assert np.array_equal(np.signbit(buf), np.signbit(expected[name]))
    # the 4 x 4 updates with the fact and all larger ones took the dgemm
    assert len(dgemm_calls) == 3 + 2 * 5 - 2


def test_view_leading_dimensions_must_fit_a_c_int():
    buf = np.zeros(8)
    # views that are never written: binding reads only their strides
    fits = np.lib.stride_tricks.as_strided(buf, (2, 3), (8 * 5, 8))
    bound = core._BoundUpdate(fits)
    assert bound._target is not None and bound._ld == 5
    wide = np.lib.stride_tricks.as_strided(buf, (2, 3), (8 * 2 ** 31, 8))
    assert core._BoundUpdate(wide)._target is None


def _signed_specials(draw, rng, a):
    """Sets, one time in two, about a tenth of a's entries to +-0 and,
    one time in ten, a few to +-inf or NaN."""
    if a.size == 0:
        return
    if draw(st.booleans()):
        mask = rng.random(a.shape) < 0.1
        a[mask] = rng.choice([-0.0, 0.0], int(mask.sum()))
    if draw(st.integers(0, 9)) == 0:
        for _ in range(draw(st.integers(1, 2))):
            idx = tuple(int(rng.integers(k)) for k in a.shape)
            a[idx] = draw(st.sampled_from((np.inf, -np.inf, np.nan)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subtract_outer_on_any_view_is_the_unfused_update(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # 0 rows or columns, and sizes on both sides of _CHECKED_MIN and of
    # _EDGE_SEARCH_MIN
    size = st.one_of(st.integers(0, 6), st.integers(40, 180))
    rows, cols = draw(size), draw(size)
    top, left = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    width = left + cols + draw(st.integers(0, 5))  # the leading dimension
    parent = _full_mantissa(rng, (top + rows + draw(st.integers(0, 2)),
                                  width))
    index = np.s_[top:top + rows, left:left + cols]
    if left > 0 and draw(st.booleans()):
        u = parent[top:top + rows, left - 1]  # a column beside the view
    else:
        u = _full_mantissa(rng, rows)
    v = _full_mantissa(rng, cols)
    for a in (parent[index], u, v):
        _signed_specials(draw, rng, a)
    fact = draw(st.booleans())
    if fact:
        # the caller states that the view holds no -0
        h = parent[index]
        h[h == 0.0] = 0.0
    _check_view_update(parent, index, u, v, fact)


@pytest.mark.parametrize("signed_zeros", (False, True))
def test_subtract_outer_on_the_callers_negative_zero_fact(signed_zeros,
                                                          dgemm_calls):
    rng = np.random.default_rng(37)
    h, u, v = _near_cancellation(rng, 300, 300)
    if signed_zeros:
        # products of exactly -0, and no -0 in h, as the caller promises
        h, u, v = _with_zeros(rng, h, u, v)
        assert np.signbit(np.outer(u, v)[h == 0.0]).any()
    assert not core._holds_negative_zero(h)
    expected = h - np.outer(u, v)
    # the fact lets the update leave out the +-0 rows at either end of u
    nonzero = np.flatnonzero(u)
    rows = int(nonzero[-1]) - int(nonzero[0]) + 1
    assert (rows < 300) == signed_zeros
    core._BoundUpdate(h, True)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert dgemm_calls == [(300, rows)]


@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_subtract_outer_falls_back_on_nonfinite_input_despite_the_fact(
        bad, dgemm_calls):
    rng = np.random.default_rng(38)
    h, u, v = _near_cancellation(rng, 300, 300)
    v[5] = 0.0  # inf * 0 is NaN
    u[17] = bad
    with np.errstate(invalid="ignore"):
        expected = h - np.outer(u, v)
        core._BoundUpdate(h, True)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert dgemm_calls == []


def test_subtract_outer_falls_back_when_the_squares_overflow(dgemm_calls):
    # finite entries whose squares overflow fail the finiteness test,
    # conservatively, and the update takes numpy
    rng = np.random.default_rng(39)
    h, u, v = _near_cancellation(rng, 300, 300)
    u[3] = 1e200
    expected = h - np.outer(u, v)
    with np.errstate(over="ignore"):
        assert not np.isfinite(u.dot(u))
        core._BoundUpdate(h, True)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert dgemm_calls == []


def _zero_runs(draw, rng, size):
    """A full-mantissa vector with runs of +-0 at its start, at its end
    and inside, or all +-0."""
    u = _full_mantissa(rng, size)
    if draw(st.booleans()):
        lead = draw(st.integers(0, size))
        trail = draw(st.integers(0, size - lead))
        runs = [(0, lead), (size - trail, size)]
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, size - 1))
            runs.append((start, start + draw(st.integers(1, 5))))
        for r0, r1 in runs:
            u[r0:r1] = rng.choice([-0.0, 0.0], len(u[r0:r1]))
    else:
        u[:] = rng.choice([-0.0, 0.0], size)
    return u


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_subtract_outer_row_skip_is_the_unfused_update(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # both sides of _CHECKED_MIN and of _EDGE_SEARCH_MIN, and enough
    # rows for long zero runs
    rows = draw(st.integers(1, 120))
    cols = draw(st.sampled_from((1, 7, 33, 64, 100, 400)))
    u = _zero_runs(draw, rng, rows)
    v = _full_mantissa(rng, cols)
    for bad in draw(st.lists(st.sampled_from((np.inf, -np.inf, np.nan)),
                             max_size=2)):
        v[rng.integers(cols)] = bad
    if draw(st.booleans()):
        v[rng.integers(cols)] = draw(st.sampled_from((0.0, -0.0)))
    fact = draw(st.booleans())
    h = _full_mantissa(rng, (rows, cols))
    # zeros (-0 only where no fact is stated), and an inf or a NaN
    h[rng.random((rows, cols)) < 0.2] = 0.0 if fact else -0.0
    h[rng.random((rows, cols)) < 0.2] = 0.0
    h[rng.random((rows, cols)) < 0.01] = draw(
        st.sampled_from((np.inf, -np.inf, np.nan)))
    parent = h
    if draw(st.booleans()):
        # gilu deflates a column slice of its seed matrix
        parent = np.hstack([rng.standard_normal((rows, 3)), h])
        h = parent[:, 3:]
    assert fact <= (not core._holds_negative_zero(h))
    before = parent[:, :parent.shape[1] - cols].copy()
    with np.errstate(invalid="ignore", over="ignore"):
        expected = h - np.outer(u, v)
        core._BoundUpdate(h, fact)(u, v)
    assert h.tobytes() == expected.tobytes()
    assert np.array_equal(np.signbit(h), np.signbit(expected))
    assert parent[:, :parent.shape[1] - cols].tobytes() == before.tobytes()


def _update_vector(draw, rng, size, zero_runs=False):
    """A vector of the given size: contiguous, strided or read-only,
    with +-0 runs at its ends or inside when asked."""
    x = _zero_runs(draw, rng, size) if zero_runs and size \
        else _full_mantissa(rng, size)
    _signed_specials(draw, rng, x)
    layout = draw(st.sampled_from(("contiguous", "strided", "read-only")))
    if layout == "strided":
        # a column of a matrix, as a direction of gilu's seeds is
        x = np.column_stack([x, _full_mantissa(rng, size)])[:, 0]
    elif layout == "read-only":
        x.flags.writeable = False
    return x


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bound_updates_are_the_unfused_updates(data):
    draw = data.draw
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # a matrix bound once at any row and column offset of its parent,
    # then updated on top-right blocks of any size
    size = st.one_of(st.integers(0, 6), st.integers(24, 150))
    rows, cols = draw(size), draw(size)
    top, left = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    parent = _full_mantissa(rng, (top + rows + draw(st.integers(0, 2)),
                                  left + cols + draw(st.integers(0, 5))))
    h = parent[top:top + rows, left:left + cols]
    _signed_specials(draw, rng, h)
    fact = draw(st.booleans())
    if fact:
        h[h == 0.0] = 0.0  # the caller's fact: no -0 in h
    bound = core._BoundUpdate(h, fact)
    # the measured size gates, or none, so that small blocks take every
    # route too
    gates = core._CHECKED_MIN, core._EDGE_SEARCH_MIN
    if draw(st.booleans()):
        core._CHECKED_MIN = core._EDGE_SEARCH_MIN = 0
    try:
        for _ in range(draw(st.integers(1, 3))):
            k, l = draw(st.integers(0, rows)), draw(st.integers(0, cols))
            u = _update_vector(draw, rng, k, zero_runs=True)
            v = _update_vector(draw, rng, l)
            block = np.s_[top:top + k, left + cols - l:left + cols]
            expected = parent.copy()
            with np.errstate(invalid="ignore", over="ignore"):
                prod = np.outer(u, v)
                if not fact and draw(st.booleans()):
                    # -0 in h where a product is exactly -0: the kernel
                    # would keep it, the unfused update gives +0
                    parent[block][(prod == 0.0) & np.signbit(prod)] = -0.0
                    expected = parent.copy()
                expected[block] = expected[block] - prod
                bound(u, v)
            assert parent.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(parent), np.signbit(expected))
            if fact:
                # the update makes no -0 in a matrix that holds none
                assert not core._holds_negative_zero(h)
    finally:
        core._CHECKED_MIN, core._EDGE_SEARCH_MIN = gates


def test_bound_updates_reject_blocks_larger_than_the_matrix():
    bound = core._BoundUpdate(np.zeros((3, 4)), True)
    with pytest.raises(ValueError):
        bound(np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        core.subtract_outer(np.zeros((3, 4)), np.ones(3), np.ones(3))


def test_threads_solving_systems_of_one_shape_get_the_serial_bytes():
    # the bindings of a thread share its dgemm call; the dgemm runs
    # without the GIL, so threads must not share one
    from absolve import problems
    systems = [problems.generate(problems.ProblemSpec(
        kind="determined", n=60, seed=seed)) for seed in range(6)]
    want = [core.solve(p.a, p.b).x.tobytes() for p in systems]
    got = [[] for _ in systems]

    def solve_each(k):
        for _ in range(5):
            got[k].append(core.solve(systems[k].a, systems[k].b).x.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve_each, args=(k,))
                   for k in range(len(systems))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 5 for w in want]


def test_engine_ilu_updates_only_the_rows_below_its_zero_block(dgemm_calls):
    from absolve import problems
    n = 300
    p = problems.generate(problems.ProblemSpec(kind="determined", n=n,
                                               seed=3))
    # step k has zeroed rows 0..k-1, and the update of the other n - k
    # rows is one dgemm, down to the last row
    core.solve(p.a, p.b, strategy="ilu")
    assert dgemm_calls == [(n, rows) for rows in range(n, 0, -1)]
    # the dense updates of huang, mhuang and iqr keep every row
    for method in ("huang", "mhuang", "iqr"):
        dgemm_calls.clear()
        core.solve(p.a, p.b, strategy=method)
        assert dgemm_calls == [(n, n)] * n


def test_gilu_and_packed_lu_update_their_column_slices_on_blas(
        dgemm_calls):
    from absolve import strategies
    n = 200
    rng = np.random.default_rng(46)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    strategies.gilu_solve(a, b, np.eye(n))
    # step i deflates the n x (n-1-i) trailing columns on BLAS; direction
    # i is zero below row i, and from _EDGE_SEARCH_MIN entries the update
    # leaves those rows out
    assert dgemm_calls == [
        (n - 1 - i, i + 1 if n * (n - 1 - i) >= core._EDGE_SEARCH_MIN
         else n) for i in range(n - 1)]
    # the packed solver's block at step i is i x (n-1-i); it states no
    # -0 fact, so its updates take BLAS from _CHECKED_MIN entries
    n = 300
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    dgemm_calls.clear()
    strategies.implicit_lu_solve(a, b)
    assert dgemm_calls == [(n - 1 - i, i) for i in range(n - 1)
                           if i * (n - 1 - i) >= core._CHECKED_MIN]
    assert dgemm_calls


@pytest.mark.parametrize("fact", (False, True))
@pytest.mark.parametrize("shape", ((32, 31), (32, 32), (127, 128),
                                   (128, 128)))
def test_views_take_blas_from_their_size_gates(fact, shape, dgemm_calls):
    # any size with the -0 fact, _CHECKED_MIN entries without it
    rng = np.random.default_rng(48)
    rows, cols = shape
    big, _, _ = _near_cancellation(rng, rows, cols + 5)
    _check_view_update(big, np.s_[:, 5:], _full_mantissa(rng, rows),
                       _full_mantissa(rng, cols), fact)
    gate = 0 if fact else core._CHECKED_MIN
    assert dgemm_calls == ([(cols, rows)] if rows * cols >= gate else [])


@pytest.fixture
def negative_zero_scans(monkeypatch):
    """Counts the calls of :func:`core._holds_negative_zero`."""
    calls = []
    real = core._holds_negative_zero

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(core, "_holds_negative_zero", counting)
    return calls


def test_engine_scans_the_start_projector_once(negative_zero_scans):
    from absolve import problems, strategies
    from test_engine_frozen import _negative_zero_eye
    n = 300
    p = problems.generate(problems.ProblemSpec(kind="determined", n=n,
                                               seed=3))
    # the pivot rows of ilu hold exact zeros, so without the fact no
    # update could take BLAS
    rep = core.solve(p.a, p.b, strategy="ilu")
    assert rep.rank == n
    assert negative_zero_scans == [(n, n)]
    # a start projector with -0.0: the one scan finds it, and the updates
    # test the magnitudes of u and v instead
    negative_zero_scans.clear()
    strategy = strategies.GiluStrategy(_negative_zero_eye(n))
    core.solve(p.a, p.b, strategy=strategy)
    assert negative_zero_scans == [(n, n)]


def test_breakdown_leaves_the_steps_multiplies_on_the_counter():
    # ilu on a zero leading minor: setup n^2 + m + m n = 10, then row 0's
    # residual 2, projection 4, row norm 2, dependency test 2, pivot 2
    # and direction norm 2 before the pivot check fails
    counter = OpCounter()
    with pytest.raises(StrategyBreakdown):
        core.solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2),
                   strategy="ilu", counter=counter)
    assert counter.mults == 24


# the second row's squares overflow, so with zero tolerances (absolve
# solve --tol 0) its bounds read 0 * inf = NaN, and its pivot is an exact 0
_TALL = ([[1.0], [1e200]], [1.0, 1e200])
_SQUARE = ([[1.0, 0.0], [1e200, 0.0]], [1.0, 1e200])
_NO_TOL = core.Tolerances(dependency=0.0, pivot=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow
@pytest.mark.parametrize("run, error", [
    (lambda: core.solve(*_TALL, "huang", tol=_NO_TOL), StrategyBreakdown),
    (lambda: core.solve(*_TALL, "mhuang", tol=_NO_TOL), StrategyBreakdown),
    (lambda: core.solve(*_SQUARE, "ilu", tol=_NO_TOL), RegularityFailure),
    (lambda: strategies.implicit_lu_solve(*_SQUARE, tol=_NO_TOL),
     RegularityFailure),
    (lambda: strategies.gilu_solve(*_SQUARE, np.eye(2), tol=_NO_TOL),
     StrategyBreakdown),
    (lambda: iterative.recursive_solve(*_SQUARE, tol=_NO_TOL),
     StrategyBreakdown),
], ids=["huang", "mhuang", "ilu", "implicit_lu_solve", "gilu_solve",
        "recursive_solve"])
def test_an_exact_zero_pivot_breaks_down_under_a_nan_bound(run, error):
    with pytest.raises(error) as exc:
        run()
    assert type(exc.value) is error and exc.value.row == 1


_NORM_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e154, -1.3e154, 1.7976931348623157e308, np.inf, -np.inf,
                  np.nan)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                    allow_subnormal=True),
                          st.sampled_from(_NORM_SPECIALS)),
                max_size=70),
       st.integers(-3, 3).filter(bool), st.integers(0, 2))
def test_norm_helper_is_numpys_vector_norm(values, stride, offset):
    base = np.array(values, dtype=float)
    # the same values contiguous and as a strided view into a buffer
    buf = np.full(offset + max(len(values), 1) * abs(stride), 0.5)
    view = buf[offset::stride] if stride > 0 else buf[::stride]
    view = view[:len(values)]
    view[:] = base
    for v in (base, view):
        with np.errstate(over="ignore", invalid="ignore"):
            want = float(np.linalg.norm(v))
            got = core._norm(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_implicit_factorization_reconstructs_the_inverse():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)
    rep = core.solve(a, b)
    p, l, v = core.implicit_factorization(rep)
    assert np.all(np.abs(np.triu(l, k=1)) < 1e-10)
    inv = core.reconstruct_inverse(p, l, v)
    assert np.allclose(inv, np.linalg.inv(a), atol=1e-8)


def test_implicit_factorization_requires_full_rank():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1.0]])
    b = np.array([1.0, 2.0, 1.0])
    rep = core.solve(a, b)
    with pytest.raises(NotFullRank):
        core.implicit_factorization(rep)


def test_multiply_count_is_frozen_for_the_smallest_solve():
    # hand count for a 1x1 run with unit scaling: initial reference
    # norm 1 + rhs norm 1 + matrix norm 1; then residual 1, projection 1,
    # row norm 1, dependency test 1, pivot 1, direction norm 1, step
    # size 1, solution update 1, projector update 2; final residual
    # check 2
    rep = core.solve(np.array([[2.0]]), np.array([4.0]))
    assert rep.x[0] == pytest.approx(2.0)
    assert rep.mult_count == 15


def test_mult_count_grows_quadratically_with_columns():
    rng = np.random.default_rng(40)
    counts = []
    for n in (8, 16):
        a, b, _ = random_system(rng, 4, n)
        counts.append(core.solve(a, b).mult_count)
    # dominated by the n^2 projector work per equation
    assert 3.0 < counts[1] / counts[0] < 4.6


def test_tolerance_override_flags_near_dependence():
    a = np.array([[1.0, 0.0], [1.0, 1e-9]])
    b = np.array([1.0, 1.0])
    strict = core.solve(a, b, tol=core.Tolerances(dependency=1e-6))
    assert strict.rank == 1
    assert strict.eq_status[1] == core.REDUNDANT
    loose = core.solve(a, b)
    assert loose.rank == 2


@pytest.mark.parametrize("field", ("dependency", "residual", "pivot"))
@pytest.mark.parametrize("value", (-1e-12, float("nan"), float("inf")))
def test_tolerances_reject_negative_and_nan_fields(field, value):
    tol = core.Tolerances(**{field: value})
    with pytest.raises(ValueError):
        tol.resolve(3)
    a, b = np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 3.0])
    with pytest.raises(ValueError):
        core.solve(a, b, strategy="ilu", tol=tol)
    assert core.Tolerances(**{field: 0.0}).resolve(3)


def test_general_solution_needs_a_projector():
    rng = np.random.default_rng(56)
    a, b, _ = random_system(rng, 4, 4)
    for rep in (strategies.gilu_solve(a, b, np.eye(4)),
                iterative.recursive_solve(a, b)):
        assert rep.state.h is None
        with pytest.raises(ValueError, match="no projector"):
            core.general_solution(rep, np.zeros(4))


def test_general_solution_spans_the_null_space():
    rng = np.random.default_rng(55)
    a, b, _ = random_system(rng, 2, 5)
    rep = core.solve(a, b)
    for _ in range(5):
        q = rng.standard_normal(5)
        x = core.general_solution(rep, q)
        assert np.allclose(a @ x, b, atol=1e-10)


def test_package_exports_each_name_once():
    import absolve
    assert len(absolve.__all__) == len(set(absolve.__all__))
    missing = [name for name in absolve.__all__
               if not hasattr(absolve, name)]
    assert missing == []


def _registry_system(name, rng, m, n, rank):
    """(strategy, A) for a registry strategy: a symmetric positive
    semidefinite n x n matrix of rank ``rank`` for ``cgdir``, at most n
    Gaussian rows for the implicit LU family, ``m`` rows of rank ``rank``
    otherwise."""
    if name == "cgdir":
        q = rng.standard_normal((n, min(rank, n)))
        return name, q @ q.T
    if name == "ilu":
        return name, rng.standard_normal((min(m, n), n))
    if name == "gilu":
        h1 = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        return (strategies.make_strategy("gilu", h1=h1),
                rng.standard_normal((min(m, n), n)))
    rank = min(rank, m, n)
    return name, rng.standard_normal((m, rank)) \
        @ rng.standard_normal((rank, n))


def _outcome(call):
    """What a run gives: ``x``, ``eq_status``, rank, count, residual and
    iterates, the floats as their bytes, or the raised error's type, row
    and text with its partial report's ``eq_status`` and count."""
    try:
        rep = call()
    except AbsError as exc:
        partial = getattr(exc, "report", None)
        return (type(exc).__name__, getattr(exc, "row", None), str(exc),
                None if partial is None
                else (partial.eq_status, partial.mult_count))
    iterates = None if rep.iterates is None \
        else [x.tobytes() for x in rep.iterates]
    return (rep.x.tobytes(), rep.eq_status, rep.rank, rep.mult_count,
            np.float64(rep.residual_norm).tobytes(), iterates)


REGISTRY = sorted(strategies._REGISTRY)


def _assert_resumed_run_is_the_full_run(name, seed, m, n, rank, head, bump,
                                        scaled, start, keep):
    """A run resumed from a kept run on ``a``'s first ``head`` rows, with
    another right-hand side and a zero start, is the full run with ``x1``
    and ``keep_iterates`` drawn; ``bump`` puts a contradiction where a row
    is dependent into the ``"kept"`` or the ``"full"`` run."""
    rng = np.random.default_rng(seed)
    strategy, a = _registry_system(name, rng, m, n, rank)
    if scaled:
        # rows of every scale from 2^-30 to 2^30
        a = a * np.exp2(rng.integers(-30, 31, size=(len(a), 1)))
    b = a @ rng.standard_normal(n)
    # the kept run has its own right-hand side and starts at zero
    other = a @ rng.standard_normal(n)
    if bump:
        rhs = other if bump == "kept" else b
        rhs[rng.integers(len(rhs))] += 1.0
    x1 = rng.standard_normal(n) if start else None
    k = min(head, len(a))
    try:
        kept = core.solve(a[:k], other[:k], strategy)
    except IncompatibleSystem as exc:
        kept = exc.report
    except AbsError:
        return
    assert _outcome(lambda: core.solve(a, b, strategy, x1=x1,
                                       keep_iterates=keep, resume=kept)) \
        == _outcome(lambda: core.solve(a, b, strategy, x1=x1,
                                       keep_iterates=keep))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(REGISTRY), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 9), st.integers(1, 7), st.integers(1, 7),
       st.sampled_from((None, "kept", "full")), st.booleans(),
       st.booleans(), st.booleans())
def test_replay_is_the_full_run_on_a_new_right_hand_side(name, seed, m, n,
                                                         rank, bump, scaled,
                                                         start, keep):
    # the kept run holds every row of the system
    _assert_resumed_run_is_the_full_run(name, seed, m, n, rank, m, bump,
                                        scaled, start, keep)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REGISTRY), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 9), st.integers(1, 7), st.integers(1, 7),
       st.integers(1, 9), st.sampled_from((None, "kept", "full")),
       st.booleans(), st.booleans(), st.booleans())
def test_resumed_run_is_the_full_run_of_the_stacked_system(
        name, seed, m, n, rank, head, bump, scaled, start, keep):
    # the kept run holds the system's first rows, or all of them
    _assert_resumed_run_is_the_full_run(name, seed, m, n, rank, head, bump,
                                        scaled, start, keep)


def _spied(strategy):
    """The strategy, logging the rows it is asked to scale and to test."""
    scaled, tested = [], []
    scaling, classify = strategy.scaling, strategy.classify_vector
    strategy.scaling = lambda i, state: scaled.append(i) or scaling(i, state)
    strategy.classify_vector = \
        lambda i, *args: tested.append(i) or classify(i, *args)
    return strategy, scaled, tested


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("huang", "stable", "mhuang", "ilu", "gilu")),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 5),
       st.integers(0, 3))
def test_a_resumed_run_does_not_step_the_kept_rows_again(name, seed, head,
                                                         tail, spare):
    rng = np.random.default_rng(seed)
    m, n = head + tail, head + tail + spare
    a = rng.standard_normal((m, n))
    b = a @ rng.standard_normal(n)
    params = {"h1": np.eye(n)} if name == "gilu" else {}
    kept = core.solve(a[:head], b[:head],
                      strategies.make_strategy(name, **params))
    assert kept.rank == head
    strategy, stepped, _ = _spied(strategies.make_strategy(name, **params))
    rep = core.solve(a, b, strategy, resume=kept)
    assert stepped == list(range(head, m))
    assert _outcome(lambda: rep) == _outcome(
        lambda: core.solve(a, b, strategies.make_strategy(name, **params)))


def test_resume_starts_at_row_zero_where_it_does_not_apply():
    rng = np.random.default_rng(61)
    a = rng.standard_normal((6, 4))
    b = a @ rng.standard_normal(4)
    other = a.copy()
    other[1, 2] = np.nextafter(other[1, 2], 9.0)
    kept_runs = [
        # other rows, or these rows in another layout
        ("huang", core.solve(other[:3], b[:3])),
        ("huang", core.solve(np.asfortranarray(a[:3]), b[:3])),
        # strategies whose steps read more than their own row
        ("ilx", core.solve(a[:3], b[:3], "ilx")),
        ("iqr", core.solve(a[:3], b[:3], "iqr")),
    ]
    for name, kept in kept_runs:
        want = _outcome(lambda: core.solve(a, b, name))
        assert _outcome(lambda: core.solve(a, b, name, resume=kept)) == want
        if name != "iqr":  # iqr skips the scaling of a proven row
            strategy, stepped, _ = _spied(strategies.make_strategy(name))
            core.solve(a, b, strategy, resume=kept)
            assert stepped == list(range(6))


def test_an_incompatible_kept_run_starts_at_row_zero():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [1.0, 0.0]])
    with pytest.raises(IncompatibleSystem) as exc:
        core.solve(a[:2], np.array([3.0, 7.0]))
    b = np.array([3.0, 6.0, 1.0])
    strategy, scaled, _ = _spied(strategies.make_strategy("huang"))
    assert _outcome(lambda: core.solve(a, b, strategy,
                                       resume=exc.value.report)) \
        == _outcome(lambda: core.solve(a, b))
    assert scaled == [0, 1, 2]


def test_a_kept_redundant_row_under_explicit_scalings_scales_every_row():
    # explicit scalings: the run keeps no v of its redundant row 2, so it
    # cannot retest the row and starts at row 0
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 2.0]])
    kept = core.solve(a, np.array([1.0, 2.0, 3.0]),
                      strategies.GeneralStrategy(v=v))
    assert kept.eq_status[2] == core.REDUNDANT
    b = np.array([2.0, -1.0, 1.0])
    strategy, scaled, _ = _spied(strategies.GeneralStrategy(v=v))
    assert _outcome(lambda: core.solve(a, b, strategy, resume=kept)) \
        == _outcome(lambda: core.solve(a, b, strategies.GeneralStrategy(v=v)))
    assert scaled == [0, 1, 2]
    # a unit scaling is retested on the new b, and no row is stepped
    kept = core.solve(a, np.array([1.0, 2.0, 3.0]))
    strategy, scaled, _ = _spied(strategies.make_strategy("huang"))
    rep = core.solve(a, b, strategy, resume=kept)
    assert _outcome(lambda: rep) == _outcome(lambda: core.solve(a, b))
    assert scaled == []
    assert rep.state.h is kept.state.h


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("row", [1, 2])
def test_a_resumed_contradiction_raises_the_full_runs_row_report_and_count(
        k, row):
    # row 1 is a kept redundant row, whose retest fails and starts the run
    # at row 0; row 2 comes after the kept rows where k is 2
    a = np.array([[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]])
    b = np.array([3.0, 6.0, 12.0])
    kept = core.solve(a[:k], b[:k])
    assert kept.eq_status[1] == core.REDUNDANT
    b[row] += 1.0
    with pytest.raises(IncompatibleSystem) as full:
        core.solve(a, b)
    with pytest.raises(IncompatibleSystem) as again:
        core.solve(a, b, resume=kept)
    assert again.value.row == full.value.row == row
    assert _outcome(lambda: core.solve(a, b, resume=kept)) \
        == _outcome(lambda: core.solve(a, b))


class _CountedScaling(strategies.HuangStrategy):
    """Huang's choice with a scaling hook that counts a multiply."""

    def scaling(self, i, state):
        state.counter.add(1)


def _tall_strategy(name, rng, m, n):
    """A registry strategy by name, ``GeneralStrategy`` with explicit
    scalings (``"general-v"``) or with a start projector
    (``"general-h1"``), or ``_CountedScaling`` (``"counted-scaling"``)."""
    if name == "counted-scaling":
        return _CountedScaling()
    if name == "general-v":
        return strategies.GeneralStrategy(
            v=np.eye(m) + 0.1 * rng.standard_normal((m, m)))
    h1 = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    if name == "general-h1":
        return strategies.GeneralStrategy(h1=h1)
    return strategies.make_strategy(name, **({"h1": h1} if name == "gilu"
                                              else {}))


SPENT_NAMES = REGISTRY + ["general-v", "general-h1", "counted-scaling"]


def _with_and_without_the_proof(name, seed, n, k, plant, keep, tol):
    """The outcomes of a run on a consistent (n + k) x n system with
    ``plant`` in one of its rows after the n-th, with the spent-projector
    proof and with the proof switched off."""
    rng = np.random.default_rng(seed)
    m = n + k
    a = rng.standard_normal((m, n))
    b = a @ rng.standard_normal(n)
    row = n + int(rng.integers(k))
    if plant == "contradiction":
        b[row] += 1.0
    elif plant in ("zero", "tiny", "huge"):
        # the row's squares are 0, underflow, or overflow
        scale = {"zero": 0.0, "tiny": 1e-170, "huge": 1e200}[plant]
        a[row] *= scale
        b[row] *= scale
    elif plant in ("inf", "nan"):
        a[row, rng.integers(n)] = float(plant)
    strategy = _tall_strategy(name, rng, m, n)

    def outcome():
        return _outcome(lambda: core.solve(a, b, strategy, tol=tol,
                                           keep_iterates=keep))

    with_proof = outcome()
    with mock.patch.object(core, "_spent", lambda *args: False):
        return with_proof, outcome()


TOLERANCES = (None, core.Tolerances(dependency=0.0),
              core.Tolerances(dependency=1e-6))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SPENT_NAMES), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 8), st.integers(1, 6),
       st.sampled_from((None, "contradiction", "zero", "tiny")),
       st.booleans(), st.sampled_from(TOLERANCES))
def test_a_spent_projector_gives_the_full_runs_outcome(name, seed, n, k,
                                                       plant, keep, tol):
    with_proof, without = _with_and_without_the_proof(name, seed, n, k,
                                                      plant, keep, tol)
    assert with_proof == without


# the warnings that the full run emits on these rows
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SPENT_NAMES), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 8), st.integers(1, 6),
       st.sampled_from(("inf", "nan", "huge")), st.booleans(),
       st.sampled_from(TOLERANCES))
def test_a_spent_projector_steps_nonfinite_rows_as_the_full_run_does(
        name, seed, n, k, plant, keep, tol):
    with_proof, without = _with_and_without_the_proof(name, seed, n, k,
                                                      plant, keep, tol)
    assert with_proof == without


@pytest.mark.parametrize("name", ["huang", "stable", "mhuang", "ilx", "iqr",
                                  "general-v", "general-h1"])
def test_rows_after_the_first_proven_row_skip_the_test(name):
    rng = np.random.default_rng(17)
    m, n = 12, 5
    a = rng.standard_normal((m, n))
    b = a @ rng.standard_normal(n)
    strategy, scaled, tested = _spied(_tall_strategy(name, rng, m, n))
    rep = core.solve(a, b, strategy)
    assert rep.eq_status == [core.INDEPENDENT] * n + [core.REDUNDANT] * (m - n)
    # row n, the first after the n-th pivot, is stepped in full
    assert tested == list(range(n + 1))
    assert scaled == list(range(n + 1 if name == "iqr" else m))


@pytest.mark.parametrize("name", ["huang", "stable", "mhuang"])
def test_a_run_resumed_at_n_pivots_skips_as_the_full_run_does(name):
    rng = np.random.default_rng(18)
    m, n = 12, 5
    a = rng.standard_normal((m, n))
    b = a @ rng.standard_normal(n)
    kept = core.solve(a[:n], b[:n], name)
    strategy, scaled, tested = _spied(strategies.make_strategy(name))
    rep = core.solve(a, b, strategy, resume=kept)
    assert scaled == list(range(n, m))
    assert tested == [n]
    assert _outcome(lambda: rep) == _outcome(lambda: core.solve(a, b, name))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REGISTRY), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 8), st.floats(-14.0, 0.0), st.integers(-20, 20))
def test_classify_vectors_keep_the_contract_of_a_spent_projector(
        name, seed, n, log_h, log_a):
    # |vector| <= |H|_F scale / h_norm for |H|_F <= 1, within the factor
    # 2 that the engine's proof leaves for rounding
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    # square and symmetric, so that every strategy takes it
    a = (q + q.T) * 10.0 ** log_a
    h = rng.standard_normal((n, n))
    h *= 10.0 ** log_h / np.linalg.norm(h)
    h_fro = float(np.linalg.norm(h))
    strategy = strategies.make_strategy(
        name, **({"h1": np.eye(n)} if name == "gilu" else {}))
    strategy.begin(a)
    state = core.ProjectorState(h=h, matrix=a)
    h_norm = float(rng.uniform(0.5, 2.0 * np.sqrt(n)))
    for i in range(n):
        v = strategy.scaling(i, state)
        y = a[i] if v is None else a.T @ v
        vec, scale = strategy.classify_vector(i, state, h @ y, core._norm(y),
                                              h_norm)
        assert np.linalg.norm(vec) <= 2.0 * h_fro * scale / h_norm
