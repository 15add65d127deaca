"""Exact integer solver: gcd certificates, ranks, solution enumeration."""

import itertools
import math
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absolve import diophantine
from absolve.errors import IncompatibleSystem, IntegerInconsistent

import oracles


def test_bezout_gcd_known_pair():
    g, z = diophantine.bezout_gcd([4, 6])
    assert g == 2
    assert 4 * z[0] + 6 * z[1] == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=6))
def test_bezout_gcd_certificate(values):
    g, z = diophantine.bezout_gcd(values)
    assert g == math.gcd(*values) if len(values) > 1 else g == abs(values[0])
    assert sum(v * c for v, c in zip(values, z)) == g
    assert g >= 0


@st.composite
def bezout_values(draw):
    """Lists with repeated magnitudes, +-v pairs and zeros, up to 2^200."""
    bits = draw(st.sampled_from((1, 3, 8, 64, 200)))
    entry = st.integers(-2 ** bits, 2 ** bits)
    pool = draw(st.lists(entry, min_size=1, max_size=6))
    reused = st.tuples(st.sampled_from(pool), st.sampled_from((1, -1))) \
        .map(lambda t: t[0] * t[1])
    return draw(st.lists(st.one_of(st.just(0), reused, entry),
                         max_size=24))


@settings(max_examples=400, deadline=None)
@given(bezout_values())
def test_bezout_gcd_equals_the_sort_and_fold_oracle(values):
    assert diophantine.bezout_gcd(values) == oracles.bezout_gcd(values)


def test_bezout_gcd_all_zero():
    g, z = diophantine.bezout_gcd([0, 0, 0])
    assert g == 0
    assert len(z) == 3


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_bareiss_det_matches_exact_elimination(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(n, n)).tolist()
    assert diophantine.bareiss_det(a) == int(oracles.fraction_det(a))


def test_single_equation_certificate():
    with pytest.raises(IntegerInconsistent) as exc:
        diophantine.solve([[2, 4]], [3])
    assert exc.value.row == 0
    assert exc.value.delta == 2
    assert exc.value.tau == -3


def test_solvable_single_equation():
    rep = diophantine.solve([[2, 4]], [6])
    x = rep.x
    assert all(isinstance(v, int) for v in x)
    assert 2 * x[0] + 4 * x[1] == 6


def test_integer_obstruction_carries_the_partial_report():
    # the last row is even and independent of the first two, its right
    # side odd
    a = [[1, 1, 1, 1], [0, 1, -1, 2], [2, 0, 4, 6]]
    b = [4, 1, 3]
    with pytest.raises(IntegerInconsistent) as exc:
        diophantine.solve(a, b)
    err = exc.value
    assert (err.row, err.delta, err.tau) == (2, 8, 35)
    # the witness is fixed modulo delta: any basis of the lattice gives
    # this residual class
    assert err.tau % 8 == -21 % 8
    assert str(err) == ("equation 2: gcd 8 does not divide residual 35; "
                        "no integer solution exists")
    rep = err.report
    head = diophantine.solve(a[:2], b[:2])
    assert rep.x is None
    assert rep.eq_status == [diophantine.INDEPENDENT] * 2 \
        + [diophantine.INTEGER_INCOMPATIBLE]
    assert rep.rank == 2
    assert rep.deltas == head.deltas
    # the basis at the failing row: the one left by the rows before
    assert rep.h == head.h
    assert rep.matrix == a and rep.rhs == b


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(2, 6))
def test_failure_report_matches_the_run_before_it(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(-4, 5, size=(m, n)).tolist()
    x = rng.integers(-3, 4, size=n).tolist()
    b = [sum(r[j] * x[j] for j in range(n)) for r in a]
    a[-1] = [3 * v for v in a[-1]]
    b[-1] = 3 * b[-1] + 1
    # the last row is now unsolvable over the integers, or over the
    # rationals too when it depends on the rows before it
    with pytest.raises((IntegerInconsistent, IncompatibleSystem)) as exc:
        diophantine.solve(a, b)
    row = exc.value.row
    status = (diophantine.INTEGER_INCOMPATIBLE
              if exc.type is IntegerInconsistent
              else diophantine.INCOMPATIBLE)
    if row:
        head = diophantine.solve(a[:row], b[:row])
        before = (head.eq_status, head.rank, head.h, head.deltas)
    else:
        before = ([], 0, np.eye(n, dtype=int).tolist(), [])
    rep = exc.value.report
    assert rep.x is None
    assert (rep.eq_status[:-1], rep.rank, rep.h, rep.deltas) == before
    assert rep.eq_status[-1] == status


def test_redundant_and_rational_incompatible_rows():
    rep = diophantine.solve([[1, 2], [2, 4]], [3, 6])
    assert rep.eq_status[1] == diophantine.REDUNDANT
    with pytest.raises(IncompatibleSystem):
        diophantine.solve([[1, 1], [1, 1]], [1, 2])


def _unimodular(rng, n):
    # a product of elementary integer row operations: determinant 1
    h = np.eye(n, dtype=int)
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False) if n > 1 else (0, 0)
        if i != j:
            h[i] += int(rng.integers(-2, 3)) * h[j]
    return h.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from(("planted", "shifted", "obstructed")),
       st.booleans(), st.booleans())
def test_h_is_a_saturated_basis_of_the_null_lattice(seed, m, n, rhs,
                                                    with_h1, with_x1):
    rng = np.random.default_rng(seed)
    a = rng.integers(-4, 5, size=(m, n))
    if m > 1:
        # an integer combination of the rows before it: redundant on a
        # compatible system
        k = int(rng.integers(1, m))
        a[k] = rng.integers(-2, 3, size=k) @ a[:k]
    a = a.tolist()
    x = rng.integers(-3, 4, size=n).tolist()
    b = [sum(map(mul, row, x)) for row in a]
    i = int(rng.integers(m))
    if rhs == "shifted":
        b[i] += int(rng.integers(1, 4))
    elif rhs == "obstructed":
        a[i] = [3 * v for v in a[i]]
        b[i] = 3 * b[i] + 1
    h1 = _unimodular(rng, n) if with_h1 else None
    x1 = rng.integers(-9, 10, size=n).tolist() if with_x1 else None
    try:
        rep = diophantine.solve(a, b, h1=h1, x1=x1)
        done = m
    except (IntegerInconsistent, IncompatibleSystem) as exc:
        rep, done = exc.report, exc.row
    k = n - rep.rank
    basis = rep.h[:k]
    assert len(rep.h) == n
    assert rep.h[k:] == [[0] * n] * rep.rank
    assert all(sum(map(mul, br, row)) == 0 for br in basis
               for row in a[:done])
    # the maximal minors have gcd 1, so the basis spans every integer
    # vector of its rational span: x + h^T q reaches every solution
    minors = [diophantine.bareiss_det([[br[c] for c in cols]
                                       for br in basis])
              for cols in itertools.combinations(range(n), k)]
    assert math.gcd(*minors) == 1
    if rep.x is not None:
        assert [sum(map(mul, row, rep.x)) for row in a] == b


def test_projector_stays_integer():
    rep = diophantine.solve([[6, 10, 15]], [1])
    for row in rep.h:
        assert all(isinstance(v, int) for v in row)


def _entry_by_entry(rows, what):
    """The conversion every entry went through before the type scan."""
    out = []
    for r in rows:
        row = []
        for v in r:
            iv = int(v)
            if iv != v:
                raise ValueError(f"{what} entry {v!r} is not an integer")
            row.append(iv)
        out.append(row)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError(f"{what} rows have unequal lengths")
    return out


def _conversion(convert, *args):
    try:
        got = convert(*args)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", got, [[type(v) for v in row] for row in got]
            if got and isinstance(got[0], list) else [type(v) for v in got])


_ENTRIES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70), st.integers(-5, 5), st.booleans(),
    st.integers(-5, 5).map(np.int64), st.integers(-5, 5).map(float),
    st.sampled_from([0.5, -2.25, np.float64(3.0), np.float64(1.5)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.lists(_ENTRIES, max_size=4), st.sampled_from(
    [list, tuple, lambda row: np.array(row, dtype=object)])), max_size=4))
def test_integer_entries_convert_as_entry_by_entry(rows):
    # lists and tuples of ints take the type scan, the rest the entry check
    a = [kind(row) for row, kind in rows]
    assert _conversion(diophantine._as_int_matrix, a) \
        == _conversion(_entry_by_entry, a, "matrix")
    for vec in a:
        assert _conversion(diophantine._as_int_vector, vec, "rhs") \
            == _conversion(lambda v: _entry_by_entry([v], "rhs")[0], vec)


def test_a_bad_entry_is_named_after_rows_of_ints():
    with pytest.raises(ValueError, match=r"^matrix entry 2\.5 is not an "
                                         r"integer$"):
        diophantine.solve([[1, 2], [3, 2.5]], [1, 2])
    with pytest.raises(ValueError, match=r"^rhs entry 0\.5 is not an "
                                         r"integer$"):
        diophantine.solve([[1, 2], [3, 4]], [1, 0.5])
    a = [[3, 5]]
    rep = diophantine.solve(a, (1,))
    assert 3 * rep.x[0] + 5 * rep.x[1] == 1
    # the solver works on its own lists
    assert a == [[3, 5]]


def test_initial_matrix_must_be_unimodular():
    with pytest.raises(ValueError):
        diophantine.solve([[1, 0]], [1], h1=[[2, 0], [0, 1]])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 4))
def test_planted_solutions_are_recovered_exactly(seed, m, n):
    rng = np.random.default_rng(seed)
    a = rng.integers(-6, 7, size=(m, n)).tolist()
    x = rng.integers(-6, 7, size=n).tolist()
    b = [sum(r[j] * x[j] for j in range(n)) for r in a]
    rep = diophantine.solve(a, b)
    got = rep.x
    assert all(isinstance(v, int) for v in got)
    assert [sum(r[j] * got[j] for j in range(n)) for r in a] == b


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_decision_matches_the_minor_gcd_oracle(seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(2, 3)).tolist()
    b = rng.integers(-3, 4, size=2).tolist()
    _, consistent, _ = oracles.fraction_eliminate(a, b)
    try:
        diophantine.solve(a, b)
        decision = "integer"
    except IntegerInconsistent:
        decision = "no-integer"
    except IncompatibleSystem:
        decision = "no-rational"
    if oracles.integer_solvable(a, b):
        assert decision == "integer"
    elif consistent:
        assert decision == "no-integer"
    else:
        # a row can certify integer impossibility before the rational
        # contradiction surfaces; both verdicts are sound here
        assert decision in ("no-integer", "no-rational")


def test_general_solution_stays_on_the_solution_set():
    rep = diophantine.solve([[2, 3, 5]], [1])
    for q in ([0, 0, 0], [1, -2, 3], [-4, 5, -6]):
        x = diophantine.general_solution(rep, q)
        assert all(isinstance(v, int) for v in x)
        assert 2 * x[0] + 3 * x[1] + 5 * x[2] == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(((2, 3, 2, 4), (3, 5, 2, 3), (1, 4, 3, 3))),
       st.data())
def test_box_enumeration_matches_brute_force(seed, shape, data):
    # 2x3 systems leave a lattice of dimension 1 (or more at lower rank),
    # 3x5 systems one of dimension 2, 1x4 systems one of dimension 3
    rows, cols, bound, max_radius = shape
    radius = data.draw(st.integers(0, max_radius))
    rng = np.random.default_rng(seed)
    a = rng.integers(-bound, bound + 1, size=(rows, cols)).tolist()
    x = rng.integers(-2, 3, size=cols).tolist()
    b = [sum(r[j] * x[j] for j in range(cols)) for r in a]
    rep = diophantine.solve(a, b)
    got = diophantine.solutions_in_box(rep, radius)
    assert got == oracles.box_solutions(a, b, radius)


def test_box_with_a_long_first_parameter_range():
    # the adjugate bounds of this lattice are wide; the old full-box
    # enumeration took tens of seconds at radius 0
    a = [[-3, 2, 2, -2, 2], [3, 1, -1, -1, -3], [-3, 0, 3, 2, 0]]
    b = [-3, -1, 4]
    rep = diophantine.solve(a, b)
    assert sum(map(any, rep.h)) == 2
    for radius in (0, 1, 2, 3):
        assert diophantine.solutions_in_box(rep, radius) \
            == oracles.box_solutions(a, b, radius)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=8, max_size=8))
def test_fast_2x3_status_matches_the_general_oracle(values):
    a = [values[:3], values[3:6]]
    b = values[6:]
    consistent, solvable = oracles.system_status_2x3(a, b)
    aug = [row + [bv] for row, bv in zip(a, b)]
    assert consistent == (oracles.fraction_rank(a)
                          == oracles.fraction_rank(aug))
    if consistent:
        assert solvable == oracles.integer_solvable(a, b)


def test_fast_2x3_status_exhaustive_small_grid():
    from itertools import product
    for values in product((-1, 0, 1), repeat=6):
        a = [list(values[:3]), list(values[3:])]
        for b in ([1, 0], [-1, 1], [0, 0]):
            consistent, solvable = oracles.system_status_2x3(a, b)
            aug = [row + [bv] for row, bv in zip(a, b)]
            assert consistent == (oracles.fraction_rank(a)
                                  == oracles.fraction_rank(aug))
            if consistent:
                assert solvable == oracles.integer_solvable(a, b)
