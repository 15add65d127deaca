"""Matrix-space solver: flattened equivalence, operators, quasi-Newton."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absolve import core, matrixeq
from absolve.errors import IncompatibleSystem


def test_trace_dot_is_the_frobenius_inner_product():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert matrixeq.trace_dot(a, b) == pytest.approx(np.trace(a.T @ b))
    with pytest.raises(ValueError):
        matrixeq.trace_dot(a, np.ones((3, 3)))


def test_operator_apply_matches_flat_form():
    rng = np.random.default_rng(4)
    op = matrixeq.MatOperator.identity(3)
    x = rng.standard_normal((3, 3))
    assert np.allclose(op.apply(x), x)
    flat = rng.standard_normal((9, 9))
    op = matrixeq.MatOperator(flat, 3)
    assert np.allclose(op.apply(x).ravel(), flat @ x.ravel())
    assert np.allclose(op.apply_adjoint(x).ravel(), flat.T @ x.ravel())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.integers(1, 9))
def test_iterates_equal_the_flattened_core_run(seed, n, m):
    rng = np.random.default_rng(seed)
    terms = [rng.standard_normal((n, n)) for _ in range(m)]
    flat_a = np.array([t.ravel() for t in terms])
    rhs = flat_a @ rng.standard_normal(n * n)
    system = matrixeq.MatrixSystem(terms, rhs)
    try:
        mat_rep = matrixeq.solve(system, keep_iterates=True)
    except IncompatibleSystem:
        return
    core_rep = core.solve(flat_a, rhs, strategy="huang", keep_iterates=True)
    assert mat_rep.eq_status == core_rep.eq_status
    assert mat_rep.rank == core_rep.rank
    for mat_x, core_x in zip(mat_rep.iterates, core_rep.iterates):
        assert np.allclose(mat_x.ravel(), core_x, atol=1e-12)


def test_incompatible_matrix_equation():
    terms = [np.eye(2), 2.0 * np.eye(2)]
    rhs = np.array([1.0, 3.0])
    with pytest.raises(IncompatibleSystem) as exc:
        matrixeq.solve(matrixeq.MatrixSystem(terms, rhs))
    assert exc.value.row == 1


def test_incompatible_matrix_equation_carries_the_partial_report():
    # four independent equations on 3 x 3 matrices, then the sum of the
    # first two with a right-hand side off by one
    rng = np.random.default_rng(41)
    n = 3
    terms = [rng.standard_normal((n, n)) for _ in range(4)]
    terms.append(terms[0] + terms[1])
    rhs = np.array([matrixeq.trace_dot(t, rng.standard_normal((n, n)))
                    for t in terms[:4]])
    consistent = np.append(rhs, rhs[0] + rhs[1])
    planted = np.append(rhs, rhs[0] + rhs[1] + 1.0)
    with pytest.raises(IncompatibleSystem) as exc:
        matrixeq.solve(matrixeq.MatrixSystem(terms, planted),
                       keep_iterates=True)
    assert exc.value.row == 4
    partial = exc.value.report
    assert partial.x is None and partial.residual_norm is None
    assert partial.rank == 4
    assert partial.eq_status == [core.INDEPENDENT] * 4 + [core.INCOMPATIBLE]

    # up to the failing row the run is the consistent one
    full = matrixeq.solve(matrixeq.MatrixSystem(terms, consistent),
                          keep_iterates=True)
    assert full.eq_status[-1] == core.REDUNDANT
    assert partial.hop.flat.tobytes() == full.hop.flat.tobytes()
    assert len(partial.iterates) == 5
    for got, want in zip(partial.iterates, full.iterates):
        assert got.tobytes() == want.tobytes()
    # the consistent run also counts the redundant verdict and the final
    # residual, m n^2 + m multiplies
    m, nn = len(terms), n * n
    assert partial.mult_count == full.mult_count - 1 - (m * nn + m)


def test_redundant_matrix_equation():
    terms = [np.eye(2), 2.0 * np.eye(2)]
    rhs = np.array([1.0, 2.0])
    rep = matrixeq.solve(matrixeq.MatrixSystem(terms, rhs))
    assert rep.eq_status == [core.INDEPENDENT, core.REDUNDANT]
    assert matrixeq.trace_dot(np.eye(2), rep.x) == pytest.approx(1.0)


def test_general_solution_preserves_all_equations():
    rng = np.random.default_rng(9)
    terms = [rng.standard_normal((3, 3)) for _ in range(4)]
    x_true = rng.standard_normal((3, 3))
    rhs = np.array([matrixeq.trace_dot(t, x_true) for t in terms])
    system = matrixeq.MatrixSystem(terms, rhs)
    rep = matrixeq.solve(system)
    for _ in range(3):
        w = rng.standard_normal((3, 3))
        x = matrixeq.general_solution(rep, w)
        for t, r in zip(terms, rhs):
            assert matrixeq.trace_dot(t, x) == pytest.approx(r, abs=1e-9)


def test_quasi_newton_secant_and_symmetry():
    rng = np.random.default_rng(21)
    delta = rng.standard_normal(4)
    r = rng.standard_normal(4)
    update = matrixeq.quasi_newton_solve(delta, r)
    assert np.allclose(update @ delta, r, atol=1e-10)

    symmetric = matrixeq.quasi_newton_solve(delta, r,
                                            constraints=("symmetry",))
    assert np.allclose(symmetric @ delta, r, atol=1e-10)
    assert np.array_equal(symmetric, symmetric.T)


def test_quasi_newton_fixed_entry():
    rng = np.random.default_rng(22)
    delta = rng.standard_normal(3)
    r = rng.standard_normal(3)
    update = matrixeq.quasi_newton_solve(
        delta, r, constraints=(("fix", 0, 2, 5.0),))
    assert update[0, 2] == pytest.approx(5.0)
    assert np.allclose(update @ delta, r, atol=1e-10)


def test_quasi_newton_rejects_zero_direction():
    with pytest.raises(ValueError):
        matrixeq.quasi_newton_solve(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        matrixeq.quasi_newton_solve(np.ones(3), np.ones(3),
                                    constraints=("bogus",))
