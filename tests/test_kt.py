"""Saddle-point solvers: stage combinations, reuse, failure detection."""

import itertools

import numpy as np
import pytest

from absolve import core, kt, problems, strategies
from absolve.errors import SingularKT


def generated(n, m, seed):
    spec = problems.ProblemSpec(kind="kt", n=n, m=m, seed=seed)
    return problems.generate(spec)


@pytest.mark.parametrize("p_method", kt.P_METHODS)
@pytest.mark.parametrize("z_method", kt.Z_METHODS)
def test_all_stage_combinations_match_the_dense_baseline(p_method, z_method):
    prob = generated(12, 4, seed=2)
    rep = kt.solve(prob.kt_system, p_method, z_method)
    base_p, base_z = kt.dense_baseline(prob.kt_system)
    assert np.allclose(rep.p, base_p, atol=1e-8)
    assert np.allclose(rep.z, base_z, atol=1e-8)
    assert rep.residual_norm < 1e-8 * (1 + np.linalg.norm(prob.b))


def test_reuse_skips_the_constraint_stage_cost():
    prob = generated(10, 3, seed=7)
    solver = kt.KTSolver(prob.kt_system)
    first = solver.solve("a2", "b2")
    second = solver.solve("a2", "b2")
    assert np.allclose(first.p, second.p)
    assert solver.c_stage_mults > 0
    assert first.mult_count - second.mult_count == solver.c_stage_mults


def test_square_constraint_block_edge_case():
    prob = generated(6, 6, seed=11)
    rep = kt.solve(prob.kt_system, "a2", "b2")
    base_p, base_z = kt.dense_baseline(prob.kt_system)
    assert np.allclose(rep.p, base_p, atol=1e-8)
    assert np.allclose(rep.z, base_z, atol=1e-8)


def test_rank_deficient_constraints_are_rejected():
    c_mat = np.array([[1.0, 0.0, 1.0], [2.0, 0.0, 2.0]])
    g_mat = np.eye(3)
    system = kt.KTSystem(g_mat=g_mat, c_mat=c_mat,
                         g=np.ones(3), c=np.array([1.0, 2.0]))
    with pytest.raises(SingularKT):
        kt.solve(system)


def test_singular_reduced_block_is_rejected():
    # zero curvature on the constraint null space leaves p undetermined
    g_mat = np.zeros((3, 3))
    c_mat = np.array([[1.0, 0.0, 0.0]])
    system = kt.KTSystem(g_mat=g_mat, c_mat=c_mat,
                         g=np.ones(3), c=np.array([1.0]))
    with pytest.raises(SingularKT):
        kt.solve(system, "a2", "b2")


def test_system_validation():
    with pytest.raises(ValueError):
        kt.KTSystem(g_mat=np.eye(3), c_mat=np.ones((4, 3)),
                    g=np.ones(3), c=np.ones(4))
    with pytest.raises(ValueError):
        kt.KTSystem(g_mat=np.eye(3), c_mat=np.ones((1, 2)),
                    g=np.ones(3), c=np.ones(1))


def test_assembled_block_structure():
    prob = generated(5, 2, seed=3)
    a, b = prob.kt_system.assemble()
    assert a.shape == (7, 7)
    assert np.array_equal(a[:5, 5:], prob.kt_system.c_mat.T)
    assert np.all(a[5:, 5:] == 0)
    assert np.array_equal(b[:5], prob.kt_system.g)


def test_method_name_validation():
    prob = generated(5, 2, seed=4)
    with pytest.raises(ValueError):
        kt.solve(prob.kt_system, "a3", "b1")
    with pytest.raises(ValueError):
        kt.solve(prob.kt_system, "a1", "b9")


PAIRS = [(p, z) for p in kt.P_METHODS for z in kt.Z_METHODS]


@pytest.mark.parametrize("n", [12, 40, 100])
def test_reused_stages_give_a_fresh_solver_bytes_in_every_call_order(n):
    system = problems.generate(
        problems.ProblemSpec(kind="kt", n=n, seed=n)).kt_system
    fresh = {pair: kt.KTSolver(system).solve(*pair) for pair in PAIRS}
    for order in itertools.permutations(PAIRS):
        solver = kt.KTSolver(system)
        for k, pair in enumerate(order):
            rep = solver.solve(*pair)
            want = fresh[pair]
            assert rep.p.tobytes() == want.p.tobytes()
            assert rep.z.tobytes() == want.z.tobytes()
            assert rep.residual_norm == want.residual_norm
            # the constraint stage is the one discount of a later call
            discount = solver.c_stage_mults if k else 0
            assert rep.mult_count + discount == want.mult_count


class _RightProductSpy(np.ndarray):
    """A G block that counts the matrix products with G on the right."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self \
                and np.ndim(inputs[0]) == 2:
            _RightProductSpy.products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _RightProductSpy)
                  else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_four_pairs_run_the_engine_five_times_and_form_hg_once(
        monkeypatch):
    system = generated(40, 12, seed=5).kt_system
    plain = [kt.KTSolver(system).solve(*pair) for pair in PAIRS]
    runs, stepped = [], []
    engine, replay = core.solve, core.replay

    def solve(a, b, **kw):
        stepped.clear()
        rep = engine(a, b, **kw)
        runs.append(("solve", a.shape, stepped[0]))
        return rep

    monkeypatch.setattr(core, "solve", solve)
    monkeypatch.setattr(core, "replay", lambda rep, b, *args, **kw:
                        runs.append(("replay", rep.state.matrix.shape))
                        or replay(rep, b, *args, **kw))
    scaling = strategies.ParameterStrategy.scaling
    monkeypatch.setattr(strategies.ParameterStrategy, "scaling",
                        lambda self, i, state: stepped.append(i)
                        or scaling(self, i, state))
    monkeypatch.setattr(_RightProductSpy, "products", 0)
    system.g_mat = system.g_mat.view(_RightProductSpy)
    solver = kt.KTSolver(system)
    reports = [solver.solve(*pair) for pair in PAIRS]
    # five engine runs: the constraint stage, a1 resumed at row m, a2, one
    # b1 run, and that b1 run replayed for the second p
    assert runs == [("solve", (12, 40), 0), ("solve", (52, 40), 12),
                    ("solve", (40, 12), 0), ("solve", (40, 40), 0),
                    ("replay", (40, 12))]
    assert _RightProductSpy.products == 1
    for rep, want in zip(reports, plain):
        assert rep.p.tobytes() == want.p.tobytes()
        assert rep.z.tobytes() == want.z.tobytes()
        assert rep.mult_count == want.mult_count - (
            solver.c_stage_mults if rep is not reports[0] else 0)


@pytest.mark.parametrize("pair", PAIRS)
def test_a_failing_stage_raises_again_with_the_same_text(pair):
    system = problems.generate(problems.ProblemSpec(
        kind="kt", n=150, seed=908006)).kt_system
    solver = kt.KTSolver(system, strategy="huang")
    texts = []
    for _ in range(2):
        with pytest.raises(SingularKT) as exc:
            solver.solve(*pair)
        texts.append(str(exc.value))
    assert texts[0] == texts[1]
    assert "dependent equations" in texts[0]


def test_reports_hold_their_own_p():
    solver = kt.KTSolver(generated(12, 4, seed=9).kt_system)
    first = solver.solve("a1", "b2")
    want = first.p.copy()
    first.p[:] = 0.0
    again = solver.solve("a1", "b1")
    assert again.p.tobytes() == want.tobytes()
    assert again.p is not first.p
