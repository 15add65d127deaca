"""Truncated iterative family: classical equivalences, traces, bounds."""

import numpy as np
import pytest

from absolve import core, iterative, strategies
from absolve.errors import MaxIterReached, Stagnation, StrategyBreakdown

import oracles


def spd_system(rng, n):
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    x = rng.standard_normal(n)
    return a, a @ x, x


def test_recursive_solve_matches_direct():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    x = rng.standard_normal(6)
    rep = iterative.recursive_solve(a, a @ x)
    assert np.allclose(rep.x, x, atol=1e-10)
    assert rep.rank == 6


def test_recursive_solve_breaks_on_singular():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(StrategyBreakdown):
        iterative.recursive_solve(a, np.array([1.0, 2.0]))


@pytest.mark.parametrize("n", (1, 9, 30))
def test_recursive_solve_with_unit_seeds_is_gilu_solve_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    rec = iterative.recursive_solve(a, b, z=np.eye(n))
    gilu = strategies.gilu_solve(a, b, np.eye(n))
    assert np.array_equal(rec.x, gilu.x)
    for p, q in zip(rec.state.p_cols, gilu.state.p_cols, strict=True):
        assert np.array_equal(p, q)
    assert np.array_equal(rec.state.pivots, gilu.state.pivots)
    assert rec.mult_count == gilu.mult_count


@pytest.mark.parametrize("given", (("v",), ("z",), ("h1",), ("x1",),
                                   ("v", "z", "h1", "x1")))
def test_recursive_solve_matches_the_engine_iterate_by_iterate(given):
    n = 8
    rng = np.random.default_rng(210)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    params = {"v": rng.standard_normal((n, n)) + n * np.eye(n),
              "z": rng.standard_normal((n, n)) + n * np.eye(n),
              "h1": rng.standard_normal((n, n)) + n * np.eye(n),
              "x1": rng.standard_normal(n)}
    kw = {k: params[k] for k in given}
    rec = iterative.recursive_solve(a, b, keep_iterates=True, **kw)
    # both default to the scaled rows A^T v_k as seeds
    general = strategies.GeneralStrategy(v=kw.get("v"), z=kw.get("z"),
                                         w=kw.get("z"), h1=kw.get("h1"))
    eng = core.solve(a, b, strategy=general, x1=kw.get("x1"),
                     keep_iterates=True)
    assert len(rec.iterates) == len(eng.iterates) == n + 1
    for got, want in zip(rec.iterates, eng.iterates):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # exact count: the unit-seed loop plus the setup products
    loop = iterative.recursive_solve(a, b, z=np.eye(n)).mult_count
    setup = n ** 3 * ("h1" in kw) + n * n * (n + 1) * ("v" in kw)
    assert rec.mult_count == loop + setup


def test_params_validation():
    with pytest.raises(ValueError):
        iterative.IterParams(m=0)
    with pytest.raises(ValueError):
        iterative.IterParams(scaling="weird")
    with pytest.raises(ValueError):
        iterative.IterParams(seed="random")


def test_single_memory_energy_cyclic_is_coordinate_relaxation():
    rng = np.random.default_rng(10)
    a, b, _ = spd_system(rng, 6)
    params = iterative.IterParams(m=1, scaling="energy", seed="cyclic",
                                  max_iter=60, rtol=0.0)
    with pytest.raises(MaxIterReached) as exc:
        iterative.limited_memory_solve(a, b, params)
    trace = exc.value.trace
    reference = oracles.gauss_seidel(a, b, np.zeros(6), 60)
    for got, want in zip(trace.iterates[1:], reference):
        assert np.allclose(got, want, atol=1e-12)


def test_single_memory_identity_cyclic_is_row_projection():
    rng = np.random.default_rng(11)
    a, b, _ = spd_system(rng, 6)
    params = iterative.IterParams(m=1, scaling="identity", seed="cyclic",
                                  max_iter=60, rtol=0.0)
    with pytest.raises(MaxIterReached) as exc:
        iterative.limited_memory_solve(a, b, params)
    trace = exc.value.trace
    reference = oracles.kaczmarz(a, b, np.zeros(6), 60)
    for got, want in zip(trace.iterates[1:], reference):
        assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("scaling", iterative.SCALINGS)
def test_gradient_seeded_runs_converge(scaling):
    rng = np.random.default_rng(12)
    a, b, x = spd_system(rng, 12)
    params = iterative.IterParams(m=3, scaling=scaling, max_iter=3000)
    trace = iterative.limited_memory_solve(a, b, params)
    assert np.linalg.norm(a @ trace.x - b) <= 1e-8 * np.linalg.norm(b)


def test_full_memory_energy_converges_in_few_steps():
    rng = np.random.default_rng(13)
    a, b, _ = spd_system(rng, 10)
    params = iterative.IterParams(m=11, scaling="energy", max_iter=60)
    trace = iterative.limited_memory_solve(a, b, params)
    assert trace.steps <= 30


def test_stagnation_carries_the_trace():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([1.0, 1.0])
    params = iterative.IterParams(m=1, scaling="normal", max_iter=50)
    with pytest.raises(Stagnation) as exc:
        iterative.limited_memory_solve(a, b, params)
    assert exc.value.trace is not None
    assert exc.value.trace.iterates


def test_energy_scaling_requires_symmetry():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    params = iterative.IterParams(m=1, scaling="energy")
    with pytest.raises(ValueError):
        iterative.limited_memory_solve(a, np.ones(2), params)


@pytest.mark.parametrize("scaling", iterative.SCALINGS)
@pytest.mark.parametrize("m", (1, 2, 5))
def test_contraction_bound_holds_on_spd_runs(scaling, m):
    rng = np.random.default_rng(100 * m)
    a, b, x = spd_system(rng, 9)
    params = iterative.IterParams(m=m, scaling=scaling, max_iter=4000)
    try:
        trace = iterative.limited_memory_solve(a, b, params, x_star=x)
    except MaxIterReached as exc:
        trace = exc.trace
    cond = iterative.scaling_condition(a, scaling)
    assert iterative.angle_contraction_check(trace, cond)
    assert len(trace.bound_factors) == trace.steps


def test_contraction_check_rejects_tampered_histories():
    rng = np.random.default_rng(14)
    a, b, x = spd_system(rng, 8)
    params = iterative.IterParams(m=2, scaling="energy", max_iter=2000)
    trace = iterative.limited_memory_solve(a, b, params, x_star=x)
    trace.errors[-1] = trace.errors[0] * 10 + 1.0
    cond = iterative.scaling_condition(a, "energy")
    assert not iterative.angle_contraction_check(trace, cond)


def test_restart_mode_still_converges():
    rng = np.random.default_rng(15)
    a, b, _ = spd_system(rng, 10)
    params = iterative.IterParams(m=4, scaling="normal", restart=True,
                                  max_iter=5000)
    trace = iterative.limited_memory_solve(a, b, params)
    assert np.linalg.norm(a @ trace.x - b) <= 1e-8 * np.linalg.norm(b)


def test_residual_history_export(tmp_path):
    rng = np.random.default_rng(16)
    a, b, _ = spd_system(rng, 5)
    params = iterative.IterParams(m=2, scaling="energy", max_iter=500)
    trace = iterative.limited_memory_solve(a, b, params)
    path = tmp_path / "history.tsv"
    trace.write_history(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(trace.residuals) + 1
    assert lines[0].split("\t")[:2] == ["iter", "residual"]


def test_gamma_floor_is_a_running_minimum():
    rng = np.random.default_rng(17)
    a, b, x = spd_system(rng, 7)
    params = iterative.IterParams(m=2, scaling="identity", max_iter=2000)
    trace = iterative.limited_memory_solve(a, b, params, x_star=x)
    gammas = [g for g in trace.gammas if g is not None]
    assert gammas
    assert all(0.0 < g <= 1.0 + 1e-12 for g in gammas)
    floors = trace.gamma_floor()
    assert floors[-1] == pytest.approx(min(gammas))
    assert all(floors[k + 1] <= floors[k] for k in range(len(floors) - 1))
