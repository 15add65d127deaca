"""End-to-end capability checks with one verdict line per target.

Each test guards one numbered capability at its stated tolerance and
records ``acceptance NN (...): PASS`` or ``FAIL``; the conftest hook
prints the tally after capture ends so it shows in any run. Budgets
(multiplies, storage, runtime) are measured, not estimated;
equivalences compare against independent oracles or dense library
baselines.
"""

import itertools
import time

import numpy as np

from absolve import (cli, core, diophantine, iterative, kt, matrixeq,
                     problems, strategies)
from absolve.errors import IntegerInconsistent, MaxIterReached

import conftest
import oracles


class _criterion:
    """Record the verdict line for one numbered check, pass or fail."""

    def __init__(self, num, desc):
        self.num = num
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"acceptance {self.num:02d} ({self.desc}): {verdict}"
        conftest.VERDICTS.append(line)
        # captured copy, surfaces next to the traceback on failure
        print(line)
        return False


def test_01_square_elimination_multiply_budget():
    with _criterion(1, "square elimination multiply budget"):
        p = problems.generate(problems.ProblemSpec(
            kind="determined", n=100, seed=42))
        t0 = time.perf_counter()
        rep = strategies.implicit_lu_solve(p.a, p.b)
        elapsed = time.perf_counter() - t0
        ratio = rep.mult_count / (100 ** 3 / 3)
        assert 0.95 <= ratio <= 1.10
        assert elapsed < 1.0
        assert np.linalg.norm(p.a @ rep.x - p.b) \
            <= 1e-8 * np.linalg.norm(p.b)


def test_02_packed_projector_storage_ceiling():
    with _criterion(2, "packed projector storage ceiling"):
        for n in (20, 50, 100):
            p = problems.generate(problems.ProblemSpec(
                kind="determined", n=n, seed=7))
            rep = strategies.implicit_lu_solve(p.a, p.b)
            assert rep.workspace.storage.peak <= n * n / 4 + n


def test_03_rank_detection_on_deficient_systems():
    with _criterion(3, "rank detection on deficient systems"):
        elapsed = 0.0
        for r in (2, 4, 50):
            p = problems.generate(problems.ProblemSpec(
                kind="determined", n=200, target_rank=r, seed=60 + r))
            t0 = time.perf_counter()
            rep = core.solve(p.a, p.b, strategy="mhuang")
            elapsed += time.perf_counter() - t0
            assert rep.rank == r
            assert rep.residual_norm <= 1e-10 * np.linalg.norm(p.b)
        assert elapsed < 5.0


class _RecordingHuang(strategies.HuangStrategy):
    """Huang choice that records the projector each update makes."""

    def begin(self, a):
        self.h_after = []

    def update_factors(self, i, state, s, p, den):
        u, v = super().update_factors(i, state, s, p, den)
        self.h_after.append(state.h - np.outer(u, v))
        return u, v


def test_04_null_space_and_triangular_factorization():
    with _criterion(4, "projector null space and triangular factors"):
        rng = np.random.default_rng(4)
        inverses_checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            a = rng.standard_normal((n, n))
            b = a @ rng.standard_normal(n)
            rec = _RecordingHuang()
            rep = core.solve(a, b, strategy=rec)
            a_norm = float(np.linalg.norm(a))

            # each updated projector annihilates every absorbed scaled row
            assert len(rec.h_after) == rep.rank
            assert np.array_equal(rec.h_after[-1], rep.state.h)
            scaled_rows = a.T @ rep.state.v_matrix(n)
            worst = 0.0
            for t, h in enumerate(rec.h_after):
                hit = h @ scaled_rows[:, :t + 1]
                worst = max(worst, float(
                    np.linalg.norm(hit, axis=0).max()))
            assert worst <= 1e-8 * a_norm

            if rep.rank < n:
                continue
            p_mat, l_mat, v_mat = core.implicit_factorization(rep)
            strict_upper = np.triu(l_mat, 1)
            l_scale = max(1.0, float(np.abs(l_mat).max()))
            assert np.abs(strict_upper).max() <= 1e-8 * l_scale

            if np.linalg.cond(a) < 1e6:
                recon = core.reconstruct_inverse(p_mat, l_mat, v_mat)
                direct = np.linalg.inv(a)
                err = np.linalg.norm(recon - direct) \
                    / np.linalg.norm(direct)
                assert err <= 1e-8
                inverses_checked += 1
        assert inverses_checked >= 950


def test_05_monotone_iterate_and_residual_norms():
    with _criterion(5, "monotone iterate and residual norms"):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((m, n))
            b = a @ rng.standard_normal(n)

            rep = core.solve(a, b, strategy="huang", keep_iterates=True)
            norms = [float(np.linalg.norm(x)) for x in rep.iterates]
            least_norm, *_ = np.linalg.lstsq(a, b, rcond=None)
            cap = float(np.linalg.norm(least_norm)) + 1e-10
            for k in range(len(norms) - 1):
                assert norms[k + 1] >= norms[k] - 1e-12
            assert all(v <= cap for v in norms)

        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(1, m + 1))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            rep = core.solve(a, b, strategy="iqr", keep_iterates=True)
            res = [float(np.linalg.norm(a @ x - b)) for x in rep.iterates]
            for k in range(len(res) - 1):
                assert res[k + 1] <= res[k] + 1e-10


def test_06_exhaustive_integer_decisions_and_box_coverage():
    with _criterion(6, "exhaustive integer decisions and box coverage"):
        t0 = time.perf_counter()
        grid = np.array(list(itertools.product(range(-4, 5), repeat=3)),
                        dtype=np.int64)
        vals = range(-2, 3)
        rhs_list = list(itertools.product(vals, repeat=2))
        consistent_seen = solvable_seen = 0
        for a_flat in itertools.product(vals, repeat=6):
            a = [list(a_flat[:3]), list(a_flat[3:])]
            prods = grid @ np.array(a, dtype=np.int64).T
            for b in rhs_list:
                consistent, solvable = oracles.system_status_2x3(a, b)
                if not consistent:
                    continue
                consistent_seen += 1
                try:
                    rep = diophantine.solve(a, list(b))
                except IntegerInconsistent:
                    assert not solvable
                    continue
                assert solvable
                solvable_seen += 1
                # exact arithmetic keeps the projector in plain ints; a
                # float sneaking into any step would contaminate it
                assert all(type(v) is int for row in rep.h for v in row)
                assert all(type(v) is int for v in rep.x)
                mask = (prods[:, 0] == b[0]) & (prods[:, 1] == b[1])
                expected = sorted(tuple(int(v) for v in row)
                                  for row in grid[mask])
                assert diophantine.solutions_in_box(rep, 4) == expected
        elapsed = time.perf_counter() - t0
        assert consistent_seen == 378393
        assert solvable_seen == 278249
        assert elapsed < 60.0


def test_07_saddle_point_cross_validation_and_stage_reuse():
    with _criterion(7, "saddle point cross-validation and stage reuse"):
        for k in range(50):
            m = (5, 15, 29)[k % 3]
            p = problems.generate(problems.ProblemSpec(
                kind="kt", n=30, m=m, seed=300 + k))
            base_p, base_z = kt.dense_baseline(p.kt_system)
            base = np.concatenate([base_p, base_z])
            scale = float(np.linalg.norm(base))

            solver = kt.KTSolver(p.kt_system)
            first_count = None
            for p_method in ("a1", "a2"):
                for z_method in ("b1", "b2"):
                    rep = solver.solve(p_method, z_method)
                    got = np.concatenate([rep.p, rep.z])
                    assert np.linalg.norm(got - base) <= 1e-6 * scale
                    if first_count is None:
                        first_count = rep.mult_count

            # a repeated first combination reuses the constraint stage
            again = solver.solve("a1", "b1")
            assert solver.c_stage_mults > 0
            assert first_count - again.mult_count == solver.c_stage_mults


def _truncated_trace(a, b, params, x_star=None):
    try:
        return iterative.limited_memory_solve(a, b, params, x_star=x_star)
    except MaxIterReached as exc:
        return exc.trace


def test_08_classical_single_equation_equivalences():
    with _criterion(8, "classical single-equation equivalences"):
        rng = np.random.default_rng(8)
        fac = rng.standard_normal((10, 10))
        a = fac @ fac.T + 10.0 * np.eye(10)
        b = a @ rng.standard_normal(10)

        trace = _truncated_trace(a, b, iterative.IterParams(
            m=1, scaling="energy", seed="cyclic", max_iter=25, rtol=0.0))
        want = oracles.gauss_seidel(a, b, np.zeros(10), 25)
        assert len(trace.iterates) == 26
        for got, ref in zip(trace.iterates[1:], want):
            assert np.abs(got - ref).max() <= 1e-12

        trace = _truncated_trace(a, b, iterative.IterParams(
            m=1, scaling="identity", seed="cyclic", max_iter=25, rtol=0.0))
        want = oracles.kaczmarz(a, b, np.zeros(10), 25)
        assert len(trace.iterates) == 26
        for got, ref in zip(trace.iterates[1:], want):
            assert np.abs(got - ref).max() <= 1e-12


def test_09_per_step_error_contraction_bound():
    with _criterion(9, "per-step error contraction bound"):
        rng = np.random.default_rng(9)
        for _ in range(20):
            fac = rng.standard_normal((15, 15))
            a = fac @ fac.T + 1.5 * np.eye(15)
            x_true = rng.standard_normal(15)
            b = a @ x_true
            for m in (1, 2, 5):
                for scaling in ("identity", "normal", "energy"):
                    trace = _truncated_trace(a, b, iterative.IterParams(
                        m=m, scaling=scaling), x_star=x_true)
                    y_cond = iterative.scaling_condition(a, scaling)
                    assert iterative.angle_contraction_check(trace, y_cond)


def test_10_matrix_equation_isomorphism_and_secant_updates():
    with _criterion(10, "matrix-space isomorphism and secant updates"):
        rng = np.random.default_rng(10)
        compared = 0
        for n in (1, 2, 3):
            for m in range(1, 10):
                for _ in range(3):
                    terms = [rng.standard_normal((n, n)) for _ in range(m)]
                    flat_a = np.array([t.ravel() for t in terms])
                    rhs = flat_a @ rng.standard_normal(n * n)
                    mat_rep = matrixeq.solve(
                        matrixeq.MatrixSystem(terms, rhs),
                        keep_iterates=True)
                    core_rep = core.solve(flat_a, rhs, strategy="huang",
                                          keep_iterates=True)
                    assert mat_rep.eq_status == core_rep.eq_status
                    assert mat_rep.rank == core_rep.rank
                    for mat_x, core_x in zip(mat_rep.iterates,
                                             core_rep.iterates):
                        assert np.abs(mat_x.ravel() - core_x).max() \
                            <= 1e-12
                    compared += 1
        assert compared == 81

        for _ in range(20):
            size = int(rng.integers(2, 6))
            delta = rng.standard_normal(size)
            r = rng.standard_normal(size)
            plain = matrixeq.quasi_newton_solve(delta, r)
            assert np.abs(plain @ delta - r).max() <= 1e-12
            sym = matrixeq.quasi_newton_solve(delta, r,
                                              constraints=("symmetry",))
            assert np.abs(sym @ delta - r).max() <= 1e-12
            assert np.array_equal(sym, sym.T)


def test_11_deflation_equivalence_and_multiply_ceiling():
    with _criterion(11, "direction deflation equivalence and ceiling"):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            a = rng.integers(-9, 10, size=(6, 6)).astype(float)
            for i in range(6):
                total = np.abs(a[i]).sum() - abs(a[i, i]) \
                    + float(rng.integers(1, 10))
                a[i, i] = total if rng.integers(0, 2) else -total
            b = rng.standard_normal(6)
            fast = strategies.gilu_solve(a, b, np.eye(6))
            slow = core.solve(a, b,
                              strategy=strategies.GiluStrategy(np.eye(6)))
            assert fast.rank == slow.rank == 6
            for p_fast, p_slow in zip(fast.state.p_cols,
                                      slow.state.p_cols):
                worst = max(worst, float(np.abs(p_fast - p_slow).max()))
            assert fast.mult_count <= 6 ** 3 + 6 * 6 ** 2
        assert worst <= 1e-10


def test_12_benchmark_determinism(tmp_path, capsys):
    with _criterion(12, "benchmark table determinism"):
        for suite, seed in (("determined", 3), ("kt", 5), ("dio", 2)):
            outputs = []
            for run in range(2):
                path = tmp_path / f"{suite}-{run}.txt"
                code = cli.main(["bench", "--suite", suite, "--seed",
                                 str(seed), "--out", str(path)])
                capsys.readouterr()
                assert code == cli.EXIT_OK
                outputs.append(path.read_bytes())
            assert outputs[0] == outputs[1]
            assert outputs[0].startswith(
                f"suite: {suite}  seed: {seed}\n".encode())
