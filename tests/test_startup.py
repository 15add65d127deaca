"""What a fresh process loads: ``scipy.linalg`` only where a triangular or
LU solve needs it.

Importing ``scipy.linalg`` takes several times as long as importing
absolve after numpy, so ``import absolve``, ``import absolve.cli``, every
``absolve solve`` but the ``kt`` ones that finish with ``b2`` and every
``absolve bench`` suite but ``kt`` leave it out; the rank-one update
takes its ``dgemm`` from the BLAS that numpy has loaded. Each check runs
in a fresh interpreter, since the test process has long imported SciPy.

``import absolve`` also leaves the environment as it finds it: the BLAS
thread count is the caller's to set before Python starts.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# the bench suites but kt, whose default methods finish with b2 too
SUITES = ("determined", "overdetermined", "underdetermined", "dio")

# the standard BLAS thread variables, which the fresh interpreter starts
# without
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# the solves, each on a system written by the generator: (method, kind, n)
SOLVES = [
    ("huang", "determined", 8), ("mhuang", "determined", 8),
    ("ilu", "determined", 8), ("iqr", "overdetermined", 6),
    ("gilu", "determined", 8), ("dio", "diophantine", 6),
    ("absm:m=3:y=normal", "determined", 8), ("kt:a1b1", "kt", 8),
]

SCRIPT = r"""
import contextlib, json, os, sys
sys.path.insert(0, sys.argv[1])
loaded = lambda: "scipy.linalg" in sys.modules
out = {}
before = dict(os.environ)
import absolve
out["import absolve"] = loaded()
out["environ changes"] = sorted(
    k for k in before.keys() | os.environ.keys()
    if before.get(k) != os.environ.get(k))
import absolve.cli
out["import absolve.cli"] = loaded()
from absolve import cli, core, kt, matfile, problems
for method, kind, n in json.loads(sys.argv[2]):
    p = problems.generate(problems.ProblemSpec(kind=kind, n=n, seed=n))
    mat = os.path.join(sys.argv[3], f"{kind}-a.txt")
    rhs = os.path.join(sys.argv[3], f"{kind}-b.txt")
    ints = kind == "diophantine"
    matfile.write_matrix(mat, p.a_int if ints else p.a,
                         kind="integer" if ints else "real")
    matfile.write_matrix(rhs, p.b_int if ints else p.b,
                         kind="integer" if ints else "real")
    argv = ["solve", mat, rhs, "--method", method]
    if p.kt_m is not None:
        argv += ["--kt-m", str(p.kt_m)]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    out[f"solve {method}"] = [code, loaded()]
for suite in json.loads(sys.argv[4]):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(["bench", "--suite", suite, "--sizes", "8"])
    out[f"bench {suite}"] = [code, loaded()]
# the three calls that need scipy.linalg import it where they run
import numpy as np
p = problems.generate(problems.ProblemSpec(kind="kt", n=8, seed=8))
out["kt:a2b2 residual"] = kt.solve(p.kt_system, "a2", "b2").residual_norm
out["dense_baseline error"] = float(np.abs(
    np.concatenate(kt.dense_baseline(p.kt_system)) - p.x_true).max())
d = problems.generate(problems.ProblemSpec(kind="determined", n=6, seed=6))
inv = core.reconstruct_inverse(*core.implicit_factorization(
    core.solve(d.a, d.b)))
out["reconstruct_inverse error"] = float(np.abs(inv @ d.a
                                                - np.eye(6)).max())
out["loaded at the end"] = loaded()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    # the variable that older versions copied into the four BLAS ones
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["ABS_SOLVE_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, SRC, json.dumps(SOLVES),
         str(tmp_path_factory.mktemp("startup")), json.dumps(SUITES)],
        capture_output=True, text=True, check=True, timeout=300, env=env)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", ("absolve", "absolve.cli"))
def test_import_leaves_scipy_linalg_out(fresh, module):
    assert fresh[f"import {module}"] is False


def test_import_leaves_the_environment_alone(fresh):
    assert fresh["environ changes"] == []


@pytest.mark.parametrize("method", [method for method, _, _ in SOLVES])
def test_solve_leaves_scipy_linalg_out(fresh, method):
    code, loaded = fresh[f"solve {method}"]
    assert code == 0
    assert loaded is False


@pytest.mark.parametrize("suite", SUITES)
def test_bench_leaves_scipy_linalg_out(fresh, suite):
    assert fresh[f"bench {suite}"] == [0, False]


def test_the_calls_that_need_scipy_linalg_still_work(fresh):
    assert fresh["kt:a2b2 residual"] < 1e-6
    assert fresh["dense_baseline error"] < 1e-6
    assert fresh["reconstruct_inverse error"] < 1e-10
    assert fresh["loaded at the end"] is True
