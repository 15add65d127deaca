"""The kernel timing script of ``tools/bench_compare.py`` runs on this
checkout: it reaches into private names of the package, so a rename
must show here rather than in a comparison run."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_compare():
    path = os.path.join(ROOT, "tools", "bench_compare.py")
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_script_times_every_solver_on_this_checkout():
    tool = _bench_compare()
    proc = subprocess.run(
        [sys.executable, "-c", tool.KERNEL, os.path.join(ROOT, "src"), "8",
         "1"],
        capture_output=True, text=True, env=tool.single_thread_env(),
        check=True, timeout=300)
    out = json.loads(proc.stdout)
    assert set(out) == {"8", "dio", "kt", "overdetermined"}
    assert set(out["8"]) == {
        "packed_ilu_s", "engine_ilu_s", "engine_ilx_s", "huang_s",
        "mhuang_s", "iqr_s", "gilu_s", "lapack_s", "subtract_outer_s",
        "subtract_outer_slice_s"}
    assert set(out["dio"]) == {"bezout_gcd_n16_s", "solve_n8_s",
                               "solve_n12_s", "solve_n16_s", "box_3x5_s"}
    assert set(out["kt"]) == {
        "solver_n100_s", "one_shot_n100_s", "solver_n150_s",
        "one_shot_n150_s",
        *(f"stage_{stage}_n{n}_s" for n in (100, 150)
          for stage in ("constraint", "a1", "b1", "a2", "b1_again"))}
    assert set(out["overdetermined"]) == {
        f"{name}_n{n}_s" for n in (100, 200)
        for name in ("huang", "mhuang", "iqr")}
    for section in out.values():
        assert all(isinstance(t, float) and t >= 0.0
                   for t in section.values())
