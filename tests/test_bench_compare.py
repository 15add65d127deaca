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
    assert set(out) == {"8", "dio", "kt", "overdetermined", "startup"}
    assert set(out["8"]) == {
        "packed_ilu_s", "engine_ilu_s", "engine_ilx_s", "huang_s",
        "mhuang_s", "iqr_s", "gilu_s", "lapack_s", "subtract_outer_s",
        "subtract_outer_slice_s"}
    assert set(out["dio"]) == {"bezout_gcd_n16_s", "solve_n8_s",
                               "solve_n12_s", "solve_n16_s", "solve_n32_s",
                               "box_3x5_s"}
    assert set(out["kt"]) == {
        "solver_n100_s", "one_shot_n100_s", "solver_n150_s",
        "one_shot_n150_s",
        *(f"stage_{stage}_n{n}_s" for n in (100, 150)
          for stage in ("constraint", "a1", "b1", "a2", "b1_again"))}
    assert set(out["overdetermined"]) == {
        f"{name}_n{n}_s" for n in (100, 200)
        for name in ("huang", "mhuang", "iqr")}
    assert set(out["startup"]) == {"import_cli_s", "solve_process_s"}
    for section in out.values():
        assert all(isinstance(t, float) and t >= 0.0
                   for t in section.values())


def _run(attempted, failed):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {}}


def test_fail_frac_reads_a_failing_unit_alike_at_any_speed():
    # one unit in ten fails in every cycle at the first two seeds and in
    # none at the third; the change runs more cycles, and more so at the
    # third seed, so shares pooled over the pairs would differ
    runs = {"w": [
        {"parent": _run(400, 40), "change": _run(500, 50)},
        {"parent": _run(300, 30), "change": _run(600, 60)},
        {"parent": _run(400, 0), "change": _run(900, 0)}]}
    summary = _bench_compare().summarize({"end_to_end": []}, runs)
    assert summary["w"]["fail_frac"] == {"parent": 0.1, "change": 0.1}
