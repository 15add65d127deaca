"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

For every workload this makes two traced runs on the same seed, in separate
processes, and asserts that

* every unit passes its check,
* every count-valued per-layer metric (multiply counts among them) repeats
  exactly from run to run,
* per unit, the self times of the spans add up to the root span,
* the layer shares that justify each workload hold: core and strategies do
  most of the timed work in dense-large, problems.generate in bench-suite
  and diophantine in small-calls, and each of them does little in some
  other workload.

Multiply counts that absolve does not produce yet (``dio`` and ``absm``
report 0) are printed as a known gap, not treated as a failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3
WORKLOADS = ("dense-large", "bench-suite", "small-calls")
# a layer "does little" in a workload when it takes under a fifth of its
# time; core+strategies take about a tenth of bench-suite and of
# small-calls, and their share of bench-suite moves by a few hundredths
# with the machine's load
LITTLE = 0.2


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def share(metrics, *layers):
    return sum(metrics[f"share.{layer}"]["value"] for layer in layers)


def known_gap():
    """Methods whose multiply count absolve still reports as 0."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from absolve import problems
    p = problems.generate(problems.ProblemSpec(kind="diophantine", n=4,
                                               seed=1))
    gaps = []
    for method in ("dio", "absm:m=3:y=normal"):
        _, _, mults = problems.run_method(method, p.a, p.b, a_int=p.a_int,
                                          b_int=p.b_int)
        if mults == 0:
            gaps.append(method)
    return gaps


def main():
    runs = {}
    for workload in WORKLOADS:
        first, second = traced_run(workload), traced_run(workload)
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0, result
        m1, m2 = first["metrics"], second["metrics"]
        counts = sorted(k for k, v in m1.items()
                        if v["unit"] in ("count", "bytes"))
        differ = [k for k in counts if m1[k]["value"] != m2[k]["value"]]
        assert not differ, f"{workload}: counts differ between runs: " \
                           f"{[(k, m1[k], m2[k]) for k in differ]}"
        gap = m1["trace.self_sum_gap_s"]["value"]
        assert gap < 1e-9, f"{workload}: self times miss the root by {gap}"
        runs[workload] = m1
        print(f"{workload}: {len(counts)} counts repeat exactly "
              f"(core.mults {m1['core.mults']['value']:.0f}, "
              f"strategies.mults {m1['strategies.mults']['value']:.0f}, "
              f"kt.mults {m1['kt.mults']['value']:.0f})")

    engine = {w: share(m, "core", "strategies") for w, m in runs.items()}
    generate = {w: m["problems.generate_share"]["value"]
                for w, m in runs.items()}
    exact = {w: share(m, "diophantine") for w, m in runs.items()}
    for label, shares, home in (("core+strategies", engine, "dense-large"),
                                ("problems.generate", generate,
                                 "bench-suite"),
                                ("diophantine", exact, "small-calls")):
        print(f"{label} share: " + ", ".join(
            f"{w} {s:.3f}" for w, s in shares.items()))
        assert shares[home] > 0.5, f"{label} is not most of {home}"
        assert min(shares.values()) < LITTLE, f"{label} is large everywhere"

    gaps = known_gap()
    if gaps:
        print("known gap: absolve reports 0 multiplies for "
              + ", ".join(gaps))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
