"""Compare two source checkouts of absolve and record the result.

    python tools/bench_compare.py pairs  --parent P --change C --out B.json
    python tools/bench_compare.py trace  --parent P --change C --out B.json \
        [--workload W]
    python tools/bench_compare.py kernel --parent P --change C --out B.json

Each checkout is a directory with ``src/``, ``perfbench/`` and
``BENCHMARK.json`` (for example ``git archive <commit> | tar -x -C DIR``).
Every subcommand updates its own section of the output JSON file, and
its ``environment`` record, and leaves the others as they are.

* ``pairs`` runs ``perfbench/run.py`` on every workload of
  ``BENCHMARK.json`` for both checkouts, in pairs that alternate which
  side runs first, and records every run, each side's median and
  quartiles, the pairs the change wins, and whether a gain can be
  claimed (wins in at least nine tenths of the pairs and medians further
  apart than the parent's interquartile range).
* ``trace`` makes traced runs of one workload (``--workload``, by
  default ``dense-large``), in pairs that alternate the checkouts, and
  records every run's per-layer metrics and each side's medians. Every
  run of ``pairs`` and ``trace`` lasts ``BENCHMARK.json``'s
  ``run_seconds``.
* ``kernel`` times the packed ``implicit_lu_solve``, the engine's
  ``ilu``, ``ilx``, ``huang``, ``mhuang`` and ``iqr`` strategies,
  ``gilu_solve`` with unit seeds, ``numpy.linalg.solve``, and one
  rank-one update with the -0 fact as the engine and ``gilu_solve`` make
  it inside a run: on an n x n matrix (``u = b``, ``v = a[0]``) and on
  its trailing n x (n/2) column slice, each bound once
  (``core._BoundUpdate``), as the solvers bind them. The systems are
  regular with n=100, 150, 200, 300 and 600: at the three smaller sizes
  per-step dispatch weighs most. Under the key ``dio`` it times the exact integer layer: ``bezout_gcd`` over every
  certificate row that ``diophantine.solve`` meets on three n=16
  ``kind="diophantine"`` systems, ``diophantine.solve`` on one system
  each at n=8, 12 and 16, and ``solutions_in_box`` on a 3x5 system at
  radius 3. Under the key ``kt`` it times, on the generated KT systems
  with n=100 and 150, one ``KTSolver`` running the four stage pairs and
  the four one-shot ``kt.solve`` calls, and each engine run inside the
  solver's four pairs, in the order they run (``KT_STAGES``: the
  constraint stage, ``a1``, the first ``b1``, ``a2`` and the second
  ``b1``, which resumes the first and steps no row), by wrapping
  ``core.solve``, and ``core.replay`` in an older checkout that replays
  the second ``b1`` with it. Under the key ``overdetermined`` it times the
  engine's ``huang``, ``mhuang`` and ``iqr`` on the generated
  overdetermined systems with n=100 and 200 (2n x n), whose second n
  rows come after the n-th pivot. The runs are in fresh
  interpreters that alternate between the checkouts; each figure is the
  fastest of a few repeats after a warm-up call. Besides each side's
  median, fastest and slowest process, the summary records under
  ``wins``, for each size and solver, in how many of the back-to-back
  process pairs the change was faster, so a kernel comparison can be
  read by the nine-in-ten rule of ``pairs``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

THREAD_VARS = ("ABS_SOLVE_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# the default workload of the traced runs
TRACE_WORKLOAD = "dense-large"

# the kernel timings: system sizes, fresh interpreters per checkout, timed
# repeats per solver after one warm-up call
KERNEL_SIZES = (100, 150, 200, 300, 600)
KERNEL_PROCESSES = 10
KERNEL_REPEATS = 3
KERNEL = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from absolve import core, diophantine, kt, problems, strategies

solvers = {
    "packed_ilu_s": strategies.implicit_lu_solve,
    "engine_ilu_s": lambda a, b: core.solve(a, b, strategy="ilu"),
    "engine_ilx_s": lambda a, b: core.solve(a, b, strategy="ilx"),
    "huang_s": lambda a, b: core.solve(a, b, strategy="huang"),
    "mhuang_s": lambda a, b: core.solve(a, b, strategy="mhuang"),
    "iqr_s": lambda a, b: core.solve(a, b, strategy="iqr"),
    "gilu_s": lambda a, b: strategies.gilu_solve(a, b, np.eye(len(b))),
    "lapack_s": np.linalg.solve,
    "subtract_outer_s": lambda a, b: update(b, a[0]),
    "subtract_outer_slice_s": lambda a, b: update_tail(
        b, a[0, :tail.shape[1]]),
}


def best_of(call):
    call()
    times = []
    for _ in range(int(sys.argv[3])):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return min(times)


out = {}
for n in map(int, sys.argv[2].split(",")):
    p = problems.generate(problems.ProblemSpec(kind="determined", n=n,
                                               seed=n))
    work = p.a.copy()
    # the trailing n x (n/2) column slice, as gilu_solve deflates it
    tail = work[:, n - n // 2:]
    # the updates with the -0 fact, as a run of the solvers binds them
    update = core._BoundUpdate(work, True)
    update_tail = core._BoundUpdate(tail, True)
    out[str(n)] = {name: best_of(lambda: solve(p.a, p.b))
                   for name, solve in solvers.items()}


def dio_system(n, seed):
    p = problems.generate(problems.ProblemSpec(kind="diophantine", n=n,
                                               seed=seed))
    return p.a_int, p.b_int


# the certificate rows: every s that solve hands to bezout_gcd
rows, bezout = [], diophantine.bezout_gcd
diophantine.bezout_gcd = lambda s: rows.append(list(s)) or bezout(s)
for seed in (16, 17, 18):
    diophantine.solve(*dio_system(16, seed))
diophantine.bezout_gcd = bezout
dio = out["dio"] = {"bezout_gcd_n16_s": best_of(
    lambda: [bezout(s) for s in rows])}
for n in (8, 12, 16):
    system = dio_system(n, n)
    dio[f"solve_n{n}_s"] = best_of(lambda: diophantine.solve(*system))
box = diophantine.solve([[-2, 1, -1, 2, 2], [1, 0, -1, -2, 0],
                         [-1, 2, 2, -2, 2]], [1, 4, 0])
dio["box_3x5_s"] = best_of(lambda: diophantine.solutions_in_box(box, 3))

pairs = [(p, z) for p in kt.P_METHODS for z in kt.Z_METHODS]
# the engine runs of one solver's four pairs, in the order they run
KT_STAGES = ("constraint", "a1", "b1", "a2", "b1_again")


def kt_solver_pairs(system):
    solver = kt.KTSolver(system)
    return [solver.solve(*pair) for pair in pairs]


# the seconds of each engine run of one solver's four pairs
def kt_stage_seconds(system):
    seconds = []

    def timed(engine):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return engine(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - t0)
        return call

    engines = {name: getattr(core, name) for name in ("solve", "replay")
               if hasattr(core, name)}
    for name, engine in engines.items():
        setattr(core, name, timed(engine))
    try:
        kt_solver_pairs(system)
    finally:
        for name, engine in engines.items():
            setattr(core, name, engine)
    return seconds


out["kt"] = {}
for n in (100, 150):
    system = problems.generate(problems.ProblemSpec(kind="kt", n=n,
                                                    seed=n)).kt_system
    out["kt"][f"solver_n{n}_s"] = best_of(lambda: kt_solver_pairs(system))
    out["kt"][f"one_shot_n{n}_s"] = best_of(
        lambda: [kt.solve(system, *pair) for pair in pairs])
    # a warm-up, then the fastest of each run over the repeats
    stages = [kt_stage_seconds(system)
              for _ in range(int(sys.argv[3]) + 1)][1:]
    for k, stage in enumerate(KT_STAGES):
        out["kt"][f"stage_{stage}_n{n}_s"] = min(run[k] for run in stages)

# 2n x n systems: rows n..2n-1 come after the n-th pivot
over = out["overdetermined"] = {}
for n in (100, 200):
    p = problems.generate(problems.ProblemSpec(kind="overdetermined", n=n,
                                               seed=n))
    for name in ("huang", "mhuang", "iqr"):
        over[f"{name}_n{n}_s"] = best_of(
            lambda: core.solve(p.a, p.b, strategy=name))
print(json.dumps(out))
"""


def single_thread_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_bench(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=single_thread_env(), check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(spec, runs):
    """Per workload and metric: both sides' quartiles and the pair wins."""
    out = {}
    for workload, pairs in runs.items():
        rows = out[workload] = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            par = [p["parent"]["metrics"][name] for p in pairs]
            chg = [p["change"]["metrics"][name] for p in pairs]
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(par, chg))
            qp, qc = quartiles(par), quartiles(chg)
            iqr = qp["q3"] - qp["q1"]
            change = (qc["median"] - qp["median"]) / qp["median"]
            rows[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "parent": qp, "change": qc,
                "parent_iqr_over_median": iqr / qp["median"],
                "median_change": change,
                "worse_than_bound": (change if lower else -change)
                > metric["bound"],
                "wins": wins, "pairs": len(pairs),
                "gain_claimable": wins >= 0.9 * len(pairs)
                and abs(qc["median"] - qp["median"]) > iqr,
            }
        rows["fail_frac"] = {
            side: sum(p[side]["failed"] for p in pairs)
            / sum(p[side]["attempted"] for p in pairs)
            for side in ("parent", "change")}
    return out


def environment():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": os.cpu_count(),
            "platform": platform.platform(), "blas_threads": 1}


def update(path, key, value):
    data = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data[key] = value
    data["environment"] = environment()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def cmd_pairs(args, sides, spec):
    runs = {w["name"]: [] for w in spec["workloads"]}
    for k in range(args.pairs):
        order = sides if k % 2 == 0 else sides[::-1]
        for workload, pairs in runs.items():
            pair = {"seed": args.seed + k, "first": order[0][0]}
            for label, checkout in order:
                pair[label] = run_bench(checkout, workload, args.seed + k,
                                        spec["run_seconds"], 0)
            pairs.append(pair)
            print(f"pair {k} {workload}: " + json.dumps(
                {s: pair[s]["metrics"] for s in ("parent", "change")}),
                flush=True)
    update(args.out, "end_to_end", {
        "run_seconds": spec["run_seconds"], "pairs": args.pairs,
        "summary": summarize(spec, runs), "runs": runs})


def cmd_trace(args, sides, spec):
    runs = {label: [] for label, _ in sides}
    for k in range(args.pairs):
        for label, checkout in (sides if k % 2 == 0 else sides[::-1]):
            runs[label].append(run_bench(checkout, args.workload,
                                         args.seed + k, spec["run_seconds"],
                                         1)["metrics"])
    median = {label: {name: statistics.median(r[name] for r in rs)
                      for name in rs[0]}
              for label, rs in runs.items()}
    update(args.out, "trace", {"workload": args.workload,
                               "pairs": args.pairs, "median": median,
                               "runs": runs})


def cmd_kernel(args, sides, spec):
    runs = {label: [] for label, _ in sides}
    for k in range(KERNEL_PROCESSES):
        for label, checkout in (sides if k % 2 == 0 else sides[::-1]):
            proc = subprocess.run(
                [sys.executable, "-c", KERNEL,
                 os.path.join(os.path.abspath(checkout), "src"),
                 ",".join(map(str, KERNEL_SIZES)), str(KERNEL_REPEATS)],
                capture_output=True, text=True, env=single_thread_env(),
                check=True)
            runs[label].append(json.loads(proc.stdout))
    summary = {}
    for label, procs in runs.items():
        summary[label] = {
            n: {name: {"median": statistics.median(p[n][name]
                                                   for p in procs),
                       "min": min(p[n][name] for p in procs),
                       "max": max(p[n][name] for p in procs)}
                for name in procs[0][n]}
            for n in procs[0]}
    # process k of each side ran back to back: one pair
    pairs = list(zip(runs["parent"], runs["change"]))
    summary["wins"] = {
        n: {name: sum(c[n][name] < p[n][name] for p, c in pairs)
            for name in names}
        for n, names in pairs[0][0].items()}
    update(args.out, "kernel", {"processes": KERNEL_PROCESSES,
                                "repeats": KERNEL_REPEATS,
                                "summary": summary, "runs": runs})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=("pairs", "trace", "kernel"))
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=601)
    parser.add_argument("--workload", default=TRACE_WORKLOAD,
                        help="workload of the traced runs (trace only)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    with open(os.path.join(args.parent, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    sides = [("parent", args.parent), ("change", args.change)]
    {"pairs": cmd_pairs, "trace": cmd_trace,
     "kernel": cmd_kernel}[args.command](args, sides, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
