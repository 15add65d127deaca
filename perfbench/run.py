"""absolve benchmark: one seeded workload per process.

    python3 perfbench/run.py --workload dense-large --seed 1 --seconds 40 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` and the metric names and units come from ``BENCHMARK.json``.  Each
workload is a closed loop with one caller: the next unit of work starts only
after the previous one has finished.  BLAS runs on one thread
(``ABS_SOLVE_THREADS=1`` and the BLAS thread variables are set before numpy
is first imported).

Phases:

* set-up: imports, one cold warm-up call of every code path, then the
  inputs are built from the seed three times.  ``setup_s`` is the median
  import time (this process and two fresh interpreters), plus the warm-up,
  plus the median input build.
* timed phase: whole cycles of the workload's units until the next cycle
  would overrun ``--seconds``.  A cycle may run a cheap unit several times,
  spread over the cycle, so that it gets more repeats in a run.
* checks: every unit's first result is verified, later repeats must
  reproduce it exactly; workload-level checks run once.

Units are deterministic, so the spread between the repeats of one unit is
interference from other tenants of the machine, which only ever adds time.
Each unit's latency is therefore its fastest repeat in the run, and the
end-to-end figures are taken over all runs at those latencies:
``systems_per_s`` is the distinct units of one cycle over the sum of their
latencies, ``solve_p50_s`` and ``solve_tail_s`` are percentiles.  The raw
figures (units per second of the timed phase, percentiles of every run as
measured) are written next to them in ``perfbench/out``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` cycles alternate between traced and untraced; the
traced ones give the per-layer metrics (the median over traced cycles of
each metric's value per cycle) and, against the untraced ones, the tracing
overhead.  The spans are written to ``perfbench/out``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

THREAD_VARS = ("ABS_SOLVE_THREADS", "OMP_NUM_THREADS",
               "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT = "import numpy, workloads, spans"

# The tail is the highest of these percentiles with at least ten runs
# beyond it.  Each workload fixes its own from this grid (``TAIL``), so
# that a faster commit, which completes more units, is compared at the same
# percentile; a run too short for it falls back down the grid.
TAIL_GRID = (99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values, wanted):
    """(percentile, value, runs beyond it) for the workload's tail."""
    n = len(sorted_values)
    for q in TAIL_GRID:
        beyond = n - max(1, math.ceil(q / 100.0 * n))
        if q <= wanted and beyond >= 10:
            return q, percentile(sorted_values, q), beyond
    return 50.0, percentile(sorted_values, 50.0), n // 2


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ABS_SOLVE_THREADS": os.environ.get("ABS_SOLVE_THREADS"),
        "platform": platform.platform(),
    }


def fresh_import_s():
    """Import time measured in a fresh interpreter."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            f"t = time.perf_counter(); {IMPORT}; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(proc.stdout)


class Loop:
    """Closed-loop timed phase over whole cycles of units."""

    def __init__(self, units, fingerprint, tracer=None):
        # a unit may appear several times in a cycle; two different units
        # may not share a key
        distinct = {id(unit): unit.key for unit in units}
        keys = list(distinct.values())
        if len(set(keys)) != len(keys):
            raise ValueError("different units share a key")
        self.units = units
        self.fingerprint = fingerprint
        self.tracer = tracer
        self.times = {key: [] for key in keys}
        self.cycle_times = []
        self.traced_cycles = []
        self.first = {}
        self.bad = {}
        self.failures = {}

    def run(self, seconds):
        min_cycles = 2 if self.tracer else 1
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None \
                and len(self.cycle_times) % 2 == 0
            c0 = time.perf_counter()
            if traced:
                self.tracer.install()
            try:
                self._cycle(traced)
            finally:
                if traced:
                    self.tracer.uninstall()
            self.cycle_times.append(time.perf_counter() - c0)
            self.traced_cycles.append(traced)
            elapsed = time.perf_counter() - start
            mean = elapsed / len(self.cycle_times)
            if len(self.cycle_times) >= min_cycles \
                    and elapsed + mean > seconds:
                return elapsed

    def _cycle(self, traced):
        tracer = self.tracer
        base = len(self.cycle_times) * len(self.units)
        for uid, unit in enumerate(self.units):
            if traced:
                tracer.unit = base + uid
                root = tracer.open("unit")
            t0 = time.perf_counter()
            try:
                result = unit.call()
                error = None
            except Exception as exc:  # an unexpected error fails the unit
                result = None
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if traced:
                tracer.close(root)
            self.times[unit.key].append(t1 - t0)
            if error is not None:
                self.fail(unit.key, error)
                continue
            digest = self.fingerprint(result)
            if unit.key not in self.first:
                self.first[unit.key] = (digest, result, unit)
            elif self.first[unit.key][0] != digest:
                self.fail(unit.key, "result differs from the first run")

    def fail(self, key, reason):
        self.bad[key] = self.bad.get(key, 0) + 1
        self.failures.setdefault(key, reason)

    def verify(self):
        """Check each unit's first result; a bad one fails all its runs."""
        for key, (_, result, unit) in self.first.items():
            reason = unit.check(result)
            if reason is not None:
                self.bad[key] = len(self.times[key])
                self.failures.setdefault(key, reason)

    @property
    def runs(self):
        return sum(len(v) for v in self.times.values())

    @property
    def failed(self):
        return sum(self.bad.values())


def timing_figures(loop, phase_s, tail_wanted):
    """End-to-end timing figures: at fastest repeats, and as measured."""
    best = {key: min(v) for key, v in loop.times.items()}
    at_best = sorted(best[key] for key, v in loop.times.items() for _ in v)
    raw = sorted(t for v in loop.times.values() for t in v)
    tail_q, tail_v, beyond = tail(at_best, tail_wanted)
    bad_runs = sum(n for key, n in loop.bad.items() if key in loop.times)
    verified = sum(1 for key in best if key not in loop.bad)
    return {
        "systems_per_s": verified / sum(best.values()),
        "solve_p50_s": percentile(at_best, 50.0),
        "solve_tail_s": tail_v,
        "tail_percentile": tail_q,
        "tail_runs_beyond": beyond,
        "raw_systems_per_s": (loop.runs - bad_runs) / phase_s,
        "raw_solve_p50_s": percentile(raw, 50.0),
        "raw_solve_tail_s": percentile(raw, tail_q),
    }


def layer_figures(loop, tracer, workload, tracing):
    """Per-layer metrics: the median over traced cycles of each value."""
    per_unit = len(loop.units)
    cycles = {}
    for idx, span in enumerate(tracer.spans):
        cycles.setdefault(span.unit // per_unit, []).append(idx)
    own = tracing.self_times(tracer.spans)
    values = {}
    for members in cycles.values():
        for name, value in tracing.layer_metrics(tracer.spans, own,
                                                 members).items():
            values.setdefault(name, []).append(value)
    layers = {name: statistics.median(v + [0] * (len(cycles) - len(v)))
              for name, v in values.items()}
    traced = [t for t, on in zip(loop.cycle_times, loop.traced_cycles) if on]
    plain = [t for t, on in zip(loop.cycle_times, loop.traced_cycles)
             if not on]
    layers["lapack.solve_s"] = workload.lapack_cycle_s()
    layers["trace.overhead_frac"] = min(traced) / min(plain) - 1.0
    gap, checked = tracing.self_time_closure(tracer.spans)
    layers["trace.self_sum_gap_s"] = gap
    return layers, checked


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "absolve", "__init__.py")):
        print(f"perfbench: no absolve package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (imported first, inside the timed import)
    import workloads
    import spans as tracing
    imports = [time.perf_counter() - t0]

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(why)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)

    t0 = time.perf_counter()
    workload.warm_up()
    warm_s = time.perf_counter() - t0
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        units = workload.prepare()
        builds.append(time.perf_counter() - t0)
    imports += [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(imports) + warm_s + statistics.median(builds)

    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(units, workloads.fingerprint, tracer)
    phase_s = loop.run(args.seconds)
    loop.verify()
    extra = workload.after()
    for name, error in extra:
        if error is not None:
            loop.fail(name, error)
    attempted = loop.runs + len(extra)

    figures = timing_figures(loop, phase_s, workload.TAIL)
    figures["setup_s"] = setup_s
    figures["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fail_frac = loop.failed / attempted
    record = {
        "workload": workload.name, "why": why[workload.name],
        "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "setup": {"import_s": imports, "warm_up_s": warm_s,
                  "input_builds_s": builds},
        "timed_phase_s": phase_s, "cycles": len(loop.cycle_times),
        "units_per_cycle": len(loop.times),
        "runs_per_cycle": len(loop.units), "runs": loop.runs,
        "figures": figures, "fail_frac": fail_frac,
        "attempted": attempted, "failed": loop.failed,
        "failures": loop.failures, "unit_times_s": loop.times,
    }

    print(f"workload {workload.name} seed {args.seed}: {why[workload.name]}")
    print("environment " + json.dumps(record["environment"]))
    print("setup: import " + ", ".join(f"{t:.3f}" for t in imports)
          + f" s, warm-up {warm_s:.3f} s, input builds "
          + ", ".join(f"{t:.3f}" for t in builds) + " s")
    print(f"timed phase {phase_s:.3f} s: {len(loop.cycle_times)} cycles of "
          f"{len(loop.units)} runs of {len(loop.times)} units, "
          f"{loop.runs} runs; as measured "
          f"{figures['raw_systems_per_s']:.6g} units/s, p50 "
          f"{figures['raw_solve_p50_s']:.6g} s, "
          f"p{figures['tail_percentile']:g} "
          f"{figures['raw_solve_tail_s']:.6g} s")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        note = ""
        if name == "solve_tail_s":
            note = (f"  (p{figures['tail_percentile']:g} of {loop.runs} "
                    f"runs, {figures['tail_runs_beyond']} beyond)")
        print(f"  {name:<14} {figures[name]:.6g} {metric['unit']}{note}")
    print(f"  {'fail_frac':<14} {fail_frac:.6g} 1  "
          f"({loop.failed} failed of {attempted} attempted)")
    for key, reason in sorted(loop.failures.items())[:10]:
        print(f"  FAILED {key}: {reason}")

    if tracer is not None:
        layers, checked = layer_figures(loop, tracer, workload, tracing)
        spans_path = os.path.join(
            OUT, f"{workload.name}-seed{args.seed}.spans.tsv")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(spans_path, ROOT)}; per unit the self "
              f"times add up to the root span within "
              f"{layers['trace.self_sum_gap_s']:.3g} s ({checked} units)")
        chosen, values = spec["per_layer"], layers
        record["per_layer"] = layers
    else:
        chosen, values = spec["end_to_end"], figures
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in chosen}
    if tracer is not None:
        for name, metric in metrics.items():
            print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")

    with open(os.path.join(OUT, f"{workload.name}-seed{args.seed}-"
                                f"trace{args.trace}.json"), "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": loop.failed == 0, "attempted": attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
