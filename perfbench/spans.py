"""Spans around the public entry points of each absolve module.

The benchmark measures the layers from outside the package: while a
:class:`Tracer` is installed, the entry points listed in ``ENTRY_POINTS``
are replaced by wrappers that record one span per call (name, start, end,
parent span, unit id, plus a few counts read from the call's result).
Module attributes are replaced, so calls that one absolve module makes into
another (``problems.run_method`` -> ``core.solve``, ``kt`` -> ``core.solve``,
``cli`` -> ``matfile``) are recorded as nested spans.  Spans stay in memory
and are written out when the run ends.

Self time is a span's duration minus the durations of its direct children;
per unit, the self times of all its spans add up to the root span.
"""

import os
import time
import weakref

from absolve import (cli, core, diophantine, iterative, kt, matfile,
                     matrixeq, problems, strategies)
from absolve.errors import (IncompatibleSystem, IntegerInconsistent,
                            StrategyBreakdown)

ROOT = "unit"


def _core_counter(args, kwargs):
    counter = kwargs.get("counter", args[6] if len(args) > 6 else None)
    return counter.mults if counter is not None else 0


def _core_attrs(result, before, args, kwargs):
    # a caller-supplied counter (the KT stages pass one) already holds the
    # caller's earlier multiplies; the call's own share is the difference
    return {"mults": result.mult_count - before,
            "redundant": result.eq_status.count(core.REDUNDANT)}


def _mults(result, before, args, kwargs):
    return {"mults": result.mult_count}


def _box_points(result, before, args, kwargs):
    return {"points": len(result)}


def _steps(result, before, args, kwargs):
    return {"steps": result.steps}


def _bytes_read(result, before, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _exit_code(result, before, args, kwargs):
    return {"exit": result}


# (owner, attribute, span name, counts read from the result)
ENTRY_POINTS = (
    (problems, "generate", "problems.generate", None),
    (problems, "evaluate", "problems.evaluate", None),
    (problems, "run_method", "problems.run_method", None),
    (core, "solve", "core.solve", _core_attrs),
    (strategies, "implicit_lu_solve", "strategies.implicit_lu_solve",
     _mults),
    (strategies, "gilu_solve", "strategies.gilu_solve", _mults),
    (kt, "solve", "kt.solve", None),
    (kt.KTSolver, "solve", "kt.KTSolver.solve", _mults),
    (diophantine, "solve", "diophantine.solve", None),
    (diophantine, "solutions_in_box", "diophantine.solutions_in_box",
     _box_points),
    (iterative, "limited_memory_solve", "iterative.limited_memory_solve",
     _steps),
    (matrixeq, "solve", "matrixeq.solve", None),
    (matrixeq, "quasi_newton_solve", "matrixeq.quasi_newton_solve", None),
    (matfile, "read_matrix", "matfile.read_matrix", _bytes_read),
    (matfile, "read_vector", "matfile.read_vector", None),
    (matfile, "write_matrix", "matfile.write_matrix", None),
    (cli, "main", "cli.main", _exit_code),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "attrs")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.attrs = None


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []
        self.unit = -1
        self._stack = []
        self._saved = []
        self._kt_seen = weakref.WeakSet()

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), parent, self.unit))
        return self.spans[-1]

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def install(self):
        for owner, attr, name, attrs in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, attrs_of):
        tracer = self
        before_of = _core_counter if name == "core.solve" else None
        kt_call = name == "kt.KTSolver.solve"

        def traced(*args, **kwargs):
            before = before_of(args, kwargs) if before_of else 0
            extra = {}
            if kt_call:
                # the first call on a solver builds the constraint stage
                extra["first"] = args[0] not in tracer._kt_seen
                tracer._kt_seen.add(args[0])
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(span)
                span.attrs = {"error": type(exc).__name__,
                              "breakdown": isinstance(exc, StrategyBreakdown),
                              "incompatible": isinstance(
                                  exc, IncompatibleSystem),
                              "inconsistent": isinstance(
                                  exc, IntegerInconsistent), **extra}
                raise
            tracer.close(span)
            if attrs_of is not None:
                extra.update(attrs_of(result, before, args, kwargs))
            span.attrs = extra
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Write the spans as tab-separated text, one span per line."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tunit\tparent\tname\tstart\tend\tself\tattrs\n")
            for idx, (span, own) in enumerate(zip(self.spans,
                                                  self_times(self.spans))):
                attrs = ",".join(f"{k}={v}" for k, v in
                                 sorted((span.attrs or {}).items()))
                fh.write(f"{idx}\t{span.unit}\t{span.parent}\t{span.name}\t"
                         f"{span.start:.9f}\t{span.end:.9f}\t{own:.9f}\t"
                         f"{attrs}\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def self_time_closure(spans):
    """Largest gap, over units, between the summed self times and the root.

    Returns (max absolute gap in seconds, number of units checked).
    """
    own = self_times(spans)
    sums = {}
    roots = {}
    for s, t in zip(spans, own):
        sums[s.unit] = sums.get(s.unit, 0.0) + t
        if s.parent < 0:
            roots[s.unit] = roots.get(s.unit, 0.0) + (s.end - s.start)
    gap = max((abs(sums[u] - roots[u]) for u in roots), default=0.0)
    return gap, len(roots)


LAYERS = ("problems", "core", "strategies", "kt", "diophantine",
          "iterative", "matrixeq", "matfile", "cli")


def layer_metrics(spans, own, members):
    """Per-layer metrics of the spans with indices ``members``.

    ``own`` holds the self time of every span in ``spans``; parents are
    looked up in ``spans``, so ``members`` may be any set of whole units.
    """
    m = {}

    def add(name, value):
        m[name] = m.get(name, 0) + value

    def has_kt_ancestor(span):
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name.startswith("kt."):
                return True
        return False

    layer_self = dict.fromkeys(LAYERS + ("harness",), 0.0)
    unit_total = 0.0
    for idx in members:
        span, t = spans[idx], own[idx]
        dur = span.end - span.start
        a = span.attrs or {}
        name = span.name
        if name == ROOT:
            unit_total += dur
            layer_self["harness"] += t
            continue
        layer_self[name.split(".", 1)[0]] += t
        if name == "problems.generate":
            add("problems.generate_s", dur)
            add("problems.generate_calls", 1)
        elif name == "problems.evaluate":
            add("problems.evaluate_self_s", t)
        elif name == "core.solve":
            add("core.solve_s", dur)
            add("core.solve_calls", 1)
            add("core.mults", a.get("mults", 0))
            add("core.redundant_rows", a.get("redundant", 0))
            add("core.incompatible", int(a.get("incompatible", False)))
            if has_kt_ancestor(span):
                add("kt.stage_core_s", dur)
        elif name == "strategies.implicit_lu_solve":
            add("strategies.implicit_lu_s", dur)
            add("strategies.mults", a.get("mults", 0))
        elif name == "strategies.gilu_solve":
            add("strategies.gilu_s", dur)
            add("strategies.mults", a.get("mults", 0))
        elif name == "kt.KTSolver.solve":
            add("kt.first_call_s" if a.get("first") else "kt.reuse_call_s",
                dur)
            add("kt.mults", a.get("mults", 0))
        elif name == "diophantine.solve":
            add("diophantine.solve_s", dur)
            add("diophantine.solve_calls", 1)
            add("diophantine.inconsistent",
                int(a.get("inconsistent", False)))
        elif name == "diophantine.solutions_in_box":
            add("diophantine.box_s", dur)
            add("diophantine.box_points", a.get("points", 0))
        elif name == "iterative.limited_memory_solve":
            add("iterative.solve_s", dur)
            add("iterative.steps", a.get("steps", 0))
        elif name == "matrixeq.solve":
            add("matrixeq.solve_s", dur)
        elif name == "matrixeq.quasi_newton_solve":
            add("matrixeq.quasi_newton_s", dur)
        elif name.startswith("matfile.read"):
            add("matfile.read_s", t)
            add("matfile.bytes_read", a.get("bytes", 0))
        elif name == "matfile.write_matrix":
            add("matfile.write_s", dur)
        elif name == "cli.main":
            add("cli.self_s", t)
            add("cli.exit_nonzero", int(a.get("exit", 0) != 0))
        if name.startswith("kt."):
            add("kt.self_s", t)
        if a.get("breakdown") and (name == "core.solve"
                                   or name.startswith("strategies.")):
            add("strategies.breakdowns", 1)

    core_s = m.get("core.solve_s", 0.0)
    out = dict(m)
    out["core.mults_per_s"] = m.get("core.mults", 0) / core_s \
        if core_s else 0.0
    for layer, t in layer_self.items():
        out[f"share.{layer}"] = t / unit_total if unit_total else 0.0
    gen = m.get("problems.generate_s", 0.0)
    out["problems.generate_share"] = gen / unit_total if unit_total else 0.0
    return out
