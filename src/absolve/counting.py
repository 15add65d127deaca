"""Exact operation and storage accounting.

Counters hold the exact number of scalar multiplies (divides count as
multiplies) that the vectorized numpy calls perform, so reported totals
equal what a scalar implementation of the same loop would do. Counts
include the arithmetic spent on tolerance tests (norms, scale factors); the
documentation of each solver states this.

A loop may add up a step's multiplies and increment the counter once per
step, as the engine and the direction deflation do; it then adds what the
step has done before any exception leaves it, so a partial report, or a
counter the caller passed in, reads the same total as if each call had
been counted as it ran.

Counts are those of the formula a step evaluates, not of the entries the
code happens to touch: a rank-one update of an n x n projector counts n^2
multiplies even where it skips rows that are exactly zero (and would come
out unchanged), and a product reused because it has the same bytes as the
one the formula names is counted as if formed again. So is a replayed or
resumed engine run (:func:`absolve.core.replay`, ``core.solve``'s
``resume``): it counts the steps that it takes from the kept run as if it
took them again.
"""

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Running count of scalar multiplications (and divisions)."""

    mults: int = 0

    def add(self, k):
        self.mults += int(k)


@dataclass
class StorageMeter:
    """Tracks live auxiliary entries and their peak.

    ``alloc``/``free`` are called with entry counts as semantic arrays come
    and go; the meter never inspects Python object overhead.
    """

    live: int = 0
    peak: int = 0

    def alloc(self, entries):
        self.live += int(entries)
        if self.live > self.peak:
            self.peak = self.live

    def free(self, entries):
        self.live -= int(entries)
