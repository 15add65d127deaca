"""Exact operation and storage accounting.

Counters hold the exact number of scalar multiplies (divides count as
multiplies) that the vectorized numpy calls perform, so reported totals
equal what a scalar implementation of the same loop would do. Counts
include the arithmetic spent on tolerance tests (norms, scale factors); the
documentation of each solver states this.

A loop may add up a step's multiplies and increment the counter once per
step, as the engine, the direction deflation and the packed implicit LU
do; it then adds what the step has done before any exception leaves it,
so a partial report, or a counter the caller passed in, reads the same
total as if each call had been counted as it ran. The packed implicit LU
moves its storage meter once per step as well, by entries that keep the
live count and the peak of the per-array calls of its column loop.

Counts are those of the formula a step evaluates, not of the entries the
code happens to touch: a rank-one update of an n x n projector counts n^2
multiplies even where it skips rows that are exactly zero (and would come
out unchanged), and a product reused because it has the same bytes as the
one the formula names is counted as if formed again. So is an engine run
resumed from a kept run (``core.solve``'s ``resume``): it counts the rows
that it takes from the kept run as if it stepped them again, whatever it
recomputes of them for its own right-hand side. And so is a row that
``core.solve`` proves dependent on a spent projector without projecting
it: it counts the formula that the run's first full dependent row after
the proof counted.
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
