"""Host-speed reference: a fixed computation timed beside every sample.

The benchmark runs on shared hosts whose speed changes as other tenants
come and go: by 10–30% from one second to the next, and by up to 2x
between phases that last many minutes.  That drift is larger than most
changes worth measuring.  So each timed sample of the program is
bracketed by blocks of this fixed reference computation, and the sample
is scaled to the speed at which one reference unit takes its nominal time
:data:`UNIT_NOMINAL_S`::

    normalized = raw * UNIT_NOMINAL_S / mean(unit time before, unit time after)

A change to the program moves the normalized time exactly as it moves the
raw time, because the reference code lives here and never changes with
the program.  A slow phase of the host moves both together and cancels.

The reference is interpreter work of the kind ``repro`` does (attribute
reads, dict lookups, float arithmetic, method calls) over a working set of
a few megabytes, so it feels cache pressure from other tenants the way the
program does.  It creates no object the garbage collector tracks, so it
neither triggers nor shifts the program's collections.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: what one unit takes on a quiet 2-core development host, seconds; the
#: normalized times read as seconds on a host of exactly that speed
UNIT_NOMINAL_S = 0.010
#: loop iterations in one unit
_UNIT_ITERATIONS = 16_000
_CELL_COUNT = 1 << 16


class _Cell:
    __slots__ = ("rate", "size")

    def __init__(self, rate: float, size: float) -> None:
        self.rate = rate
        self.size = size

    def weight(self, scale: float) -> float:
        return self.rate * scale + self.size


_CELLS = [_Cell(1.0 + (i % 97) / 97.0, float(i % 1013)) for i in range(_CELL_COUNT)]
_TABLE = {f"k{i}": (i % 89) * 0.25 for i in range(_CELL_COUNT)}
_KEYS = list(_TABLE)


def reference_unit() -> float:
    """One unit of the reference computation; returns its checksum."""
    cells, table, keys, log1p = _CELLS, _TABLE, _KEYS, math.log1p
    mask = _CELL_COUNT - 1
    acc = 0.0
    for i in range(_UNIT_ITERATIONS):
        cell = cells[(i * 40503) & mask]  # scattered over the working set
        acc += cell.weight(table[keys[(i * 9973) & mask]]) + log1p(cell.size)
    return acc


class HostClock:
    """Times samples of the program and normalizes them by the reference.

    Every sample is preceded and followed by one reference unit;
    consecutive samples share the unit between them.
    """

    def __init__(self) -> None:
        self._last_unit_s = None
        #: seconds of every reference unit run, in order
        self.unit_samples: List[float] = []

    def reference(self) -> float:
        """Run one reference unit; returns its seconds."""
        start = perf_counter()
        reference_unit()
        unit_s = perf_counter() - start
        self.unit_samples.append(unit_s)
        self._last_unit_s = unit_s
        return unit_s

    def time(self, fn: Callable[[], T]) -> Tuple[T, float, float]:
        """Run *fn*; returns ``(result, raw seconds, normalized seconds)``."""
        before = self._last_unit_s if self._last_unit_s is not None else self.reference()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        after = self.reference()
        return result, raw, raw * UNIT_NOMINAL_S / (0.5 * (before + after))

    def forget(self) -> None:
        """Start the next sample with a fresh reference unit.

        Call this when untimed work ran since the last sample, so the next
        sample is not paired with a unit run before that work.
        """
        self._last_unit_s = None
