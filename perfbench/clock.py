"""Host seconds scaled to a fixed reference speed of the host.

The benchmark shares a few cores with other tenants, and their load
changes the speed of every instruction stream on the host by tens of
percent, within milliseconds and over minutes. Wall time of the same
work then moves more between runs than a regression the bounds should
catch, and more repetitions in one run do not help when a whole run
lands in a slow stretch. A :class:`HostClock` therefore samples the
host's speed while the work runs: every :data:`SAMPLE_PERIOD_S` an
interval timer interrupts the work and times a short reference loop
(pure Python, no container allocation, independent of the program) in
CPU time of the interrupted thread, which a process sharing the core
does not inflate. Each interval of work since the previous sample is
scaled by :data:`REFERENCE_S` over the reference time just measured,
and the reference loops' own CPU time is left out. The sum reads as the
seconds the work would take on a host where the reference loop takes
:data:`REFERENCE_S`: a change to the program moves it, a change of the
host's speed largely does not.

Traced runs use a :class:`WallClock`: plain host seconds, and no
reference loops among the spans.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Optional

#: CPU seconds of one reference loop on an idle 2-core x86-64 virtual
#: machine (Xeon, 2 GHz), measured once and then fixed. Scaled times are
#: host seconds at that speed.
REFERENCE_S = 0.0005
REFERENCE_ITERATIONS = 2_500
#: Seconds of work between two speed samples: the reference loops add
#: about 2.5 % to a timed phase on an idle host.
SAMPLE_PERIOD_S = 0.02


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


_CELLS = tuple(_Cell() for _ in range(64))
_TABLE = {key: 0 for key in range(256)}


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Interpreter work like the simulators': attributes, dicts, ints.

    It allocates no container, so the garbage collector never runs in
    it, and its cost does not depend on the program's heap.
    """
    cells, table, acc = _CELLS, _TABLE, 0
    for i in range(iterations):
        cell = cells[i & 63]
        cell.value = (cell.value + i) & 0xFFFF
        key = (i * 40503) & 255
        table[key] = (table[key] + cell.value) & 0xFFFFF
        if acc < cell.value:
            acc += 1
        else:
            acc = max(0, acc - (key & 3))
    return acc


def reference_cpu_seconds() -> float:
    """CPU seconds of one reference loop in the calling thread."""
    started = time.thread_time()
    reference_loop()
    return time.thread_time() - started


class WallClock:
    """Plain host seconds from :meth:`start` to :meth:`stop`."""

    def __init__(self, timer: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.timer = timer
        self._started = 0.0

    def start(self) -> None:
        self._started = self.timer()

    def stop(self) -> float:
        return self.timer() - self._started


class HostClock:
    """Host seconds scaled, sample by sample, to :data:`REFERENCE_S` speed.

    ``stop`` returns the scaled sum; ``raw`` holds the unscaled one and
    ``samples`` the number of speed samples. ``timer`` reads wall time,
    ``reference`` times one reference loop and ``period`` spaces the
    samples (all replaceable in tests). Samples come from ``SIGALRM``,
    so a clock runs in the main thread, one phase at a time.
    """

    def __init__(self, timer: Callable[[], float] = time.perf_counter,
                 reference: Callable[[], float] = reference_cpu_seconds,
                 period: float = SAMPLE_PERIOD_S) -> None:
        self.timer = timer
        self.reference = reference
        self.period = period
        self.raw = 0.0
        self.scaled = 0.0
        self.samples = 0
        self._last = 0.0
        self._excluded = 0.0
        self._previous_handler: Optional[object] = None

    def start(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self.samples = 0
        self._excluded = 0.0
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        self._last = self.timer()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def sample(self, signum=None, frame=None) -> None:
        """Scale the work since the last sample by the speed measured now."""
        now = self.timer()
        reference = self.reference()
        work = max(0.0, now - self._last - self._excluded)
        self.raw += work
        self.scaled += work * REFERENCE_S / reference
        self.samples += 1
        self._last = now
        self._excluded = reference

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.sample()
        return self.scaled
