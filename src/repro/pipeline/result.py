"""Timing-simulation results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.pipeline.iq import IntervalTimeline, OccupancyInterval


@dataclass
class PipelineResult:
    """Output of one timing run.

    ``intervals`` is a sequence of :class:`OccupancyInterval`. The timing
    loop supplies an :class:`IntervalTimeline` (columnar, lazy — see
    :attr:`timeline`); hand-built results (unit tests) may pass a plain
    list. Consumers that iterate cannot tell the difference.
    """

    cycles: int
    committed: int
    intervals: Sequence[OccupancyInterval]
    iq_entries: int
    #: Counter bag: squashes, wrong-path instructions fetched, miss counts
    #: per level, branch statistics, throttle cycles, ...
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def timeline(self) -> Optional[IntervalTimeline]:
        """The columnar interval log, when this run came from the loop."""
        if isinstance(self.intervals, IntervalTimeline):
            return self.intervals
        return None

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.committed / self.cycles

    @property
    def total_entry_cycles(self) -> int:
        """Denominator of every residency fraction: entries x cycles."""
        return self.iq_entries * self.cycles

    def occupancy_fraction(self) -> float:
        """Fraction of entry-cycles holding any occupant (1 - idle)."""
        if self.cycles == 0:
            return 0.0
        timeline = self.timeline
        if timeline is not None:
            resident = timeline.total_resident_cycles()
        else:
            resident = sum(i.resident_cycles for i in self.intervals)
        return resident / self.total_entry_cycles
