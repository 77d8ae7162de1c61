"""Integration of classified bit-time over IQ occupancy intervals.

Produces the paper's Section 4.1 residency decomposition (idle / ACE /
valid-un-ACE / Ex-ACE) and the per-category false-DUE composition that
Figures 2 and 4 are built from.

Accounting rules (see ``repro.avf.ace`` for per-bit classification):

* Only the **vulnerable span** — allocation to last read (issue) — can turn
  a strike into an SDC or DUE event; parity is checked when the entry is
  read, and a value is consumed for the last time at its last read.
* The **Ex-ACE span** (last read to deallocation) and the residency of
  never-read occupants contribute to neither rate.
* Idle entries contribute nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Dict, Optional

from repro.analysis.deadcode import DeadnessAnalysis, DynClass
from repro.avf.ace import (
    CODE_OF,
    WEIGHTS_BY_CODE,
    WRONG_PATH_CODE,
    bit_weights_for,
)
from repro.isa.encoding import ENCODING_BITS
from repro.pipeline.iq import (
    KIND_SQUASHED,
    KIND_WRONG_PATH,
    NO_VALUE,
    OccupantKind,
)
from repro.pipeline.result import PipelineResult

import numpy as np


@unique
class AccountingPolicy(Enum):
    """How to account occupants that are never read.

    * ``CONSERVATIVE`` (paper-faithful): residency of never-read occupants
      — exposure-squash victims and never-issued wrong-path instructions —
      is charged at the occupant's own classification over its entire stay.
      This mirrors the conservative ACE methodology the paper builds on
      ("if it cannot be proven un-ACE, it is ACE"): squashing then pays off
      by keeping the queue *empty* during miss shadows.
    * ``READ_GATED``: only the allocation-to-last-read window counts.
      Squash victims are provably harmless (the refetch reloads clean bits
      from protected storage), so their residency contributes nothing.
      This is the tighter analysis; the benchmark suite carries an ablation
      comparing the two.
    """

    CONSERVATIVE = "conservative"
    READ_GATED = "read_gated"

#: DynClasses whose false-DUE share the PET buffer can shrink, bucketed by
#: overwrite distance (paper Figure 3's three series).
_PET_TRACKED = (DynClass.FDD_REG, DynClass.FDD_REG_RETURN, DynClass.FDD_MEM)


@dataclass
class OccupancyBreakdown:
    """Bit-cycle totals for one pipeline run's instruction queue."""

    cycles: int
    entries: int
    bits_per_entry: int = ENCODING_BITS
    ace_bit_cycles: float = 0.0
    #: category name -> un-ACE bit-cycles within vulnerable spans.
    unace_bit_cycles: Dict[str, float] = field(default_factory=dict)
    ex_ace_bit_cycles: float = 0.0
    #: Residency of occupants that were never read (squash victims,
    #: never-issued wrong-path instructions).
    unread_bit_cycles: float = 0.0
    resident_bit_cycles: float = 0.0
    #: For FDD classes: overwrite distance (commits; None = never) ->
    #: vulnerable bit-cycles. Drives the PET-buffer residency coverage.
    fdd_distance_weights: Dict[DynClass, Counter] = field(default_factory=dict)

    # -- denominators and fractions -----------------------------------------

    @property
    def total_bit_cycles(self) -> float:
        return float(self.bits_per_entry) * self.entries * self.cycles

    def _frac(self, value: float) -> float:
        total = self.total_bit_cycles
        return value / total if total else 0.0

    @property
    def sdc_avf(self) -> float:
        """AVF of the unprotected queue (paper: ~29 % baseline)."""
        return self._frac(self.ace_bit_cycles)

    @property
    def true_due_avf(self) -> float:
        """With parity, every SDC event becomes a true DUE event."""
        return self.sdc_avf

    @property
    def false_due_avf(self) -> float:
        return self._frac(sum(self.unace_bit_cycles.values()))

    @property
    def due_avf(self) -> float:
        """DUE AVF of the parity-protected queue with no false-DUE tracking."""
        return self.true_due_avf + self.false_due_avf

    def false_due_components(self) -> Dict[str, float]:
        """Per-category false-DUE AVF contributions."""
        return {name: self._frac(v) for name, v in self.unace_bit_cycles.items()}

    @property
    def ex_ace_fraction(self) -> float:
        return self._frac(self.ex_ace_bit_cycles)

    @property
    def idle_fraction(self) -> float:
        return 1.0 - self._frac(self.resident_bit_cycles)

    @property
    def unread_fraction(self) -> float:
        return self._frac(self.unread_bit_cycles)

    def pet_covered_fraction(
        self,
        pet_entries: int,
        classes: tuple = (DynClass.FDD_REG,),
    ) -> float:
        """Residency-weighted share of the given FDD classes whose death is
        provable by a PET buffer of ``pet_entries`` entries.

        A retired instruction is evicted after ``pet_entries`` further
        commits; its overwriter must still be in the buffer, i.e. within
        that distance, for the scan to prove it dead.
        """
        covered = 0.0
        total = 0.0
        for cls in classes:
            weights = self.fdd_distance_weights.get(cls)
            if not weights:
                continue
            for distance, weight in weights.items():
                total += weight
                if distance is not None and distance <= pet_entries:
                    covered += weight
        if total == 0.0:
            return 0.0
        return covered / total


def compute_breakdown(
    result: PipelineResult,
    deadness: Optional[DeadnessAnalysis],
    policy: AccountingPolicy = AccountingPolicy.CONSERVATIVE,
) -> OccupancyBreakdown:
    """Integrate one timing run's intervals against the trace classification.

    ``deadness`` may be None only when the run contains no committed or
    squashed intervals (useful in unit tests of wrong-path behaviour).

    A run carrying an :class:`~repro.pipeline.iq.IntervalTimeline` (the
    timing loop's columnar log) is integrated by closed-form interval
    arithmetic over the columns, vectorised under NumPy, without
    materialising interval objects; a hand-built result with an object
    list is integrated interval by interval. Every term is an
    integer bit-cycle count well below 2**53, so float accumulation is
    exact in any order and both paths produce identical breakdowns
    (``tests/test_interval_kernel.py`` checks it on the same run in both
    forms).
    """
    breakdown = OccupancyBreakdown(cycles=result.cycles,
                                   entries=result.iq_entries)
    conservative = policy is AccountingPolicy.CONSERVATIVE
    timeline = result.timeline
    if timeline is not None:
        _integrate_timeline(breakdown, timeline, deadness, conservative)
        return breakdown
    bits = breakdown.bits_per_entry
    unace = breakdown.unace_bit_cycles
    fdd_weights = breakdown.fdd_distance_weights
    harmless_victims = not conservative

    for interval in result.intervals:
        resident = interval.resident_cycles
        breakdown.resident_bit_cycles += bits * resident
        if interval.issued:
            vulnerable = interval.vulnerable_cycles
            breakdown.ex_ace_bit_cycles += bits * interval.ex_ace_cycles
        elif conservative:
            # Never read, but charged for its whole stay at its own class.
            vulnerable = resident
        else:
            breakdown.unread_bit_cycles += bits * resident
            continue

        if interval.kind is OccupantKind.WRONG_PATH:
            dyn_class = None
        else:
            if deadness is None:
                raise ValueError(
                    "committed/squashed intervals need a DeadnessAnalysis")
            dyn_class = deadness.class_of(interval.seq)
        weights = bit_weights_for(interval, dyn_class,
                                  squash_victims_harmless=harmless_victims)

        if vulnerable <= 0:
            continue
        breakdown.ace_bit_cycles += weights.ace_bits * vulnerable
        if weights.unace_bits:
            contribution = weights.unace_bits * vulnerable
            unace[weights.unace_category] = (
                unace.get(weights.unace_category, 0.0) + contribution)
            if dyn_class in _PET_TRACKED:
                counter = fdd_weights.setdefault(dyn_class, Counter())
                distance = deadness.overwrite_distance.get(interval.seq)
                counter[distance] += contribution
    return breakdown


# -- interval-record integration ---------------------------------------------
# The integrator below consumes the timeline's integer columns directly.
# Exactness: every per-row contribution is (bit count) * (cycle count) — an
# integer below 2**53 — so float64 accumulation is exact in any order and
# regrouping rows by class code changes nothing.


_DEADNESS_CACHE_ATTR = "_interval_kernel_arrays"


def _deadness_arrays(deadness: DeadnessAnalysis):
    """(class-code, overwrite-distance) arrays indexed by seq, cached on the
    analysis instance so repeated breakdowns (ablations, both accounting
    policies) pay the conversion once."""
    cached = getattr(deadness, _DEADNESS_CACHE_ATTR, None)
    if cached is not None:
        return cached
    n = len(deadness.classes)
    codes = np.fromiter((CODE_OF[cls] for cls in deadness.classes),
                         dtype=np.int64, count=n)
    dist = np.full(n, NO_VALUE, dtype=np.int64)
    for seq, distance in deadness.overwrite_distance.items():
        if distance is not None:
            dist[seq] = distance
    arrays = (codes, dist)
    setattr(deadness, _DEADNESS_CACHE_ATTR, arrays)
    return arrays


def _integrate_timeline(
    breakdown: OccupancyBreakdown,
    timeline,
    deadness: Optional[DeadnessAnalysis],
    conservative: bool,
) -> None:
    """Vectorised closed-form integration of an IntervalTimeline."""
    n = len(timeline.kind)
    if n == 0:
        return
    bits = float(breakdown.bits_per_entry)
    seq = np.frombuffer(timeline.seq, dtype=np.int64)
    kind = np.frombuffer(timeline.kind, dtype=np.int8)
    alloc = np.frombuffer(timeline.alloc, dtype=np.int64)
    issue = np.frombuffer(timeline.issue, dtype=np.int64)
    dealloc = np.frombuffer(timeline.dealloc, dtype=np.int64)

    resident = dealloc - alloc
    issued = issue != NO_VALUE
    breakdown.resident_bit_cycles = bits * float(resident.sum())
    breakdown.ex_ace_bit_cycles = bits * float(
        (dealloc[issued] - issue[issued]).sum())

    if conservative:
        vulnerable = np.where(issued, issue - alloc, resident)
        counted = np.ones(n, dtype=bool)
    else:
        # READ_GATED: never-read occupants contribute nothing.
        vulnerable = np.where(issued, issue - alloc, 0)
        counted = issued
        breakdown.unread_bit_cycles = bits * float(
            resident[~issued].sum())

    wrong = kind == KIND_WRONG_PATH
    needs_class = counted & ~wrong
    codes = np.full(n, WRONG_PATH_CODE, dtype=np.int64)
    if needs_class.any():
        if deadness is None:
            raise ValueError(
                "committed/squashed intervals need a DeadnessAnalysis")
        class_codes, distances = _deadness_arrays(deadness)
        codes[needs_class] = class_codes[seq[needs_class]]
        if not conservative:
            # Squash victims are provably harmless under read-gating.
            codes[kind == KIND_SQUASHED] = WRONG_PATH_CODE
    else:
        distances = None

    contrib = counted & (vulnerable > 0)
    if not contrib.any():
        return
    c_codes = codes[contrib]
    c_vulnerable = vulnerable[contrib].astype(np.float64)
    ncodes = len(WEIGHTS_BY_CODE)
    sums = np.bincount(c_codes, weights=c_vulnerable, minlength=ncodes)
    breakdown.ace_bit_cycles = float(sum(
        WEIGHTS_BY_CODE[code].ace_bits * sums[code]
        for code in range(ncodes) if sums[code]))
    unace = breakdown.unace_bit_cycles
    for code in range(ncodes):
        weights = WEIGHTS_BY_CODE[code]
        if weights.unace_bits and sums[code]:
            unace[weights.unace_category] = (
                unace.get(weights.unace_category, 0.0)
                + weights.unace_bits * float(sums[code]))
    if distances is None:
        return
    for cls in _PET_TRACKED:
        code = CODE_OF[cls]
        rows = contrib & (codes == code)
        if not rows.any():
            continue
        weight = WEIGHTS_BY_CODE[code].unace_bits
        row_dist = distances[seq[rows]]
        row_weight = vulnerable[rows].astype(np.float64) * weight
        uniq, inverse = np.unique(row_dist, return_inverse=True)
        totals = np.bincount(inverse, weights=row_weight)
        counter = Counter()
        for value, total in zip(uniq.tolist(), totals.tolist()):
            counter[None if value == NO_VALUE else int(value)] = total
        breakdown.fdd_distance_weights[cls] = counter
