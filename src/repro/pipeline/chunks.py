"""Fetch-chunk π bits (paper Section 4.2).

"Modern microprocessors typically fetch instructions in multiples,
sometimes called chunks. ... We can attach a π bit to each fetch chunk.
If the chunk encounters an error, we can set the π bit of the chunk.
Subsequently, when the chunk is decoded into multiple instructions, we can
copy the π bit value of the chunk to initialize the π bit of each
instruction."

This models the front-end generalisation: a fault detected on a pre-decode
chunk poisons *every* instruction decoded from it, and the error can be
dismissed only if the retire-point machinery clears all of them. The
module quantifies the granularity cost: how much more often a chunk-level
fault must signal than an instruction-level fault on the same stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.arch.trace import Trace
from repro.due.pi_bit import PiBitTracker
from repro.due.tracking import DEFAULT_PET_ENTRIES, TrackingLevel


@dataclass(frozen=True)
class ChunkDecision:
    """Fate of one poisoned fetch chunk."""

    first_seq: int
    size: int
    signaled: bool
    #: seqs within the chunk whose individual π decisions forced the signal.
    blamed: Tuple[int, ...]


def iter_chunks(trace: Trace, chunk_size: int,
                stop: Optional[int] = None) -> Iterator[Tuple[int, int]]:
    """(first_seq, size) for consecutive fetch chunks over a trace.

    Chunks are formed over the committed stream in fetch order; a taken
    branch ends a chunk early, as a real front end cannot fetch across a
    redirection within one chunk. ``stop`` ends the stream early.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    taken = trace.branch_taken[:stop]
    n = len(taken)
    seqs = np.arange(n)
    # Each row's run starts after the last taken branch before it; a
    # chunk starts every ``chunk_size`` rows into a run.
    after_taken = np.zeros(n, dtype=np.int64)
    after_taken[1:] = np.where(taken[:-1], seqs[1:], 0)
    run_start = np.maximum.accumulate(after_taken)
    starts = np.flatnonzero((seqs - run_start) % chunk_size == 0)
    sizes = np.diff(np.append(starts, n))
    return zip(starts.tolist(), sizes.tolist())


class ChunkPiModel:
    """Chunk-granularity π-bit evaluation over a committed trace."""

    def __init__(
        self,
        trace: Trace,
        level: TrackingLevel,
        chunk_size: int = 6,
        pet_entries: int = DEFAULT_PET_ENTRIES,
    ) -> None:
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.trace = trace
        self.level = level
        self.chunk_size = chunk_size
        self._tracker = PiBitTracker(trace, level, pet_entries)

    def process_chunk_fault(self, first_seq: int,
                            size: int) -> ChunkDecision:
        """A fault on the chunk covering [first_seq, first_seq + size).

        The chunk's π bit is copied to every decoded instruction; the
        error is false only if *every* instruction's π can be dismissed.
        """
        if size <= 0 or first_seq < 0 \
                or first_seq + size > len(self.trace):
            raise ValueError("chunk outside trace")
        blamed = []
        for seq in range(first_seq, first_seq + size):
            decision = self._tracker.process_fault(seq)
            if decision.signaled:
                blamed.append(seq)
        return ChunkDecision(first_seq=first_seq, size=size,
                             signaled=bool(blamed), blamed=tuple(blamed))

    def false_positive_amplification(self, limit: int = 2000) -> float:
        """How much chunk granularity inflates signalled faults.

        Compares the fraction of chunks that must signal against the
        fraction of individual instructions that must signal, over the
        first ``limit`` instructions. A ratio of 1.0 means chunking costs
        nothing; higher means coarse π bits convert more benign faults
        into machine checks.
        """
        horizon = min(limit, len(self.trace))
        instruction_signals = 0
        for seq in range(horizon):
            if self._tracker.process_fault(seq).signaled:
                instruction_signals += 1
        chunk_signals = 0
        chunk_count = 0
        for first, size in iter_chunks(self.trace, self.chunk_size,
                                       horizon):
            chunk_count += 1
            if self.process_chunk_fault(first, size).signaled:
                chunk_signals += 1
        if instruction_signals == 0 or chunk_count == 0:
            return 1.0
        instruction_rate = instruction_signals / horizon
        chunk_rate = chunk_signals / chunk_count
        return chunk_rate / instruction_rate
