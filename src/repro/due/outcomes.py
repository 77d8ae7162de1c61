"""Figure 1's classification of single-bit fault outcomes, and the
campaign tally over them."""

from __future__ import annotations

from collections import Counter
from enum import Enum, unique
from typing import Any, Dict, NamedTuple, Type


@unique
class FaultOutcome(Enum):
    """Possible outcomes of a single-bit fault in a storage structure.

    Numbers follow the paper's Figure 1:

    1. ``BENIGN_UNREAD`` — the faulted bit is never read (idle entry,
       Ex-ACE tail, never-issued occupant): no error.
    2. ``BENIGN_UNACE`` — the bit is read but does not matter (un-ACE
       state: wrong path, neutral, dead, ...): no error.
    3. ``CORRECTED`` — read, matters, but protected by error *correction*
       (not deployed on the paper's instruction queue; listed for
       completeness).
    4. ``SDC`` — read, matters, no detection: silent data corruption.
    5. ``FALSE_DUE`` — detection fired, but the value would not have
       affected the outcome: a benign detected unrecoverable error.
    6. ``TRUE_DUE`` — detection fired and the value would have affected
       the outcome.

    Our executable substrate adds two refinements of outcome 4 that the
    paper's analytical model folds into SDC: a corrupted instruction can
    *trap* (illegal opcode, wild control transfer) or *hang* (runaway
    execution) instead of silently corrupting output. Fault-injection
    reports keep them distinct.
    """

    BENIGN_UNREAD = "benign_unread"
    BENIGN_UNACE = "benign_unace"
    CORRECTED = "corrected"
    SDC = "sdc"
    FALSE_DUE = "false_due"
    TRUE_DUE = "true_due"
    TRAP = "trap"
    HANG = "hang"

    @property
    def is_error(self) -> bool:
        """True when a user-visible failure (of any kind) occurred."""
        return self in (FaultOutcome.SDC, FaultOutcome.FALSE_DUE,
                        FaultOutcome.TRUE_DUE, FaultOutcome.TRAP,
                        FaultOutcome.HANG)

    @property
    def is_benign(self) -> bool:
        return not self.is_error


class Tally(NamedTuple):
    """A campaign's result: the Figure 1 histogram plus one side counter.

    ``tracker_misses`` counts detected strikes the π-bit tracker let
    through although they were harmful — the trace-replay artifact of
    DESIGN.md §4. Every campaign layer (classifier, shard, journal,
    cache, service) carries this one value, so a change to what a
    campaign counts lands here only.
    """

    counts: Counter
    tracker_misses: int = 0

    def merge(self, other: "Tally") -> "Tally":
        """The tally of two disjoint sets of trials."""
        return Tally(self.counts + other.counts,
                     self.tracker_misses + other.tracker_misses)

    def check(self, trials: int,
              error: Type[Exception] = ValueError) -> "Tally":
        """Return self if it is a well-formed tally of ``trials`` trials.

        Raises ``error`` otherwise: a shard, journal entry or cache
        entry failing this check is never merged.
        """
        counts, misses = self
        if not (isinstance(counts, dict)
                and all(isinstance(outcome, FaultOutcome)
                        and isinstance(n, int) and n >= 0
                        for outcome, n in counts.items())
                and isinstance(misses, int) and misses >= 0):
            raise error(f"malformed tallies: {tuple(self)!r:.120}")
        if sum(counts.values()) != trials:
            raise error(f"tallies {sum(counts.values())} trials, "
                        f"expected {trials}")
        return self

    def to_json(self) -> Dict[str, Any]:
        """``{"counts", "misses"}`` with counts by outcome name, sorted."""
        counts = sorted(self.counts.items(), key=lambda kv: kv[0].value)
        return {"counts": {outcome.value: n for outcome, n in counts if n},
                "misses": self.tracker_misses}

    @classmethod
    def from_json(cls, doc: Any,
                  error: Type[Exception] = ValueError) -> "Tally":
        """Inverse of :meth:`to_json`; validate the result with
        :meth:`check`."""
        try:
            names, misses = doc["counts"].items(), doc["misses"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise error(f"malformed tallies: {exc!r}") from None
        counts: Counter = Counter()
        for name, n in names:
            try:
                counts[FaultOutcome(name)] = n
            except ValueError:
                raise error(f"unknown outcome {name!r} in tallies") from None
        return cls(counts, misses)
