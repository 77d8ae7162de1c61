"""Atomic, versioned checkpoint journal for interruptible campaigns.

A campaign periodically records each completed block of trials —
``(start, stop)`` plus the block's :class:`~repro.due.outcomes.Tally` —
into a JSON journal keyed by the campaign's content hash. Writes are
torn-write safe (:func:`~repro.runtime.cache.atomic_write`). A
``--resume`` run loads the journal, re-validates it end to end (format
version, campaign key, trial count, per-range tally sums, a sha256
checksum over the canonical payload), merges the completed ranges, and
computes only the complement — bit-identical to an uninterrupted run
because every trial draws from its own derived seed stream.

Anything suspicious raises :class:`~repro.runtime.resilience.CacheCorrupt`;
the campaign layer responds by discarding the journal and starting over.
A checkpoint may lose work, never correctness.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.due.outcomes import Tally
from repro.runtime.cache import atomic_write
from repro.runtime.resilience import CacheCorrupt

#: Bump when the journal format changes; old journals are discarded.
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class JournalState:
    """Validated contents of a checkpoint journal."""

    ranges: Tuple[Tuple[int, int], ...]
    tally: Tally


def remaining_ranges(trials: int,
                     covered: Sequence[Tuple[int, int]]
                     ) -> List[Tuple[int, int]]:
    """Complement of ``covered`` within ``range(trials)``.

    Raises :class:`CacheCorrupt` when the covered ranges overlap or fall
    outside the campaign — a journal claiming impossible coverage is
    corrupt even if its checksum matches.
    """
    spans = sorted((int(start), int(stop)) for start, stop in covered)
    out: List[Tuple[int, int]] = []
    cursor = 0
    for start, stop in spans:
        if start < 0 or stop > trials or start >= stop:
            raise CacheCorrupt(
                f"checkpoint range [{start}, {stop}) outside campaign "
                f"of {trials} trials")
        if start < cursor:
            raise CacheCorrupt(
                f"overlapping checkpoint ranges at trial {start}")
        if start > cursor:
            out.append((cursor, start))
        cursor = stop
    if cursor < trials:
        out.append((cursor, trials))
    return out


def _canonical(payload: Mapping) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def _checksum(payload: Mapping) -> str:
    body = {key: value for key, value in payload.items()
            if key != "checksum"}
    return hashlib.sha256(_canonical(body)).hexdigest()


class CheckpointJournal:
    """On-disk record of a campaign's completed trial blocks."""

    def __init__(self, directory: Union[str, Path], campaign_key: str,
                 trials: int) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.campaign_key = campaign_key
        self.trials = trials
        self.path = self.directory / f"campaign-{campaign_key[:16]}.json"
        self._entries: List[Dict] = []

    # -- reading ---------------------------------------------------------

    def load(self) -> Optional[JournalState]:
        """Parse and validate the journal; None when absent.

        Raises :class:`CacheCorrupt` on any structural, checksum, or
        identity mismatch — the caller discards and restarts.
        """
        try:
            raw = self.path.read_text()
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError) as exc:
            raise CacheCorrupt(f"unreadable checkpoint journal: {exc}")
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CacheCorrupt(f"undecodable checkpoint journal: {exc}")
        if not isinstance(doc, dict):
            raise CacheCorrupt("checkpoint journal is not an object")
        if doc.get("version") != JOURNAL_VERSION:
            raise CacheCorrupt(
                f"checkpoint journal version {doc.get('version')!r} != "
                f"{JOURNAL_VERSION}")
        if doc.get("checksum") != _checksum(doc):
            raise CacheCorrupt("checkpoint journal checksum mismatch")
        if doc.get("campaign") != self.campaign_key:
            raise CacheCorrupt("checkpoint journal belongs to a different "
                               "campaign")
        if doc.get("trials") != self.trials:
            raise CacheCorrupt(
                f"checkpoint journal covers {doc.get('trials')!r} trials, "
                f"campaign wants {self.trials}")
        entries = doc.get("entries")
        if not isinstance(entries, list):
            raise CacheCorrupt("checkpoint journal entries missing")

        tally = Tally(Counter())
        ranges: List[Tuple[int, int]] = []
        for entry in entries:
            start, stop, entry_tally = self._validate_entry(entry)
            ranges.append((start, stop))
            tally = tally.merge(entry_tally)
        # Overlap / bounds validation (raises CacheCorrupt).
        remaining_ranges(self.trials, ranges)
        self._entries = [dict(entry) for entry in entries]
        return JournalState(ranges=tuple(ranges), tally=tally)

    @staticmethod
    def _validate_entry(entry) -> Tuple[int, int, Tally]:
        if not isinstance(entry, dict):
            raise CacheCorrupt("checkpoint entry is not an object")
        try:
            start = int(entry["start"])
            stop = int(entry["stop"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheCorrupt(f"malformed checkpoint entry: {exc}")
        tally = Tally.from_json(entry, CacheCorrupt)
        return start, stop, tally.check(stop - start, CacheCorrupt)

    # -- writing ---------------------------------------------------------

    def record(self, start: int, stop: int, tally: Tally) -> None:
        """Append one completed block and flush the journal atomically."""
        self._entries.append(
            {"start": int(start), "stop": int(stop), **tally.to_json()})
        self._write()

    def _write(self) -> None:
        payload = {
            "version": JOURNAL_VERSION,
            "campaign": self.campaign_key,
            "trials": self.trials,
            "entries": self._entries,
        }
        payload["checksum"] = _checksum(payload)
        data = _canonical(payload)
        atomic_write(self.path, lambda handle: handle.write(data))

    def discard(self) -> None:
        """Forget all recorded blocks and remove the on-disk journal."""
        self._entries = []
        try:
            self.path.unlink()
        except OSError:
            pass
