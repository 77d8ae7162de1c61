"""Checkpoint journal tests: atomic writes, validation, resume math."""

import json
from collections import Counter

import pytest

from repro.due.outcomes import FaultOutcome, Tally
from repro.runtime.cache import atomic_write
from repro.runtime.checkpoint import (
    JOURNAL_VERSION,
    CheckpointJournal,
    remaining_ranges,
)
from repro.runtime.resilience import CacheCorrupt

KEY = "a" * 64  # stand-in campaign content hash


def _block(n, *, masked=0, misses=0):
    """The tally of a block of ``n`` trials."""
    return Tally(Counter({FaultOutcome.BENIGN_UNREAD: masked,
                          FaultOutcome.SDC: n - masked}), misses)


class TestAtomicWrite:
    def test_writes_payload(self, tmp_path):
        path = tmp_path / "sub" / "x.json"
        atomic_write(path, lambda handle: handle.write(b"hello"))
        assert path.read_bytes() == b"hello"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write(path, lambda handle: handle.write(b"one"))
        atomic_write(path, lambda handle: handle.write(b"two"))
        assert path.read_bytes() == b"two"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write(tmp_path / "x.json",
                     lambda handle: handle.write(b"data"))
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


class TestRemainingRanges:
    def test_empty_coverage_is_full_span(self):
        assert remaining_ranges(10, []) == [(0, 10)]

    def test_full_coverage_is_empty(self):
        assert remaining_ranges(10, [(0, 10)]) == []

    def test_middle_gap(self):
        assert remaining_ranges(10, [(0, 3), (7, 10)]) == [(3, 7)]

    def test_unsorted_input(self):
        assert remaining_ranges(12, [(8, 12), (0, 4)]) == [(4, 8)]

    def test_overlap_is_corrupt(self):
        with pytest.raises(CacheCorrupt):
            remaining_ranges(10, [(0, 5), (4, 8)])

    def test_out_of_bounds_is_corrupt(self):
        with pytest.raises(CacheCorrupt):
            remaining_ranges(10, [(5, 12)])
        with pytest.raises(CacheCorrupt):
            remaining_ranges(10, [(-1, 3)])


class TestJournalRoundTrip:
    def test_load_missing_returns_none(self, tmp_path):
        journal = CheckpointJournal(tmp_path, KEY, trials=20)
        assert journal.load() is None

    def test_record_then_load(self, tmp_path):
        journal = CheckpointJournal(tmp_path, KEY, trials=20)
        journal.record(0, 10, _block(10, masked=4, misses=2))
        journal.record(15, 20, _block(5, masked=1, misses=1))

        fresh = CheckpointJournal(tmp_path, KEY, trials=20)
        state = fresh.load()
        assert state.ranges == ((0, 10), (15, 20))
        assert sum(stop - start for start, stop in state.ranges) == 15
        assert state.tally.counts == Counter({FaultOutcome.BENIGN_UNREAD: 5,
                                              FaultOutcome.SDC: 10})
        assert state.tally.tracker_misses == 3

    def test_resumed_journal_keeps_appending(self, tmp_path):
        journal = CheckpointJournal(tmp_path, KEY, trials=20)
        journal.record(0, 10, _block(10))

        resumed = CheckpointJournal(tmp_path, KEY, trials=20)
        resumed.load()
        resumed.record(10, 20, _block(10))
        state = CheckpointJournal(tmp_path, KEY, trials=20).load()
        assert state.ranges == ((0, 10), (10, 20))
        assert remaining_ranges(20, state.ranges) == []

    def test_discard_removes_file(self, tmp_path):
        journal = CheckpointJournal(tmp_path, KEY, trials=20)
        journal.record(0, 10, _block(10))
        assert journal.path.exists()
        journal.discard()
        assert not journal.path.exists()
        assert CheckpointJournal(tmp_path, KEY, trials=20).load() is None
        journal.discard()  # idempotent


class TestJournalValidation:
    def _journal_with_block(self, tmp_path):
        journal = CheckpointJournal(tmp_path, KEY, trials=20)
        journal.record(0, 10, _block(10, masked=3, misses=1))
        return journal

    def _tamper(self, journal, mutate):
        doc = json.loads(journal.path.read_text())
        mutate(doc)
        journal.path.write_text(json.dumps(doc))

    def test_garbled_bytes_are_corrupt(self, tmp_path):
        journal = self._journal_with_block(tmp_path)
        data = journal.path.read_bytes()
        journal.path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CacheCorrupt, match="undecodable|checksum"):
            CheckpointJournal(tmp_path, KEY, trials=20).load()

    def test_tampered_tally_fails_checksum(self, tmp_path):
        journal = self._journal_with_block(tmp_path)
        self._tamper(journal, lambda doc: doc["entries"][0]["counts"]
                     .__setitem__("sdc", 9000))
        with pytest.raises(CacheCorrupt, match="checksum"):
            CheckpointJournal(tmp_path, KEY, trials=20).load()

    def test_version_mismatch(self, tmp_path):
        journal = self._journal_with_block(tmp_path)
        self._tamper(journal, lambda doc: doc.update(
            version=JOURNAL_VERSION + 1))
        with pytest.raises(CacheCorrupt, match="version"):
            CheckpointJournal(tmp_path, KEY, trials=20).load()

    def test_wrong_campaign_key(self, tmp_path):
        journal = self._journal_with_block(tmp_path)
        other = CheckpointJournal(tmp_path, "b" * 64, trials=20)
        other.path = journal.path
        with pytest.raises(CacheCorrupt, match="different campaign"):
            other.load()

    def test_wrong_trial_count(self, tmp_path):
        self._journal_with_block(tmp_path)
        with pytest.raises(CacheCorrupt, match="trials"):
            CheckpointJournal(tmp_path, KEY, trials=30).load()

    def test_overlapping_entries(self, tmp_path):
        journal = self._journal_with_block(tmp_path)
        journal.record(5, 15, _block(10))
        with pytest.raises(CacheCorrupt):
            CheckpointJournal(tmp_path, KEY, trials=20).load()

    def test_tally_sum_must_match_range(self, tmp_path):
        journal = CheckpointJournal(tmp_path, KEY, trials=20)
        journal.record(0, 10, _block(7))  # 7 != 10
        with pytest.raises(CacheCorrupt, match="tallies"):
            CheckpointJournal(tmp_path, KEY, trials=20).load()

    def test_unknown_outcome_name(self, tmp_path):
        journal = self._journal_with_block(tmp_path)

        def swap_outcome(doc):
            entry = doc["entries"][0]
            entry["counts"] = {"warp-core-breach": 10}
            from repro.runtime.checkpoint import _checksum
            doc["checksum"] = _checksum(doc)

        self._tamper(journal, swap_outcome)
        with pytest.raises(CacheCorrupt, match="unknown outcome"):
            CheckpointJournal(tmp_path, KEY, trials=20).load()

    def test_distinct_campaigns_use_distinct_files(self, tmp_path):
        a = CheckpointJournal(tmp_path, "a" * 64, trials=20)
        b = CheckpointJournal(tmp_path, "c" * 64, trials=20)
        assert a.path != b.path
