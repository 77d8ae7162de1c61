"""The campaign :class:`~repro.due.outcomes.Tally`: one value on every path.

A campaign's tally (outcome counts plus the ``tracker_misses`` side
counter) must come out the same whether the trials ran serially, across
workers, through an interrupt and a journalled resume, or out of the
result cache. The campaign used here has tracker misses in several of
its checkpoint blocks, so every merge of the side counter is exercised.

``tests/data/tally_compat_journal.json`` (the journal of this campaign
interrupted after two of its four blocks) and
``tests/data/tally_compat_cache.pkl`` (its ``(dict, int)`` cache value)
were written by the code before :class:`Tally` existed. They pin the
journal's bytes and the cache value's shape: both must still load, and
a run today must write the same bytes.
"""

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.due.outcomes import FaultOutcome, Tally
from repro.due.tracking import TrackingLevel
from repro.faults.campaign import CampaignConfig, campaign_key, run_campaign
from repro.runtime.cache import ResultCache
from repro.runtime.chaos import ChaosConfig, ChaosInjector
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.context import use_runtime
from repro.runtime.resilience import (
    CacheCorrupt,
    CampaignInterrupted,
    ResultInvalid,
    RetryPolicy,
)
from repro.runtime.telemetry import Telemetry

DATA = Path(__file__).parent / "data"
JOURNAL = DATA / "tally_compat_journal.json"
CACHE_VALUE = DATA / "tally_compat_cache.pkl"

#: Four checkpoint blocks of 12 trials; tracker misses land in the
#: first, third and fourth.
CONFIG = CampaignConfig(trials=48, seed=23, parity=True,
                        tracking=TrackingLevel.MEM_PI)
#: Chaos seed whose first interrupt lands in the third block, so the
#: journal holds blocks [0, 12) and [12, 24) when the campaign dies.
INTERRUPT = ChaosConfig(modes=("interrupt",), seed=6)

FAST = RetryPolicy(retries=3, backoff_base=0.001, backoff_cap=0.002)

EXPECTED = Tally(Counter({
    FaultOutcome.BENIGN_UNREAD: 18,
    FaultOutcome.BENIGN_UNACE: 11,
    FaultOutcome.FALSE_DUE: 13,
    FaultOutcome.TRAP: 3,
    FaultOutcome.TRUE_DUE: 3,
}), 3)


@pytest.fixture(scope="module")
def subject(small_program, small_execution, small_pipeline):
    return small_program, small_execution, small_pipeline


@pytest.fixture(scope="module")
def key(subject):
    return campaign_key(*subject, CONFIG)


@pytest.fixture(scope="module")
def serial(subject):
    with use_runtime():
        return run_campaign(*subject, CONFIG)


class TestTally:
    def test_merge_adds_counts_and_side_counter(self):
        a = Tally(Counter({FaultOutcome.SDC: 2}), 1)
        b = Tally(Counter({FaultOutcome.SDC: 1, FaultOutcome.TRAP: 3}), 2)
        assert a.merge(b) == Tally(
            Counter({FaultOutcome.SDC: 3, FaultOutcome.TRAP: 3}), 3)

    def test_unpacks_as_a_pair(self):
        counts, misses = EXPECTED
        assert counts is EXPECTED.counts and misses == 3

    def test_json_round_trip(self):
        doc = EXPECTED.to_json()
        assert list(doc["counts"]) == sorted(doc["counts"])
        assert doc["misses"] == 3
        assert Tally.from_json(doc).check(48) == EXPECTED

    def test_json_omits_zero_counts(self):
        tally = Tally(Counter({FaultOutcome.SDC: 0, FaultOutcome.TRAP: 2}))
        assert tally.to_json() == {"counts": {"trap": 2}, "misses": 0}

    def test_check_returns_a_sound_tally(self):
        assert EXPECTED.check(48) is EXPECTED

    @pytest.mark.parametrize("bad", [
        Tally(Counter({"sdc": 48}), 0),
        Tally(Counter({FaultOutcome.SDC: -1, FaultOutcome.TRAP: 49}), 0),
        Tally(Counter({FaultOutcome.SDC: 48.0}), 0),
        Tally(Counter({FaultOutcome.SDC: 48}), -1),
        Tally(Counter({FaultOutcome.SDC: 48}), "1"),
        Tally([(FaultOutcome.SDC, 48)], 0),
    ])
    def test_check_rejects_malformed(self, bad):
        with pytest.raises(ResultInvalid, match="malformed"):
            bad.check(48, ResultInvalid)

    def test_check_rejects_wrong_trial_count(self):
        with pytest.raises(CacheCorrupt, match="tallies 48 trials"):
            EXPECTED.check(47, CacheCorrupt)

    @pytest.mark.parametrize("doc", [
        None, {}, {"counts": {}}, {"misses": 0}, {"counts": 3, "misses": 0},
    ])
    def test_from_json_rejects_missing_fields(self, doc):
        with pytest.raises(CacheCorrupt, match="malformed"):
            Tally.from_json(doc, CacheCorrupt)


class TestEveryPath:
    def test_campaign_has_tracker_misses(self, serial):
        assert serial.tally == EXPECTED
        assert serial.tally.tracker_misses > 0

    def test_serial_sharded_resumed_and_cached_agree(self, subject, serial,
                                                     tmp_path):
        with use_runtime(jobs=2, policy=FAST):
            sharded = run_campaign(*subject, CONFIG)

        fired = [i for i in range(CONFIG.trials)
                 if ChaosInjector(INTERRUPT).decide(
                     INTERRUPT.interrupt_prob, "interrupt", "trial", i)]
        assert 24 <= fired[0] < 36
        with use_runtime(chaos=INTERRUPT, checkpoint_dir=tmp_path / "ck"):
            with pytest.raises(CampaignInterrupted):
                run_campaign(*subject, CONFIG)
        (journal,) = (tmp_path / "ck").glob("campaign-*.json")
        # The journalled half carries a miss of its own, so the resume
        # merges a non-zero side counter from disk with a non-zero one
        # computed fresh.
        assert json.loads(journal.read_text())["entries"][0]["misses"] == 1
        assert journal.read_bytes() == JOURNAL.read_bytes()
        with use_runtime(checkpoint_dir=tmp_path / "ck", resume=True):
            resumed = run_campaign(*subject, CONFIG)
        assert resumed.completeness.resumed_trials == 24

        with use_runtime(cache_dir=tmp_path / "cache"):
            run_campaign(*subject, CONFIG)
        telemetry = Telemetry()
        with use_runtime(cache_dir=tmp_path / "cache", telemetry=telemetry):
            warm = run_campaign(*subject, CONFIG)
        assert telemetry.counters["campaign_trials"] == 0

        assert [sharded.tally, resumed.tally, warm.tally] == [serial.tally] * 3


class TestParentFormats:
    """Files written before :class:`Tally` existed still load."""

    def test_journal_resumes(self, subject, serial, key, tmp_path):
        assert json.loads(JOURNAL.read_text())["campaign"] == key
        journal = CheckpointJournal(tmp_path, key, CONFIG.trials)
        shutil.copy(JOURNAL, journal.path)
        assert journal.load().tally == Tally(Counter({
            FaultOutcome.BENIGN_UNACE: 4,
            FaultOutcome.BENIGN_UNREAD: 10,
            FaultOutcome.FALSE_DUE: 8,
            FaultOutcome.TRAP: 1,
            FaultOutcome.TRUE_DUE: 1,
        }), 1)
        with use_runtime(checkpoint_dir=tmp_path, resume=True):
            result = run_campaign(*subject, CONFIG)
        assert result.completeness.resumed_trials == 24
        assert result.tally == serial.tally

    def test_cache_value_is_served(self, subject, serial, key, tmp_path):
        path = ResultCache(tmp_path).path_for(key)
        path.parent.mkdir(parents=True)
        shutil.copy(CACHE_VALUE, path)
        telemetry = Telemetry()
        with use_runtime(cache_dir=tmp_path, telemetry=telemetry):
            result = run_campaign(*subject, CONFIG)
        assert telemetry.counters["campaign_trials"] == 0
        assert result.tally == serial.tally

    def test_cache_value_is_written_unchanged(self, subject, key, tmp_path):
        with use_runtime(cache_dir=tmp_path):
            run_campaign(*subject, CONFIG)
        written = ResultCache(tmp_path).path_for(key).read_bytes()
        assert written == CACHE_VALUE.read_bytes()
