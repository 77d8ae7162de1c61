"""Plumbing every workload shares: seeds, checks, counters, resets."""

from __future__ import annotations

import gc
import hashlib
import json
import resource
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List

#: The seed whose outputs are pinned in ``expected.json``.
DEFAULT_SEED = 1
#: Never used while the benchmark was written or tuned: a later claim is
#: rechecked on it. Like every seed but the default, it runs the
#: seed-independent identity checks instead of the pinned digests.
HELD_OUT_SEED = 104729

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(workload: str) -> Dict[str, Any]:
    """Pinned outputs of ``workload`` at :data:`DEFAULT_SEED`."""
    return json.loads(EXPECTED_PATH.read_text())[workload]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase(recorder, name: str):
    """A phase span when tracing, a no-op context otherwise."""
    return recorder.span(name) if recorder is not None else nullcontext()


class Checks:
    """Operations attempted and the ones that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def op(self, ok: bool, message: str = "") -> bool:
        """Count one operation; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok

    def expect(self, ok: bool, message: str) -> bool:
        """A check on an operation already counted: fails the run only."""
        if not ok:
            self.messages.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.messages


def reset_program_state() -> None:
    """Empty every in-process memo the program keeps between calls.

    Each measured repetition starts from the same state, so repetitions
    of a run, and runs of different seeds, measure the same work. That
    state includes the garbage collector's: a full collection here
    means no timed pass inherits a collection the previous one left
    due. (Collections take most of a warm Table 1 pass, which unpickles
    the cached results.)
    """
    from repro.experiments.common import clear_caches
    from repro.pipeline.compose import clear_chunk_memos
    from repro.pipeline.core import clear_warm_snapshots

    clear_caches()
    clear_warm_snapshots()
    clear_chunk_memos()
    gc.collect()


#: Program counters read around a traced phase, by metric name.
TELEMETRY_COUNTERS = {
    "arch.functional_sims": "functional_sims",
    "pipeline.sims": "pipeline_sims",
    "memory.warm.hits": "warm_hierarchy_hits",
    "memory.warm.misses": "warm_hierarchy_misses",
    "memory.warm.evictions": "warm_snapshot_evictions",
    "runtime.cache.corrupt": "cache_corrupt_entries",
    "timeline_store_hits": "timeline_store_hits",
    "faults.campaign.trials": "campaign_trials",
    "faults.batch.vector_kills": "batch_vector_kills",
    "faults.batch.scalar_kills": "batch_scalar_kills",
    "faults.batch.reexecutions": "batch_reexecutions",
    "faults.batch.trials": "batch_trials",
    "faults.oracle.executions": "oracle_executions",
    "faults.oracle.static_kills": "oracle_static_kills",
    "faults.oracle.memo_hits": "oracle_memo_hits",
    "faults.mbu.multi_bit": "mbu_multi_bit",
    "faults.ecc.corrected": "ecc_corrected",
    "faults.ecc.detected": "ecc_detected",
    "faults.ecc.escaped": "ecc_escaped",
    "runtime.resilience.retries": "retries",
}

#: ``repro.pipeline.compose`` module counters, by metric name.
MEMO_COUNTERS = {
    "pipeline.memo.hits": "chunk_memo_hits",
    "pipeline.memo.misses": "chunk_memo_misses",
    "pipeline.memo.fallbacks": "chunk_memo_fallbacks",
    "pipeline.memo.splices": "chunk_memo_splices",
}


def program_counters(telemetry, caches=()) -> Dict[str, float]:
    """One snapshot of every program counter the per-layer metrics use.

    ``caches`` are the :class:`ResultCache` objects in use; their own
    hit/miss counts are summed in.
    """
    from repro.pipeline import compose

    counters = telemetry.snapshot()["counters"]
    snap = {name: counters.get(key, 0)
            for name, key in TELEMETRY_COUNTERS.items()}
    snap.update({name: getattr(compose, key)
                 for name, key in MEMO_COUNTERS.items()})
    snap["runtime.cache.hits"] = sum(c.hits for c in caches)
    snap["runtime.cache.misses"] = sum(c.misses for c in caches)
    return snap


def worker_metrics(fanouts: List[List[float]]) -> Dict[str, float]:
    """Engine fan-out figures from telemetry worker timings.

    ``fanouts`` holds, per fan-out, the seconds of each shard as the
    telemetry's ``worker_timings`` recorded them. ``imbalance`` is the
    slowest shard over the mean shard, averaged over fan-outs (1.0 is
    perfectly balanced); ``parent_wait_s`` is the sum over fan-outs of
    the slowest shard, the time the parent cannot finish before.
    """
    fanouts = [f for f in fanouts if f]
    busy = sum(sum(f) for f in fanouts)
    imbalance = [max(f) / (sum(f) / len(f)) for f in fanouts if sum(f) > 0]
    return {
        "runtime.engine.worker_busy_s": busy,
        "runtime.engine.imbalance": (sum(imbalance) / len(imbalance)
                                     if imbalance else 0.0),
        "runtime.engine.parent_wait_s": sum(max(f) for f in fanouts if f),
    }
