"""Progress and throughput counters for the parallel runtime.

A :class:`Telemetry` instance lives on the active runtime context and is
ticked by the campaign engine, the experiment plumbing, and the result
cache. Worker processes run with their own (fresh) telemetry; the engine
merges their counter snapshots back into the parent after each fan-out,
so parent-side totals are accurate regardless of the worker count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional


@dataclass(frozen=True)
class WorkerTiming:
    """Wall-clock record for one worker's share of one fan-out."""

    label: str
    worker: int
    items: int
    seconds: float


class Telemetry:
    """Monotonic counters plus labelled time spans and worker timings."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.spans: Dict[str, float] = {}
        self.worker_timings: List[WorkerTiming] = []

    def increment(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def add_time(self, label: str, seconds: float) -> None:
        self.spans[label] = self.spans.get(label, 0.0) + seconds

    def record_worker(self, label: str, worker: int, items: int,
                      seconds: float) -> None:
        self.worker_timings.append(
            WorkerTiming(label=label, worker=worker, items=items,
                         seconds=seconds))

    def merge_counters(self, counters: Mapping[str, int]) -> None:
        """Fold a worker process's counter snapshot into this instance."""
        for name, amount in counters.items():
            self.counters[name] += amount

    @property
    def trials_per_second(self) -> float:
        """Campaign throughput over every campaign run so far."""
        elapsed = self.spans.get("campaign", 0.0)
        if elapsed <= 0.0:
            return 0.0
        return self.counters["campaign_trials"] / elapsed

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "spans": dict(self.spans),
            "worker_timings": [
                (t.label, t.worker, t.items, t.seconds)
                for t in self.worker_timings
            ],
        }

    def reset(self) -> None:
        self.counters.clear()
        self.spans.clear()
        self.worker_timings.clear()

    def format_summary(self, cache: Optional[object] = None,
                       jobs: int = 1, verbose: bool = False) -> str:
        """One-paragraph human-readable account of the work performed.

        ``verbose`` appends the fast-path breakdown (effect-oracle memo
        hits / static kills / re-executions and warmed-hierarchy reuse)
        even when it would normally be folded away, plus the raw counter
        dump.
        """
        parts = [f"jobs={jobs}"]
        sims = []
        for name, label in (("functional_sims", "functional"),
                            ("pipeline_sims", "pipeline"),
                            ("campaign_trials", "campaign trials")):
            if self.counters[name]:
                sims.append(f"{self.counters[name]} {label}")
        parts.append("sims: " + (", ".join(sims) if sims else "none"))
        if self.counters["campaign_trials"] and self.trials_per_second:
            parts.append(f"{self.trials_per_second:,.0f} trials/s")
        # Combine this process's cache counters with the worker-side
        # traffic merged in via ``merge_counters``.
        hits = self.counters["cache_hits"] + getattr(cache, "hits", 0)
        misses = self.counters["cache_misses"] + getattr(cache, "misses", 0)
        if cache is not None or hits or misses:
            total = hits + misses
            rate = f" ({hits / total:.0%} hit rate)" if total else ""
            corrupt = self.counters["cache_corrupt_entries"]
            detail = f", {corrupt} corrupt" if corrupt else ""
            parts.append(f"cache: {hits} hits, {misses} misses{rate}{detail}")
        else:
            parts.append("cache: off")
        oracle = self._format_oracle()
        if oracle:
            parts.append(oracle)
        batch = self._format_batch()
        if batch:
            parts.append(batch)
        mbu = self._format_mbu()
        if mbu:
            parts.append(mbu)
        chunk = self._format_chunk_memo()
        if chunk:
            parts.append(chunk)
        serve = self._format_serve()
        if serve:
            parts.append(serve)
        remote = self._format_remote_store()
        if remote:
            parts.append(remote)
        resilience = self._format_resilience()
        if resilience:
            parts.append(resilience)
        checkpoint = self._format_checkpoint()
        if checkpoint:
            parts.append(checkpoint)
        lines = ["[runtime: " + " | ".join(parts) + "]"]
        for timing in self.worker_timings[-8:]:
            lines.append(
                f"  worker {timing.worker} ({timing.label}): "
                f"{timing.items} items in {timing.seconds:.2f}s")
        if verbose:
            warm = (self.counters["warm_hierarchy_hits"]
                    + self.counters["warm_hierarchy_misses"])
            if warm:
                lines.append(
                    f"  warm hierarchy: "
                    f"{self.counters['warm_hierarchy_hits']} snapshot "
                    f"restores, {self.counters['warm_hierarchy_misses']} "
                    f"full warm-ups, "
                    f"{self.counters['warm_snapshot_evictions']} snapshots "
                    f"evicted")
            if self.counters["timeline_store_hits"]:
                lines.append(
                    f"  timeline store: "
                    f"{self.counters['timeline_store_hits']} pipeline runs "
                    f"served without simulation")
            footprint = self._chunk_memo_footprint()
            if footprint is not None and footprint["segments"]:
                lines.append(
                    f"  chunk memo: {footprint['segments']} segments over "
                    f"{footprint['keys']} keys in {footprint['scopes']} "
                    f"scopes, {footprint['bytes'] / (1 << 20):.1f} MiB "
                    f"resident")
            for name in sorted(self.counters):
                lines.append(f"  {name}: {self.counters[name]}")
        return "\n".join(lines)

    def _format_oracle(self) -> str:
        """Strike fast-path account, empty when no oracle was consulted."""
        c = self.counters
        memo = c["oracle_memo_hits"]
        static = c["oracle_static_kills"]
        executed = c["oracle_executions"]
        total = memo + static + executed
        if not total:
            return ""
        fast = memo + static
        detail = f"{fast / total:.0%} fast path"
        replayed = c["oracle_replayed_insts"]
        if replayed:
            # Re-executions resume from a baseline snapshot and stop once
            # they rejoin the baseline: these are the commits they ran.
            insts = (f"{replayed / 1000:,.0f}k" if replayed >= 1000
                     else str(replayed))
            detail += (f"; {c['oracle_converged']} converged early, "
                       f"{insts} insts replayed")
        return (f"oracle: {memo} memo hits, {static} static kills, "
                f"{executed} re-executions ({detail})")

    def _format_chunk_memo(self) -> str:
        """Chunk-memo account, empty when the fast path never engaged."""
        c = self.counters
        hits = c["chunk_memo_hits"]
        misses = c["chunk_memo_misses"]
        if not (hits or misses or c["chunk_memo_fallbacks"]):
            return ""
        total = hits + misses
        rate = f" ({hits / total:.0%} hit rate)" if total else ""
        text = (f"chunk memo: {hits} hits, {misses} misses{rate}, "
                f"{c['chunk_memo_splices']} rows spliced")
        detail = []
        if c["chunk_memo_fallbacks"]:
            detail.append(f"{c['chunk_memo_fallbacks']} fallbacks")
        if c["chunk_memo_evictions"]:
            detail.append(f"{c['chunk_memo_evictions']} evicted")
        if detail:
            text += f" [{', '.join(detail)}]"
        return text

    @staticmethod
    def _chunk_memo_footprint() -> Optional[dict]:
        """In-process memo size, None when compose was never imported."""
        import sys

        compose = sys.modules.get("repro.pipeline.compose")
        if compose is None:
            return None
        return compose.chunk_memo_footprint()

    def _format_batch(self) -> str:
        """Vectorised-strike account, empty when no batch was classified.

        ``vector kills`` are trials the array pass resolved outright
        (never-read, ECC-corrected, wrong-path); ``scalar kills`` are
        committed-read survivors the kill masks or the oracle memo
        settled without re-execution; the rest re-executed.
        """
        c = self.counters
        total = c["batch_trials"]
        if not total:
            return ""
        return (f"batch: {c['batch_vector_kills']} vector kills, "
                f"{c['batch_scalar_kills']} scalar kills, "
                f"{c['batch_reexecutions']} re-executions "
                f"over {total} trials")

    def _format_mbu(self) -> str:
        """ECC/MBU decoder account, empty for single-bit campaigns.

        The counters arrive only from campaigns that set a lattice
        scheme or an MBU preset (shard workers withhold them otherwise),
        so legacy telemetry output is byte-identical to pre-MBU runs.
        """
        c = self.counters
        if not (c["ecc_corrected"] or c["ecc_detected"]
                or c["ecc_escaped"] or c["mbu_multi_bit"]):
            return ""
        return (f"ecc: {c['ecc_corrected']} corrected, "
                f"{c['ecc_detected']} detected, "
                f"{c['ecc_escaped']} escaped "
                f"({c['mbu_multi_bit']} multi-bit bursts)")

    def _format_serve(self) -> str:
        """Query-service account, empty when no requests were served."""
        c = self.counters
        total = c["serve_requests"]
        if not total:
            return ""
        text = (f"serve: {total} requests ({c['serve_warm_hits']} warm, "
                f"{c['serve_cold_computes']} cold, "
                f"{c['serve_coalesced']} coalesced)")
        detail = []
        if c["serve_lru_evictions"]:
            detail.append(f"{c['serve_lru_evictions']} evicted")
        if c["serve_errors"]:
            detail.append(f"{c['serve_errors']} errors")
        if c["serve_shed_requests"]:
            detail.append(f"{c['serve_shed_requests']} shed")
        if c["serve_deadline_expirations"]:
            detail.append(f"{c['serve_deadline_expirations']} deadlines "
                          f"expired")
        if c["serve_drains"]:
            detail.append(f"drained ({c['serve_drained_answers']} answered, "
                          f"{c['serve_drain_refusals']} refused)")
        if (c["serve_store_hits"] or c["serve_store_misses"]
                or c["serve_store_puts"]):
            detail.append(f"store {c['serve_store_hits']} hits, "
                          f"{c['serve_store_misses']} misses, "
                          f"{c['serve_store_puts']} puts")
        if detail:
            text += f" [{', '.join(detail)}]"
        return text

    def _format_remote_store(self) -> str:
        """Service-store client account, empty when no service was used."""
        c = self.counters
        if not (c["remote_store_hits"] or c["remote_store_misses"]
                or c["remote_store_puts"] or c["remote_store_errors"]
                or c["remote_store_short_circuits"]):
            return ""
        text = (f"service store: {c['remote_store_hits']} hits, "
                f"{c['remote_store_misses']} misses, "
                f"{c['remote_store_puts']} puts")
        if c["remote_store_errors"]:
            text += f", {c['remote_store_errors']} errors"
        if c["remote_store_breaker_open"]:
            text += (f", breaker opened x{c['remote_store_breaker_open']} "
                     f"({c['remote_store_short_circuits']} short-circuited)")
        return text

    def _format_resilience(self) -> str:
        """Retry/quarantine account, empty when the run was failure-free."""
        c = self.counters
        failures = [
            (c["workers_lost"], "workers lost"),
            (c["trial_timeouts"], "timeouts"),
            (c["trial_crashes"], "crashes"),
            (c["results_invalid"], "invalid results"),
        ]
        total_failures = sum(n for n, _ in failures)
        if not (c["retries"] or c["quarantined_trials"] or total_failures):
            return ""
        text = f"resilience: {c['retries']} retries"
        detail = ", ".join(f"{n} {label}" for n, label in failures if n)
        if detail:
            text += f" ({detail})"
        if c["quarantined_trials"]:
            text += f", {c['quarantined_trials']} trials quarantined"
        if c["campaigns_degraded"]:
            text += " [degraded]"
        return text

    def _format_checkpoint(self) -> str:
        """Checkpoint/resume account, empty when no journal was touched."""
        c = self.counters
        if not (c["checkpoint_writes"] or c["checkpoint_resumed_trials"]
                or c["checkpoint_corrupt"]):
            return ""
        text = f"checkpoint: {c['checkpoint_writes']} writes"
        if c["checkpoint_resumed_trials"]:
            text += f", {c['checkpoint_resumed_trials']} trials resumed"
        if c["checkpoint_corrupt"]:
            text += (f", {c['checkpoint_corrupt']} corrupt journals "
                     f"discarded")
        return text
