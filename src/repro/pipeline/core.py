"""The cycle-level simulator.

Trace-driven timing model: the committed trace (from the functional
simulator) is replayed through fetch -> instruction queue -> in-order
issue -> commit by one event loop,
:func:`repro.pipeline.compose.run_composed`. Mispredicted branches put
fetch into wrong-path mode, where real instructions are fetched from the
static program at the bogus target (the paper does the same in Asim,
noting that wrong-path memory addresses are unknown — wrong-path loads
are therefore timed as L0 hits and do not touch the cache).

The loop models the exposure-reduction mechanisms of Section 3:

* **Squash**: when a load misses in the trigger level, every not-yet-issued
  (i.e. younger) instruction is removed from the queue; fetch rewinds to
  the oldest victim and, by default, resumes so refetched instructions
  arrive as the miss data returns ("bring them back when the pipeline
  resumes execution").
* **Throttle**: fetch simply stalls until the miss returns.

Strict in-order issue (stall-at-first-not-ready) matches the paper's
observation that instructions behind a missing load cannot make progress in
an in-order machine — which is precisely why squashing is nearly free.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.arch.trace import Trace
from repro.isa.program import Program
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.branch import GShareBranchPredictor
from repro.pipeline.config import MachineConfig
from repro.pipeline.result import PipelineResult
from repro.util.gcpause import gc_paused
from repro.util.rng import DeterministicRng, derive_seed

#: Warmed-hierarchy snapshots, keyed by everything the warm state depends
#: on. Re-simulating the same program slice (same trace, same geometry,
#: same warm-up tail) restores the snapshot instead of replaying every
#: memory reference through the LRU stacks again — the dominant cost of
#: exhibit sweeps, which run 3-4 triggers over one trace. Entries carry
#: the exact address stream (the bytes of the trace's address column),
#: so a (vanishingly unlikely) hash collision degrades to a recompute,
#: never to wrong state. Process-local: each pool worker
#: grows its own and keeps it across its tasks. Bounded LRU: a hit refreshes the entry,
#: inserting past the cap evicts the least-recently-used one (long
#: multi-workload campaigns previously grew this without limit).
_WARM_SNAPSHOTS: "OrderedDict" = OrderedDict()
_WARM_SNAPSHOT_LIMIT = 16
#: Module-level counters (surfaced via telemetry in ``--verbose`` runs).
warm_snapshot_hits = 0
warm_snapshot_misses = 0
warm_snapshot_evictions = 0


def clear_warm_snapshots() -> None:
    """Drop all cached warm-hierarchy snapshots (tests/benchmarks)."""
    _WARM_SNAPSHOTS.clear()


class PipelineSimulator:
    """Replays one committed trace through the timing model."""

    def __init__(
        self,
        program: Program,
        trace: Trace,
        config: Optional[MachineConfig] = None,
        seed: int = 2004,
    ) -> None:
        if not trace:
            raise ValueError("cannot simulate an empty trace")
        self.program = program
        self.trace = trace
        self.config = config or MachineConfig()
        self.hierarchy = CacheHierarchy(self.config.hierarchy)
        self.predictor = GShareBranchPredictor()
        self._rng = DeterministicRng(derive_seed(seed, "pipeline", program.name))

    # -- public ---------------------------------------------------------------

    def _warm_caches(self) -> None:
        """SimPoint-style warm start.

        The paper measures 100M-instruction slices of long-running
        programs, so at cycle 0 every cache already holds its steady state.
        We reconstruct that state in two passes:

        * the **L2** sees the whole trace — it models the long-run history
          that the skipped SimPoint prefix would have accumulated;
        * the **L0/L1** see only the trace's *tail* (a few thousand
          accesses): that is exactly the recent-reference state a long run
          leaves behind. Frequently revisited (hot/warm) lines are resident
          at cycle 0 — killing cold-start compulsory-miss artifacts — while
          streaming (cold) lines from the distant past have been evicted,
          preserving the L1 misses the squash technique triggers on.
        """
        global warm_snapshot_hits, warm_snapshot_misses
        global warm_snapshot_evictions
        # Local import: the runtime context package must stay importable
        # without the pipeline (workers tick their own telemetry, which
        # the engine merges into the parent's).
        from repro.runtime.context import get_runtime

        telemetry = get_runtime().telemetry
        addresses = self.trace.addresses()
        stream = addresses.tobytes()
        # The tail must remain a small suffix of the trace: replaying all
        # of a short trace would park its entire footprint in the L0/L1.
        tail = min(self.config.warmup_tail_accesses, len(addresses) // 4)
        key = (self.program.name, self.config.hierarchy, tail,
               len(addresses), hash(stream))
        cached = _WARM_SNAPSHOTS.get(key)
        if cached is not None and cached[0] == stream:
            warm_snapshot_hits += 1
            telemetry.increment("warm_hierarchy_hits")
            _WARM_SNAPSHOTS.move_to_end(key)
            self.hierarchy.restore(cached[1])
            self.hierarchy.reset_stats()
            return
        warm_snapshot_misses += 1
        telemetry.increment("warm_hierarchy_misses")
        addresses = addresses.tolist()
        l2_access = self.hierarchy.l2.access
        for address in addresses:
            l2_access(address)
        access = self.hierarchy.access
        if tail:
            for address in addresses[-tail:]:
                access(address)
        self.hierarchy.reset_stats()
        while len(_WARM_SNAPSHOTS) >= _WARM_SNAPSHOT_LIMIT:
            _WARM_SNAPSHOTS.popitem(last=False)
            warm_snapshot_evictions += 1
            telemetry.increment("warm_snapshot_evictions")
        _WARM_SNAPSHOTS[key] = (stream, self.hierarchy.snapshot())

    def run(self) -> PipelineResult:
        """Run the timing simulation through the one timing loop."""
        # Local import: the loop's chunk helpers reach the DUE package,
        # which imports the pipeline package back.
        from repro.pipeline.compose import run_composed

        with gc_paused():
            return run_composed(self)


def simulate(
    program: Program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
    seed: int = 2004,
) -> PipelineResult:
    """Convenience wrapper: run one timing simulation."""
    return PipelineSimulator(program, trace, config, seed).run()
