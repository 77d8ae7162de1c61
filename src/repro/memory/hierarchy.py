"""Three-level cache hierarchy with the paper's latencies.

Every access reports *which levels missed*, because the squash technique
triggers on "load missed in L0" or "load missed in L1", independent of the
final hit level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.cache import Cache, CacheConfig

#: 64-byte lines expressed in 8-byte words.
LINE_WORDS = 8


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry and latencies.

    Latencies are the paper's (2 / 10 / 25 cycles, Section 5). Capacities
    are scaled down ~32x from the paper's 8 KB / 256 KB / 10 MB because our
    traces are ~10^3x shorter than the paper's 100M-instruction SimPoints:
    keeping the paper's absolute capacities would make every workload
    footprint cache-resident and eliminate the load misses the squash
    technique triggers on. What AVF behaviour depends on is the miss *rate*
    per level and the miss *latency*, both of which the scaled hierarchy
    preserves (see DESIGN.md).
    """

    l0: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_words=256, line_words=LINE_WORDS, ways=4, name="L0"))  # 2 KB
    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_words=2048, line_words=LINE_WORDS, ways=8, name="L1"))  # 16 KB
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_words=64 * 1024, line_words=LINE_WORDS, ways=8, name="L2"))  # 512 KB
    l0_latency: int = 2
    l1_latency: int = 10
    l2_latency: int = 25
    memory_latency: int = 200


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory reference."""

    latency: int
    l0_miss: bool
    l1_miss: bool
    l2_miss: bool

    @property
    def hit_level(self) -> str:
        if not self.l0_miss:
            return "L0"
        if not self.l1_miss:
            return "L1"
        if not self.l2_miss:
            return "L2"
        return "MEM"


class CacheHierarchy:
    """Inclusive three-level hierarchy; misses fill all levels above."""

    def __init__(self, config: HierarchyConfig = HierarchyConfig()) -> None:
        self.config = config
        self.l0 = Cache(config.l0)
        self.l1 = Cache(config.l1)
        self.l2 = Cache(config.l2)
        #: The four possible outcomes, by hit level (L0, L1, L2, memory):
        #: built once and shared, which is safe since they are frozen.
        self.results = (
            AccessResult(config.l0_latency, False, False, False),
            AccessResult(config.l1_latency, True, False, False),
            AccessResult(config.l2_latency, True, True, False),
            AccessResult(config.memory_latency, True, True, True))

    def access(self, address: int) -> AccessResult:
        """Reference ``address`` (load, store, or prefetch) and time it."""
        if self.l0.access(address):
            return self.results[0]
        if self.l1.access(address):
            return self.results[1]
        if self.l2.access(address):
            return self.results[2]
        return self.results[3]

    def snapshot(self) -> tuple:
        """Copy of all three levels' replacement state."""
        return (self.l0.snapshot(), self.l1.snapshot(), self.l2.snapshot())

    def restore(self, state: tuple) -> None:
        """Overwrite all three levels from a :meth:`snapshot` copy."""
        l0, l1, l2 = state
        self.l0.restore(l0)
        self.l1.restore(l1)
        self.l2.restore(l2)

    def reset_stats(self) -> None:
        self.l0.reset_stats()
        self.l1.reset_stats()
        self.l2.reset_stats()
