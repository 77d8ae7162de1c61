"""A set-associative cache with true-LRU replacement.

Addresses are word-granular (the ISA is word-addressed); line and capacity
sizes are expressed in words. The model tracks tags only — data values live
in the functional simulator — because timing and miss triggers are all the
pipeline needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_words: int
    line_words: int
    ways: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.size_words <= 0 or self.line_words <= 0 or self.ways <= 0:
            raise ValueError("cache geometry values must be positive")
        if self.size_words % (self.line_words * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_words} not divisible by "
                f"line*ways ({self.line_words}*{self.ways})"
            )
        if self.line_words & (self.line_words - 1):
            raise ValueError(f"{self.name}: line size must be a power of two")
        sets = self.size_words // (self.line_words * self.ways)
        if sets & (sets - 1):
            raise ValueError(f"{self.name}: set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_words // (self.line_words * self.ways)


class Cache:
    """One cache level. ``access`` returns True on hit and fills on miss."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._set_mask = config.num_sets - 1
        self._line_shift = config.line_words.bit_length() - 1
        # Per-set list of tags, most recently used last.
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def probe(self, address: int) -> bool:
        """Check residency without updating replacement state or stats."""
        line = address >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def access(self, address: int) -> bool:
        """Reference ``address``: update LRU, fill on miss, return hit?"""
        line = address >> self._line_shift
        tags = self._sets[line & self._set_mask]
        if line in tags:
            tags.remove(line)
            tags.append(line)
            self.hits += 1
            return True
        self.misses += 1
        tags.append(line)
        if len(tags) > self.config.ways:
            tags.pop(0)  # evict LRU
        return False

    def snapshot(self) -> List[List[int]]:
        """Copy of the replacement state (tags per set, LRU order)."""
        return [list(tags) for tags in self._sets]

    def restore(self, state: List[List[int]]) -> None:
        """Overwrite the replacement state with a :meth:`snapshot` copy."""
        if len(state) != len(self._sets):
            raise ValueError(
                f"{self.config.name}: snapshot has {len(state)} sets, "
                f"cache has {len(self._sets)}")
        self._sets = [list(tags) for tags in state]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
