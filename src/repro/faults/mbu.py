"""Multi-bit upset (MBU) burst shapes over the per-trial seed streams.

A single particle can deposit charge across neighbouring storage cells,
so beyond the paper's single-bit model the physically observed error
patterns are dominated by *adjacent* 2- and 3-bit bursts, with a small
tail of independent (non-adjacent) doubles. This module defines those
shapes and the severity-preset probability mass functions they are
drawn from. The draws themselves ride the per-trial
:func:`~repro.util.rng.derive_seed` stream in
:func:`~repro.faults.batch.draw_strike_batch`, strictly **after** the
``(bit, point)`` pair every strike draws, so a campaign with MBU off
draws nothing extra and its tallies, cache keys and sharding are those
of the single-bit model.

Pattern geometry is canonical by construction: adjacent bursts are
clamped into the 41-bit word (a burst at the array edge folds inward,
as on a physical row), and the second bit of a random double is
rejection-sampled to be at least two positions away from the first —
so the four patterns and the four mask *shapes* (single, adjacent run
of 2, adjacent run of 3, non-adjacent pair) are in bijection, which is
what lets the classifier act on pattern codes instead of masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum, unique
from typing import Dict, Optional, Tuple

from repro.isa.encoding import ENCODING_BITS, Field, field_bits

#: Integer PMF resolution: preset weights sum to this, and the pattern
#: draw is one ``randrange(PMF_RESOLUTION)`` — replayable bit-exactly.
PMF_RESOLUTION = 10_000


@unique
class BurstPattern(IntEnum):
    """Drawable error-pattern shapes, densely coded for array columns."""

    SINGLE = 0
    DOUBLE_ADJACENT = 1
    TRIPLE_ADJACENT = 2
    RANDOM_DOUBLE = 3


#: Canonical minimal mask per pattern shape. Classification depends only
#: on (weight, adjacency), so any drawn mask of a pattern classifies
#: exactly like its canonical form (pinned in ``tests/test_mbu.py``).
CANONICAL_MASKS: Dict[BurstPattern, int] = {
    BurstPattern.SINGLE: 0b1,
    BurstPattern.DOUBLE_ADJACENT: 0b11,
    BurstPattern.TRIPLE_ADJACENT: 0b111,
    BurstPattern.RANDOM_DOUBLE: 0b101,
}


@dataclass(frozen=True)
class MbuPreset:
    """One severity preset: a PMF over :class:`BurstPattern`.

    ``weights`` are integer masses out of :data:`PMF_RESOLUTION`, in
    pattern-code order.
    """

    name: str
    weights: Tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.weights) != len(BurstPattern):
            raise ValueError("one weight per burst pattern required")
        if any(w < 0 for w in self.weights):
            raise ValueError("preset weights must be non-negative")
        if sum(self.weights) != PMF_RESOLUTION:
            raise ValueError(
                f"preset weights must sum to {PMF_RESOLUTION}, "
                f"got {sum(self.weights)}")

    def probability(self, pattern: BurstPattern) -> float:
        return self.weights[pattern] / PMF_RESOLUTION


#: Severity presets. ``terrestrial`` follows the published sea-level
#: SRAM pattern mix (85 % singles, 12 % adjacent doubles, 2 % adjacent
#: triples, 1 % independent doubles); the harsher environments shift
#: mass toward bursts the way high-LET particles do.
PRESETS: Dict[str, MbuPreset] = {
    "terrestrial": MbuPreset("terrestrial", (8500, 1200, 200, 100)),
    "avionics": MbuPreset("avionics", (7000, 2000, 600, 400)),
    "space": MbuPreset("space", (5500, 2800, 1000, 700)),
}


def get_preset(name: str) -> MbuPreset:
    """Look a preset up by name; unknown names raise ``ValueError``."""
    preset = PRESETS.get(name)
    if preset is None:
        raise ValueError(
            f"unknown MBU preset {name!r}; choose from "
            f"{', '.join(sorted(PRESETS))}")
    return preset


# ---------------------------------------------------------------------------
# Burst masks
# ---------------------------------------------------------------------------

def _adjacent_mask(bit: int, width: int) -> int:
    """Adjacent run of ``width`` bits anchored at ``bit``, clamped in-word."""
    start = min(bit, ENCODING_BITS - width)
    return ((1 << width) - 1) << start


def mask_for(pattern: BurstPattern, bit: int,
             second: Optional[int] = None) -> int:
    """Burst mask of a drawn pattern (0 for SINGLE: "no burst").

    Pure function of the drawn values, shared by the batch drawer and
    the test reference so their masks cannot diverge.
    """
    if pattern is BurstPattern.SINGLE:
        return 0
    if pattern is BurstPattern.DOUBLE_ADJACENT:
        return _adjacent_mask(bit, 2)
    if pattern is BurstPattern.TRIPLE_ADJACENT:
        return _adjacent_mask(bit, 3)
    if second is None:
        raise ValueError("random double requires the second bit")
    return (1 << bit) | (1 << second)


# ---------------------------------------------------------------------------
# Mask utilities shared by the tracker and the strike classifier
# ---------------------------------------------------------------------------

def _field_mask(field: Field) -> int:
    word = 0
    for bit in field_bits(field):
        word |= 1 << bit
    return word


_OPCODE_MASK = _field_mask(Field.OPCODE)


def representative_bit(mask: int) -> int:
    """The bit that stands for a burst in per-bit detection machinery.

    The π-bit tracker and the anti-π test consume a single struck bit,
    but the only property they read off it is "is it an opcode-field
    bit". A burst could turn a neutral instruction real iff *any* of
    its bits touches the opcode field, so the representative is the
    lowest opcode-field bit when the burst intersects the opcode, else
    the lowest set bit. For a single-bit mask this is the bit itself.
    """
    if mask <= 0:
        raise ValueError("burst mask must have at least one set bit")
    hits = mask & _OPCODE_MASK
    word = hits if hits else mask
    return (word & -word).bit_length() - 1
