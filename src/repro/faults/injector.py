"""Corrupting one in-flight instruction and observing the effect.

:func:`architectural_effect` is the ground truth behind every campaign
outcome: re-execute the program with the struck instruction's encoding
corrupted and compare its observable behaviour with the baseline's. The
campaign path reaches the same answer through the memoized, statically
pre-filtered :class:`~repro.faults.oracle.EffectOracle`; Figure 1's
outcome tree on top of it lives in :mod:`repro.faults.batch`.
"""

from __future__ import annotations

from typing import Optional

from repro.arch.executor import ExecutionLimits, FunctionalSimulator
from repro.arch.result import ExecutionResult
from repro.faults.oracle import default_limits, effect_of
from repro.isa import encoding
from repro.isa.program import Program
from repro.util.bitops import flip_bit


def corrupt_instruction(instruction, bit: int):
    """Flip one bit of an instruction's 41-bit encoding and re-decode."""
    return encoding.decode(flip_bit(instruction.encode(), bit))


def corrupt_burst(instruction, mask: int):
    """Flip every set bit of ``mask`` in the encoding and re-decode."""
    if mask <= 0:
        raise ValueError("burst mask must have at least one set bit")
    return encoding.decode(instruction.encode() ^ mask)


def architectural_effect(
    program: Program,
    baseline: ExecutionResult,
    seq: int,
    bit: int,
    limits: Optional[ExecutionLimits] = None,
) -> str:
    """Re-execute with instruction ``seq`` corrupted; compare behaviour.

    This is the seed slow path, kept as the oracle's ground truth: every
    call re-executes, with no memoization and no static filtering.
    """
    original = baseline.trace[seq].instruction
    corrupted = corrupt_instruction(original, bit)
    if corrupted == original:
        raise AssertionError("bit flip must change the instruction")
    limits = limits or default_limits(baseline)
    rerun = FunctionalSimulator(program, limits).run(
        record_trace=False, override_seq=seq, override_instruction=corrupted)
    return effect_of(rerun, baseline.output_signature())
