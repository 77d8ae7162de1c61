"""SimPoint-scale workloads: tiled committed traces for long-run timing.

The 26 profile programs synthesize to a few thousand committed
instructions — enough for the paper's AVF exhibits, far too short to
exercise SimPoint-scale timing (the paper simulates 100M-instruction
slices). This module scales a profile's committed trace by tiling its
chunk stream: the dynamic basic-block sequence repeats verbatim (every
column of the base trace is tiled; a row's seq is its position), and
every instruction object is shared with the base program — exactly
the repetition structure the chunk-compositional timing memo
(:mod:`repro.pipeline.compose`) exploits.

Scaled traces are a *timing-path* artifact: architectural deadness and
output analysis remain defined by the base execution, so the catalogue
deliberately exposes only ``(program, trace)`` pairs, not a scaled
:class:`ExecutionResult`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.arch.executor import FunctionalSimulator
from repro.arch.trace import Trace
from repro.isa.instruction import Instruction
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import ALL_PROFILES, get_profile

#: Deterministic seed for every catalogue entry (matches the exhibit
#: suite's convention of one fixed seed per artifact).
SCALED_SEED = 20_040_619

#: Committed instructions synthesized per base program before tiling.
BASE_INSTRUCTIONS = 3_000


def scale_trace(trace: Trace, factor: int) -> Trace:
    """Tile ``trace`` ``factor`` times; rows are renumbered by position.

    Every column is tiled and the instruction table is shared, so the
    chunk memo's per-instruction caches and the per-program memo scope
    both carry over.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return trace.tile(factor)


def trace_digest(trace: Trace) -> str:
    """sha256 over the timing-relevant row content of ``trace``.

    Covers exactly the fields the timing loop (and the chunk memo's
    row fingerprint) observes, so two traces with equal digests are
    indistinguishable to the timing path.
    """
    h = hashlib.sha256()
    encodings = np.array(trace.table(Instruction.encode),
                         dtype=np.int64)[trace.instr]
    memory = trace.accesses_memory.tolist()
    addresses = trace.mem_addr.view(np.uint64).tolist()
    rows = zip(range(len(trace)), trace.pc.tolist(), encodings.tolist(),
               (address if access else None
                for address, access in zip(addresses, memory)),
               trace.executed.tolist(), trace.branch_taken.tolist())
    for row in rows:
        h.update(repr(row).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class ScaledWorkload:
    """One catalogue entry: a profile tiled to a target dynamic length."""

    name: str
    base_profile: str
    target_instructions: int


def _entries() -> Tuple[ScaledWorkload, ...]:
    entries: List[ScaledWorkload] = []
    for profile in ALL_PROFILES:
        entries.append(ScaledWorkload(
            name=f"{profile.name}-200k",
            base_profile=profile.name,
            target_instructions=200_000))
    # A deeper tier for the SimPoint-scale timing benches: one poor-
    # locality integer code, one branchy integer code, one fp streamer.
    for name in ("mcf", "crafty", "equake"):
        entries.append(ScaledWorkload(
            name=f"{name}-2m",
            base_profile=name,
            target_instructions=2_000_000))
    return tuple(entries)


#: The scaled-workload catalogue: every profile at 200k dynamic
#: instructions plus three 2M-instruction deep entries.
SCALED_WORKLOADS: Tuple[ScaledWorkload, ...] = _entries()

_BY_NAME: Dict[str, ScaledWorkload] = {w.name: w for w in SCALED_WORKLOADS}

#: (workload name, seed) -> (program, trace); one build per process.
_BUILD_CACHE: Dict[Tuple[str, int], tuple] = {}


def get_scaled(name: str) -> ScaledWorkload:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown scaled workload {name!r}; known: "
            f"{', '.join(sorted(_BY_NAME))}") from None


def build_scaled(
    workload: "ScaledWorkload | str",
    seed: int = SCALED_SEED,
    base_instructions: int = BASE_INSTRUCTIONS,
    cache: bool = True,
) -> tuple:
    """Materialize ``(program, trace)`` for a catalogue entry.

    The base program is synthesized and functionally executed once; its
    committed trace is tiled with the smallest factor reaching the
    workload's target. Deterministic: same entry + seed, same digest.
    """
    if isinstance(workload, str):
        workload = get_scaled(workload)
    key = (workload.name, seed)
    if cache:
        cached = _BUILD_CACHE.get(key)
        if cached is not None:
            return cached
    profile = get_profile(workload.base_profile)
    program = synthesize(profile, target_instructions=base_instructions,
                         seed=seed)
    execution = FunctionalSimulator(program).run()
    if not execution.clean:
        raise RuntimeError(
            f"base execution for {workload.name} was not clean")
    base_trace = execution.trace
    factor = -(-workload.target_instructions // len(base_trace))
    trace = scale_trace(base_trace, factor)
    built = (program, trace)
    if cache:
        _BUILD_CACHE[key] = built
    return built


def clear_scaled_cache() -> None:
    """Drop cached builds (mainly for tests)."""
    _BUILD_CACHE.clear()
