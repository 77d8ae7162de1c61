"""Golden digests of the result-cache keys.

Every persistent entry is addressed by :func:`repro.runtime.cache.
cache_key`, so a change to how objects tokenise orphans every stored
result without failing a single value check. The committed file
``tests/data/cache_keys_golden.json`` pins the key of each case below:

* the timing-entry (``run``) key of every profile x squash trigger at
  two sizes, and the functional-parts key of every profile at both;
* campaign keys over the legacy, parity/tracking and MBU x ECC-lattice
  configurations;
* a strike-subject program key, and a pipeline result in both its
  timeline and its object-list form (which must agree);
* the corner types: ``IntEnum``, ``bytes``, ``array``, ``dict``,
  ``frozenset``, nested sequences and ``None``.

Regenerate the file (only for a deliberate change to the key derivation,
which orphans every stored entry, and say so in the change log)::

    PYTHONPATH=src python -m tests.cache_keys_golden
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path

from repro.arch.executor import FunctionalSimulator
from repro.arch.trace import TRACE_FORMAT
from repro.due.tracking import EccScheme, TrackingLevel
from repro.experiments.common import ExperimentSettings
from repro.faults.campaign import CampaignConfig
from repro.faults.mbu import PRESETS
from repro.pipeline.config import MachineConfig, Trigger
from repro.pipeline.core import PipelineSimulator
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import cache_key
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import ALL_PROFILES

from .conftest import SMALL_PROFILE, TEST_SEED

GOLDEN_PATH = (Path(__file__).resolve().parent / "data"
               / "cache_keys_golden.json")

#: Run sizes of the ``run`` and ``functional`` keys: a test size and the
#: exhibits' default.
SIZES = (3000, ExperimentSettings().target_instructions)
#: Committed-instruction target of the program and pipeline cases.
PROGRAM_INSTRUCTIONS = 1500
#: Stands in for a strike subject's digest in the campaign keys.
SUBJECT = "0" * 64


def campaign_configs():
    """(name, config) over the legacy, parity/tracking and MBU x ECC
    corners of :class:`CampaignConfig`."""
    yield "legacy", CampaignConfig()
    yield "legacy-ecc", CampaignConfig(trials=60, seed=7, ecc=True)
    for level in TrackingLevel:
        yield (f"parity/{level.name}",
               CampaignConfig(trials=40, parity=True, tracking=level))
    yield "parity/pet-64", CampaignConfig(parity=True, pet_entries=64)
    for preset in (None, *sorted(PRESETS)):
        for scheme in (None, *EccScheme):
            if preset is None and scheme is None:
                continue
            yield (f"mbu/{preset}/{getattr(scheme, 'name', None)}",
                   CampaignConfig(trials=30, mbu_preset=preset,
                                  scheme=scheme))


def cases():
    """Every golden case as (name, parts), ``parts`` the arguments of
    :func:`cache_key`."""
    for size in SIZES:
        settings = ExperimentSettings(target_instructions=size)
        for profile in ALL_PROFILES:
            yield (f"functional/{profile.name}/{size}",
                   ("functional", TRACE_FORMAT, profile, size,
                    settings.seed))
            for trigger in Trigger:
                yield (f"run/{profile.name}/{trigger.name}/{size}",
                       ("run", profile, size, settings.seed,
                        settings.machine_for(profile, trigger)))
    program = synthesize(SMALL_PROFILE,
                         target_instructions=PROGRAM_INSTRUCTIONS,
                         seed=TEST_SEED)
    yield "strike-subject", ("strike-subject", program)
    trace = FunctionalSimulator(program).run().trace
    pipeline = PipelineSimulator(program, trace, MachineConfig(),
                                 seed=TEST_SEED).run()
    as_list = PipelineResult(pipeline.cycles, pipeline.committed,
                             pipeline.timeline.materialize(),
                             pipeline.iq_entries, dict(pipeline.stats))
    yield "pipeline/timeline", (pipeline,)
    yield "pipeline/objects", (as_list,)
    for name, config in campaign_configs():
        yield f"campaign/{name}", ("campaign", SUBJECT, pipeline, config)
    yield "corner/intenum", (TrackingLevel.MEM_PI, TrackingLevel.PARITY_ONLY)
    yield "corner/bool-int", (True, 1, False, 0, -7, 2 ** 70)
    yield "corner/float-str", (0.1, -0.0, float("inf"), "", "é\x1f")
    yield "corner/bytes", (b"", b"\x00\x1f\xff")
    yield "corner/array", (array("q", [1, -2, 3]), array("B", b"ab"),
                           array("d", [0.5]))
    yield "corner/dict", ({"b": 2, "a": [1, (None,)], 3: {"x": None}},)
    yield "corner/frozenset", (frozenset({3, "a", (1, 2)}), {1, 2})
    yield "corner/nested", ([], (), [[()], ((),)], None)


def derive() -> dict:
    return {name: cache_key(*parts) for name, parts in cases()}


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    records = derive()
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True)
                           + "\n")
    print(f"wrote {len(records)} cache-key digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
