"""Golden digests of the dynamic dead-code analysis.

:func:`repro.analysis.deadcode.analyze_deadness` decides, per committed
instruction, the ACE class every AVF in the reproduction starts from.
Its reference is the committed file ``tests/data/deadness_golden.json``:
per benchmark profile (20k committed instructions), the number of
committed instructions and sha256 digests of the ``classes`` list and of
the ``overwrite_distance`` map.

Regenerate the file (only for a deliberate change to the deadness
semantics, and say so in the change log)::

    PYTHONPATH=src python -m tests.deadness_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.deadcode import analyze_deadness
from repro.arch.executor import FunctionalSimulator
from repro.workloads.codegen import synthesize
from repro.workloads.spec2000 import ALL_PROFILES

from .conftest import TEST_SEED

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "deadness_golden.json"

#: Committed-instruction target of every case.
PROFILE_INSTRUCTIONS = 20_000


def execute(profile):
    program_ = synthesize(profile, target_instructions=PROFILE_INSTRUCTIONS,
                          seed=TEST_SEED)
    execution = FunctionalSimulator(program_).run()
    assert execution.clean
    return execution


def digest(analysis) -> dict:
    """Golden record of one deadness analysis."""
    classes = hashlib.sha256(
        ",".join(cls.value for cls in analysis.classes).encode())
    distances = hashlib.sha256(
        repr(sorted(analysis.overwrite_distance.items())).encode())
    return {"committed": len(analysis.classes),
            "classes": classes.hexdigest(),
            "overwrite_distance": distances.hexdigest()}


def case(profile) -> dict:
    return digest(analyze_deadness(execute(profile)))


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def write(records: dict) -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(records, indent=1, sort_keys=True)
                           + "\n")


def main() -> None:
    records = {profile.name: case(profile) for profile in ALL_PROFILES}
    write(records)
    print(f"{len(records)} cases -> {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
