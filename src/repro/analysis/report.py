"""Single-benchmark deep-dive report.

Combines every analysis the library offers for one benchmark into a
plain-text dossier: instruction mix, timing, cache behaviour, the IQ's
residency decomposition and AVFs, the tracking ladder, the register-file
AVF, and (optionally) a fault-injection cross-check.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.analysis.deadcode import DynClass
from repro.analysis.regfile import compute_regfile_avf
from repro.due.tracking import TRACKING_LADDER, due_avf_with_tracking
from repro.experiments.common import BenchmarkRun
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.isa.opcodes import InstrClass
from repro.util.tables import format_table


def _mix_section(run: BenchmarkRun) -> str:
    counts = Counter(instruction.instr_class for instruction in
                     run.execution.trace.row_instructions())
    total = max(1, len(run.execution.trace))
    rows = [[klass.value, f"{counts[klass] / total:.1%}"]
            for klass in InstrClass if counts[klass]]
    return format_table(["class", "share"], rows,
                        title="dynamic instruction mix")


def _deadness_section(run: BenchmarkRun) -> str:
    summary = run.deadness.summary()
    rows = [[cls.value, f"{summary[cls.value]:.1%}"]
            for cls in DynClass if summary[cls.value] > 0]
    return format_table(["ACE class", "share of commits"], rows,
                        title="dead-code analysis")


def _timing_section(run: BenchmarkRun) -> str:
    stats = run.pipeline.stats
    loads = max(1, stats.get("loads", 0))
    lines = [
        "timing",
        f"  cycles            {run.pipeline.cycles}",
        f"  IPC               {run.pipeline.ipc:.3f}",
        f"  L0 miss rate      {stats.get('l0_misses', 0) / loads:.1%} of loads",
        f"  L1 miss rate      {stats.get('l1_misses', 0) / loads:.1%} of loads",
        f"  branch mispredict "
        f"{stats.get('branch_mispredictions', 0):.0f} / "
        f"{stats.get('branch_predictions', 0):.0f}",
        f"  wrong-path fetched {stats.get('wrong_path_fetched', 0):.0f}",
        f"  squash events     {stats.get('squash_events', 0):.0f}",
    ]
    return "\n".join(lines)


def _avf_section(run: BenchmarkRun) -> str:
    report = run.report
    residency = report.residency_summary()
    lines = [
        "instruction-queue AVF",
        f"  idle {residency['idle']:.1%} | ACE {residency['ace']:.1%} | "
        f"valid un-ACE {residency['valid_unace']:.1%} | "
        f"Ex-ACE {residency['ex_ace']:.1%}",
        f"  SDC AVF (unprotected)  {report.sdc_avf:.1%}",
        f"  DUE AVF (parity)       {report.due_avf:.1%}",
    ]
    for level in TRACKING_LADDER:
        due = due_avf_with_tracking(report.breakdown, level)
        lines.append(f"    with {level.name:12s} {due:.1%}")
    return "\n".join(lines)


def _regfile_section(run: BenchmarkRun) -> str:
    avf = compute_regfile_avf(run.pipeline, run.execution.trace,
                              run.deadness)
    return (
        "register-file AVF\n"
        f"  SDC AVF {avf.sdc_avf:.1%} | parity DUE "
        f"{avf.due_avf_with_parity:.1%} | with register pi "
        f"{avf.due_avf_with_register_pi:.1%}"
    )


def _injection_section(run: BenchmarkRun, trials: int, seed: int) -> str:
    campaign = run_campaign(run.program, run.execution, run.pipeline,
                            CampaignConfig(trials=trials, seed=seed))
    return (
        "fault-injection cross-check (unprotected)\n"
        f"  injected SDC AVF {campaign.sdc_avf_estimate:.1%} "
        f"(+-{campaign.rate_confidence():.1%}, {trials} strikes) vs "
        f"analytical {run.report.sdc_avf:.1%} (conservative)"
    )


def benchmark_report(
    run: BenchmarkRun,
    injection_trials: Optional[int] = None,
    seed: int = 2004,
) -> str:
    """Assemble the full dossier for one :class:`BenchmarkRun`."""
    profile = run.profile
    sections = [
        f"=== {profile.name} ({profile.suite}; paper skip "
        f"{profile.skip_millions:,} M instructions)",
        f"{run.pipeline.committed} committed instructions, "
        f"{len(run.program)} static",
        _mix_section(run),
        _deadness_section(run),
        _timing_section(run),
        _avf_section(run),
        _regfile_section(run),
    ]
    if injection_trials:
        sections.append(_injection_section(run, injection_trials, seed))
    return "\n\n".join(sections)
