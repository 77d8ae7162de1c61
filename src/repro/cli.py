"""Command-line interface: regenerate any paper exhibit.

Usage::

    python -m repro table1 --instructions 60000
    python -m repro figure2 --profiles 8 --jobs 4
    python -m repro figure1 --trials 500 --cache-dir ~/.cache/repro
    python -m repro all --profiles 6 --instructions 20000

``--jobs N`` fans benchmark runs and campaign trials out over N worker
processes; results are bit-identical to the serial default.
``--cache-dir`` enables the persistent result cache, which doubles as a
cross-exhibit timeline store: each timing run stores its compact
interval timeline, so a warmed cache re-runs the whole exhibit suite
without a single pipeline simulation. The telemetry footer reports
simulations run, throughput, and hit rates.

Failure semantics: ``--retries`` and ``--trial-timeout`` configure the
supervision layer (crashed or hung shards are retried with backoff and
deterministically-failing trials quarantined); ``--checkpoint-dir``
journals completed campaign blocks so an interrupted run (Ctrl-C,
SIGTERM) exits cleanly and ``--resume`` continues it bit-identically;
``--chaos kill-worker,corrupt-cache,...`` injects deterministic faults
into the runtime itself to prove those recovery paths.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.due.tracking import EccScheme
from repro.experiments import (
    ablations,
    figure1,
    figure2,
    figure3,
    figure4,
    fitsweep,
    occupancy,
    regfile,
    table1,
    table2,
)
from repro.experiments.common import ExperimentSettings
from repro.faults.mbu import PRESETS
from repro.runtime.chaos import CHAOS_MODES, ChaosConfig
from repro.runtime.context import configure
from repro.runtime.resilience import CampaignInterrupted
from repro.workloads.spec2000 import ALL_PROFILES


def _select_profiles(count: Optional[int]):
    if count is None or count >= len(ALL_PROFILES):
        return list(ALL_PROFILES)
    step = max(1, len(ALL_PROFILES) // count)
    return ALL_PROFILES[::step][:count]


def _exhibit_runners(args) -> Dict[str, Callable[[], str]]:
    settings = ExperimentSettings(target_instructions=args.instructions,
                                  seed=args.seed)
    profiles = _select_profiles(args.profiles)
    return {
        "table1": lambda: table1.format_result(
            table1.run(settings, profiles)),
        "table2": lambda: table2.format_result(),
        "occupancy": lambda: occupancy.format_result(
            occupancy.run(settings, profiles)),
        "figure1": lambda: figure1.format_result(
            figure1.run(settings, trials=args.trials)),
        "figure2": lambda: figure2.format_result(
            figure2.run(settings, profiles)),
        "figure3": lambda: figure3.format_result(
            figure3.run(settings, profiles)),
        "figure4": lambda: figure4.format_result(
            figure4.run(settings, profiles)),
        "ablations": lambda: "\n\n".join(
            ablations.format_result(fn(settings, profiles))
            for fn in (ablations.accounting_policy,
                       ablations.refetch_policy,
                       ablations.squash_vs_throttle,
                       ablations.issue_policy_contrast,
                       ablations.queue_size_sweep)),
        "regfile": lambda: regfile.format_result(
            regfile.run(settings, profiles)),
        "fitsweep": lambda: fitsweep.format_result(
            fitsweep.run(settings, trials=args.trials,
                         preset_name=args.mbu_preset,
                         scheme_name=args.ecc_scheme)),
        "characterize": lambda: _characterize(settings, profiles),
        "report": lambda: _benchmark_report(args, settings),
    }


def _characterize(settings: ExperimentSettings, profiles) -> str:
    from repro.workloads.characterize import (
        characterize,
        format_characterization,
    )

    return format_characterization(characterize(settings, profiles))


def _benchmark_report(args, settings: ExperimentSettings) -> str:
    from repro.analysis.report import benchmark_report
    from repro.experiments.common import run_benchmark
    from repro.pipeline.config import Trigger
    from repro.workloads.spec2000 import get_profile

    run = run_benchmark(get_profile(args.benchmark), settings, Trigger.NONE)
    return benchmark_report(run, injection_trials=args.trials,
                            seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate exhibits from Weaver et al., ISCA 2004 "
                    "('Techniques to Reduce the Soft Error Rate of a "
                    "High-Performance Microprocessor').",
    )
    parser.add_argument(
        "exhibit",
        choices=["table1", "table2", "occupancy", "figure1", "figure2",
                 "figure3", "figure4", "ablations", "regfile", "fitsweep",
                 "characterize", "report", "serve", "all"],
        help="which exhibit to regenerate ('all' runs every paper "
             "exhibit; 'serve' starts the AVF query service instead)")
    parser.add_argument(
        "--benchmark", default="crafty",
        help="benchmark name for the 'report' dossier (default crafty)")
    parser.add_argument(
        "--instructions", type=int, default=60_000,
        help="dynamic instructions per benchmark trace (default 60000)")
    parser.add_argument(
        "--profiles", type=int, default=None,
        help="number of benchmark profiles (default: all 26)")
    parser.add_argument(
        "--trials", type=int, default=400,
        help="fault-injection trials for figure1 (default 400)")
    parser.add_argument(
        "--seed", type=int, default=2004,
        help="root seed for deterministic replay (default 2004)")
    parser.add_argument(
        "--mbu-preset", default=None, choices=sorted(PRESETS),
        help="multi-bit upset severity preset for campaigns and the "
             "fitsweep exhibit (default: single-bit faults; fitsweep "
             "falls back to 'terrestrial')")
    parser.add_argument(
        "--ecc-scheme", default=None,
        choices=[s.value for s in EccScheme],
        help="protection scheme from the ECC lattice; restricts the "
             "fitsweep exhibit to one scheme (default: sweep the whole "
             "lattice)")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for campaigns and benchmark runs "
             "(default 1 = serial; results are identical either way)")
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for the persistent result cache (default: off)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent cache entirely (no reads, no writes)")
    parser.add_argument(
        "--retries", type=int, default=2,
        help="retry budget per failed shard/benchmark before quarantine "
             "(default 2; 0 = fail fast)")
    parser.add_argument(
        "--trial-timeout", type=float, default=None,
        help="watchdog deadline per campaign trial, in seconds; a shard "
             "of N trials is declared hung after N x this (default: off)")
    parser.add_argument(
        "--checkpoint-dir", default=None,
        help="journal completed campaign blocks here so interrupted runs "
             "can be resumed (default: off)")
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted campaign from its checkpoint "
             "journal (requires --checkpoint-dir); tallies are "
             "bit-identical to an uninterrupted run")
    parser.add_argument(
        "--chaos", default=None, metavar="MODES",
        help="inject deterministic faults into the runtime itself; comma "
             f"list of {', '.join(CHAOS_MODES)}")
    parser.add_argument(
        "--chaos-seed", type=int, default=1337,
        help="seed for the chaos injector's decisions (default 1337)")
    parser.add_argument(
        "--service", default=os.environ.get("REPRO_SERVICE") or None,
        metavar="HOST:PORT",
        help="running 'repro serve' instance to use as a fleet-wide "
             "timeline store: timing entries are fetched from it before "
             "simulating and written through after (default: "
             "$REPRO_SERVICE; service failures degrade to local compute)")
    parser.add_argument(
        "--service-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt socket timeout for service clients (default "
             "$REPRO_SERVICE_TIMEOUT, else 60s for the timeline store / "
             "300s interactive)")
    parser.add_argument(
        "--host", default=None,
        help="serve: listen address (default $REPRO_SERVE_HOST or "
             "127.0.0.1)")
    parser.add_argument(
        "--port", type=int, default=None,
        help="serve: listen port, 0 picks a free one (default "
             "$REPRO_SERVE_PORT or 8787)")
    parser.add_argument(
        "--lru-entries", type=int, default=None,
        help="serve: answered-key LRU capacity, and the parse memo's "
             "(default $REPRO_SERVE_LRU or 256)")
    parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="serve: cold computations admitted before new cold keys are "
             "shed with a retryable 'overloaded' error (default "
             "$REPRO_SERVE_MAX_INFLIGHT or 64; 0 disables shedding)")
    parser.add_argument(
        "--compute-deadline", type=float, default=None, metavar="SECONDS",
        help="serve: per-query answer deadline; past it the request "
             "fails with retryable 'deadline-exceeded' while the "
             "computation continues into the LRU (default "
             "$REPRO_SERVE_DEADLINE or off)")
    parser.add_argument(
        "--verbose", action="store_true",
        help="extended telemetry footer: oracle fast-path breakdown, "
             "warmed-hierarchy reuse, and raw counters")
    return parser


def _run_server(args, runtime) -> int:
    """``repro serve``: run the AVF query service until interrupted.

    The service answers over the *active* runtime context, so ``--jobs``,
    ``--cache-dir``, ``--retries`` and friends shape every cold
    computation exactly as they would a CLI exhibit run.
    """
    from repro.serve.server import ServeConfig, serve_forever

    try:
        config = ServeConfig.from_env(host=args.host, port=args.port,
                                      lru_entries=args.lru_entries,
                                      max_inflight=args.max_inflight,
                                      compute_deadline=args.compute_deadline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def announce(message: str) -> None:
        print(message, flush=True)

    # SIGTERM is handled by the server's own asyncio handler (graceful
    # drain, exit 143) — it supersedes the generic KeyboardInterrupt
    # conversion while the loop runs.
    code = serve_forever(config, announce)
    print(runtime.telemetry.format_summary(cache=runtime.cache,
                                           jobs=runtime.jobs,
                                           verbose=args.verbose))
    return code


def _install_sigterm_handler() -> None:
    """Convert SIGTERM into KeyboardInterrupt so campaigns drain cleanly."""
    def _handler(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):
        # Not the main thread (embedded use) or unsupported platform.
        pass


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos:
        try:
            chaos = ChaosConfig.parse(args.chaos, seed=args.chaos_seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        runtime = configure(jobs=args.jobs, cache_dir=args.cache_dir,
                            no_cache=args.no_cache, retries=args.retries,
                            trial_timeout=args.trial_timeout,
                            checkpoint_dir=args.checkpoint_dir,
                            resume=args.resume, chaos=chaos,
                            service=args.service,
                            service_timeout=args.service_timeout,
                            mbu_preset=args.mbu_preset,
                            ecc_scheme=args.ecc_scheme)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _install_sigterm_handler()
    if args.exhibit == "serve":
        return _run_server(args, runtime)
    runners = _exhibit_runners(args)
    if args.exhibit == "all":
        names = ["table1", "table2", "occupancy", "figure1", "figure2",
                 "figure3", "figure4"]
    else:
        names = [args.exhibit]
    try:
        for name in names:
            started = time.time()
            text = runners[name]()
            elapsed = time.time() - started
            print(text)
            print(f"\n[{name} regenerated in {elapsed:.1f}s]\n")
    except (KeyboardInterrupt, CampaignInterrupted) as exc:
        detail = str(exc) or "signal received"
        hint = ("; resume with --resume --checkpoint-dir "
                f"{args.checkpoint_dir}" if args.checkpoint_dir else "")
        print(f"\n[interrupted: {detail}{hint}]", file=sys.stderr)
        print(runtime.telemetry.format_summary(cache=runtime.cache,
                                               jobs=runtime.jobs,
                                               verbose=args.verbose))
        return 130
    print(runtime.telemetry.format_summary(cache=runtime.cache,
                                           jobs=runtime.jobs,
                                           verbose=args.verbose))
    return 0


if __name__ == "__main__":
    sys.exit(main())
