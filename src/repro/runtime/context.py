"""The active runtime: workers, cache, telemetry, and failure policy.

Experiments and campaigns read the process-wide context installed here;
the default is serial with no persistent cache, no checkpointing, and no
chaos, which preserves the pre-runtime behaviour exactly. The CLI and
the benchmark suite install a configured context from ``--jobs`` /
``--cache-dir`` / ``--no-cache`` / ``--retries`` / ``--trial-timeout`` /
``--checkpoint-dir`` / ``--resume`` / ``--chaos`` flags (or their
``REPRO_BENCH_*`` environment twins).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.runtime.cache import ResultCache
from repro.runtime.chaos import ChaosConfig
from repro.runtime.resilience import RetryPolicy
from repro.runtime.telemetry import Telemetry


@dataclass
class RuntimeContext:
    """Everything the execution engine needs to know about *how* to run."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    telemetry: Telemetry = field(default_factory=Telemetry)
    #: Retry/backoff/watchdog budget for supervised fan-outs.
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Deterministic fault injector for the runtime itself (None = off).
    chaos: Optional[ChaosConfig] = None
    #: Campaign checkpoint journal directory (None = no checkpointing).
    checkpoint_dir: Optional[Path] = None
    #: Continue an interrupted campaign from its checkpoint journal.
    resume: bool = False
    #: Let the effect oracle classify provably-inert strikes without
    #: re-execution (``--no-static-filter`` turns this off to measure the
    #: filter / reproduce seed-era wall-clock; tallies are identical).
    static_filter: bool = True
    #: Draw each campaign's strikes as one array batch and classify them
    #: through the vectorised bit-matrix pre-filter
    #: (``--no-batch-strikes`` selects per-trial sampling; tallies,
    #: cache keys, and oracle counters are bit-identical either way).
    batch_strikes: bool = True
    #: ``host:port`` of a running ``repro serve`` instance to use as the
    #: fleet-wide timeline store (``--service`` / ``REPRO_SERVICE``).
    #: Timing entries missing locally are fetched from it and computed
    #: results are written through; any service failure degrades to a
    #: local compute, never an error.
    service: Optional[str] = None
    #: Per-attempt socket timeout, in seconds, for service clients
    #: (``--service-timeout`` / ``REPRO_SERVICE_TIMEOUT``; None = each
    #: client's own default: 60 s for the remote store, 300 s
    #: interactive).
    service_timeout: Optional[float] = None
    #: Default multi-bit upset severity preset for campaigns/exhibits
    #: that don't name one explicitly (``--mbu-preset``; a preset name
    #: from ``repro.faults.mbu``, kept as a string so the runtime layer
    #: stays free of fault-model imports). None = single-bit faults.
    mbu_preset: Optional[str] = None
    #: Default ECC lattice scheme (``--ecc-scheme``; an
    #: ``EccScheme.value`` string from ``repro.due.tracking``). None =
    #: the exhibit's own default protection.
    ecc_scheme: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.service_timeout is not None and self.service_timeout <= 0:
            raise ValueError("service_timeout must be positive")
        if self.checkpoint_dir is not None:
            self.checkpoint_dir = Path(self.checkpoint_dir)
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume requires a checkpoint_dir")

    @property
    def cache_dir(self) -> Optional[str]:
        """Cache root as a plain string (picklable, for worker handoff)."""
        return None if self.cache is None else str(self.cache.root)


_current = RuntimeContext()


def get_runtime() -> RuntimeContext:
    return _current


def set_runtime(context: RuntimeContext) -> RuntimeContext:
    global _current
    _current = context
    return context


def reset_runtime() -> RuntimeContext:
    """Back to the serial, cache-less default (mainly for tests)."""
    return set_runtime(RuntimeContext())


def configure(
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    retries: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    chaos: Optional[Union[ChaosConfig, str]] = None,
    chaos_seed: int = 1337,
    static_filter: bool = True,
    batch_strikes: bool = True,
    service: Optional[str] = None,
    service_timeout: Optional[float] = None,
    mbu_preset: Optional[str] = None,
    ecc_scheme: Optional[str] = None,
) -> RuntimeContext:
    """Build and install a context from CLI-style knobs.

    ``no_cache`` wins over ``cache_dir``: it disables both cache reads
    and cache writes even when a directory is supplied. ``chaos`` may be
    a :class:`ChaosConfig` or a ``--chaos``-style comma list.
    """
    cache = None
    if cache_dir is not None and not no_cache:
        cache = ResultCache(cache_dir)
    policy = RetryPolicy(
        retries=RetryPolicy.retries if retries is None else retries,
        trial_timeout=trial_timeout,
    )
    if isinstance(chaos, str):
        chaos = ChaosConfig.parse(chaos, seed=chaos_seed)
    return set_runtime(RuntimeContext(
        jobs=jobs, cache=cache, policy=policy, chaos=chaos,
        checkpoint_dir=None if checkpoint_dir is None
        else Path(checkpoint_dir),
        resume=resume, static_filter=static_filter,
        batch_strikes=batch_strikes, service=service,
        service_timeout=service_timeout,
        mbu_preset=mbu_preset, ecc_scheme=ecc_scheme))


@contextmanager
def use_runtime(
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    telemetry: Optional[Telemetry] = None,
    policy: Optional[RetryPolicy] = None,
    chaos: Optional[ChaosConfig] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    static_filter: bool = True,
    batch_strikes: bool = True,
    service: Optional[str] = None,
    service_timeout: Optional[float] = None,
    mbu_preset: Optional[str] = None,
    ecc_scheme: Optional[str] = None,
) -> Iterator[RuntimeContext]:
    """Scoped context install; restores the previous context on exit."""
    if cache is None and cache_dir is not None and not no_cache:
        cache = ResultCache(cache_dir)
    if no_cache:
        cache = None
    context = RuntimeContext(jobs=jobs, cache=cache,
                             telemetry=telemetry or Telemetry(),
                             policy=policy or RetryPolicy(),
                             chaos=chaos,
                             checkpoint_dir=checkpoint_dir,
                             resume=resume,
                             static_filter=static_filter,
                             batch_strikes=batch_strikes,
                             service=service,
                             service_timeout=service_timeout,
                             mbu_preset=mbu_preset,
                             ecc_scheme=ecc_scheme)
    previous = get_runtime()
    set_runtime(context)
    try:
        yield context
    finally:
        set_runtime(previous)
