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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Optional, Union

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


def _build(
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    retries: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    chaos_seed: int = 1337,
    **settings: Any,
) -> RuntimeContext:
    """A context from :class:`RuntimeContext` fields plus CLI-style knobs.

    Any field may be passed by name; a None value keeps the field's
    default. ``cache_dir`` opens a :class:`ResultCache` unless ``cache``
    is given; ``no_cache`` wins over both, disabling cache reads and
    writes even when a directory is supplied. ``retries`` and
    ``trial_timeout`` override the corresponding :class:`RetryPolicy`
    fields, and ``chaos`` may be a :class:`ChaosConfig` or a
    ``--chaos``-style comma list (seeded by ``chaos_seed``).
    """
    settings = {name: value for name, value in settings.items()
                if value is not None}
    if no_cache:
        settings.pop("cache", None)
    elif cache_dir is not None and "cache" not in settings:
        settings["cache"] = ResultCache(cache_dir)
    overrides = {name: value for name, value in (
        ("retries", retries), ("trial_timeout", trial_timeout))
        if value is not None}
    if overrides:
        settings["policy"] = replace(
            settings.get("policy") or RetryPolicy(), **overrides)
    if isinstance(settings.get("chaos"), str):
        settings["chaos"] = ChaosConfig.parse(settings["chaos"],
                                              seed=chaos_seed)
    return RuntimeContext(**settings)


def configure(**settings: Any) -> RuntimeContext:
    """Build and install a context (see :func:`_build` for the knobs)."""
    return set_runtime(_build(**settings))


@contextmanager
def use_runtime(**settings: Any) -> Iterator[RuntimeContext]:
    """Scoped :func:`configure`; restores the previous context on exit."""
    context = _build(**settings)
    previous = get_runtime()
    set_runtime(context)
    try:
        yield context
    finally:
        set_runtime(previous)
