"""AVF-as-a-service: an async query layer over the runtime's stores.

The serving stack has five pieces:

* :mod:`repro.serve.protocol` — the newline-delimited-JSON wire format:
  request validation, canonical query keys, and the result encoders whose
  output is byte-identical to encoding a direct engine call;
* :mod:`repro.serve.server` — the :class:`AvfServer` asyncio service:
  warm keys answered from a bounded LRU in microseconds, cold keys
  deduplicated/coalesced onto exactly one computation on the supervised
  engine, bounded admission with load shedding, per-request deadlines,
  and SIGTERM → graceful drain;
* :mod:`repro.serve.client` — one asyncio client,
  :class:`AsyncServeClient`, that owns framing, multiplexing, retry,
  backoff, the circuit breaker and deadlines; :class:`ServeClient`, a
  blocking facade over it; and the failure-tolerant
  :class:`RemoteStore` that lets the experiment plumbing fetch/put
  timeline entries through a running service;
* :mod:`repro.serve.resilience` — the client-side failure machinery:
  :class:`CircuitBreaker`, :class:`ClientPolicy`, deadline budgets;
* :mod:`repro.serve.chaos` — a seeded deterministic TCP chaos proxy
  (:class:`ChaosProxy`) that damages the wire so the above can be proven
  rather than assumed.
"""

from repro.serve.chaos import ChaosProxy, WireChaosConfig
from repro.serve.client import (
    AsyncServeClient,
    RemoteStore,
    ServeClient,
    ServeError,
)
from repro.serve.protocol import (
    ProtocolError,
    canonical_dumps,
    encode_benchmark,
    encode_campaign,
    parse_query,
)
from repro.serve.resilience import (
    BreakerOpen,
    CircuitBreaker,
    ClientPolicy,
    DeadlineBudget,
)
from repro.serve.server import AvfServer, ServeConfig

__all__ = [
    "AsyncServeClient",
    "AvfServer",
    "BreakerOpen",
    "ChaosProxy",
    "CircuitBreaker",
    "ClientPolicy",
    "DeadlineBudget",
    "ProtocolError",
    "RemoteStore",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "WireChaosConfig",
    "canonical_dumps",
    "encode_benchmark",
    "encode_campaign",
    "parse_query",
]
