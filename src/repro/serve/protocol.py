"""Wire format and key schema for the AVF query service.

Transport is newline-delimited JSON over a stream: each request is one
JSON object on one line, and each response line echoes the request's
``id`` so clients may pipeline and multiplex freely. A request produces
one or two lines:

* ``{"event": "accepted", "status": "cold" | "coalesced", ...}`` — sent
  immediately when the answer requires (or is already waiting on) a
  computation;
* ``{"event": "result", "status": "warm" | "cold", "value": ...}`` — the
  answer itself; ``warm`` means it came straight from the server's LRU;
* ``{"event": "error", "error": {"code", "message"}}`` — a structured
  failure; the connection stays usable.

**Key schema.** Every query normalises to ``(op, profile,
target_instructions, seed, resolved MachineConfig[, campaign config])``.
The machine is resolved *before* keying — profile bubble probability and
trigger folded in, overrides applied — and serialised field-by-field, so
two requests share a key exactly when they denote the same simulation
(the same full-machine rule as the in-process timeline store; trigger-only
keys would alias ablation variants). The canonical key is the sorted,
separator-free JSON dump of that normalised form.

The encoders at the bottom define the service's answer payloads. They are
deliberately the *only* way answers are rendered: the test suite and the
load harness feed direct ``run_benchmark`` / ``run_campaign`` results
through the same encoders and require byte-identical
:func:`canonical_dumps` output, which is what makes "served answer ==
direct engine call" checkable at the byte level.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.due.tracking import DEFAULT_PET_ENTRIES, TrackingLevel
from repro.faults.campaign import CampaignConfig, CampaignResult
from repro.pipeline.config import (
    IssuePolicy,
    MachineConfig,
    SquashAction,
    Trigger,
)

#: Stream line-length cap for servers and asyncio clients. Store entries
#: carry base64-pickled interval timelines, which run to megabytes for
#: full-size traces; asyncio's default 64 KiB readline limit would
#: truncate them mid-line.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Ops that resolve through the compute path (LRU + coalescing).
QUERY_OPS = ("avf", "campaign")
#: Every op the server understands.
ALL_OPS = QUERY_OPS + ("ping", "stats", "health", "store.get", "store.put",
                       "shutdown")

#: Error codes that invite a retry (the condition is transient and the
#: answer, when it comes, will be the same bytes): shed by admission
#: control, refused during drain, interrupted by shutdown, or timed out
#: against a compute deadline. Shared vocabulary between server errors
#: and client retry policy.
RETRYABLE_ERROR_CODES = ("overloaded", "draining", "deadline-exceeded",
                         "shutdown")

#: MachineConfig fields a request may override, with their JSON types.
#: Enum-valued and nested squash knobs are handled separately below.
_MACHINE_SCALARS = {
    "fetch_width": int,
    "issue_width": int,
    "commit_width": int,
    "iq_entries": int,
    "scheduler_window": int,
    "frontend_depth": int,
    "branch_resolve_latency": int,
    "commit_latency": int,
    "alu_latency": int,
    "mul_latency": int,
    "compare_latency": int,
    "mem_ports": int,
    "mul_units": int,
    "branch_units": int,
    "frequency_ghz": float,
    "fetch_bubble_prob": float,
    "fetch_bubble_mean_len": float,
    "warmup_tail_accesses": int,
    "warm_caches": bool,
    "max_cycles": int,
}


class ProtocolError(Exception):
    """A structured, client-visible request failure.

    ``retry_after`` (seconds, 0 = no hint) rides along on transient
    errors — shedding and drain refusals — so clients can pace their
    retries to the server's estimate instead of guessing.
    """

    def __init__(self, code: str, message: str,
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def payload(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.retry_after > 0.0:
            body["retry_after"] = self.retry_after
        return body


@dataclass(frozen=True)
class Query:
    """A validated compute request, ready for the engine."""

    op: str
    key: str
    profile_name: str
    target_instructions: int
    seed: int
    machine: MachineConfig
    campaign: Optional[CampaignConfig]
    normalized: Dict[str, Any]


#: Built once: ``json.dumps`` with options builds an encoder per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(obj: Any) -> str:
    """The one JSON rendering used for keys and byte-identity checks."""
    return _CANONICAL.encode(obj)


def parse_line(line: bytes) -> Dict[str, Any]:
    """Decode one request line into a JSON object (or raise)."""
    try:
        request = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError("bad-json", f"request is not valid JSON: {exc}")
    if not isinstance(request, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    return request


def _jsonable(value: Any) -> Any:
    """Dataclasses/enums → plain JSON values, recursively."""
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: _jsonable(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _require(request: Dict[str, Any], field: str, kind, default=None):
    """Typed field lookup; ``None`` default means the field is required."""
    if field not in request:
        if default is None:
            raise ProtocolError("bad-request",
                                f"missing required field {field!r}")
        return default
    value = request[field]
    if kind is int and isinstance(value, bool):
        raise ProtocolError("bad-request", f"field {field!r} must be an int")
    if kind is float and isinstance(value, int) and not isinstance(value,
                                                                  bool):
        value = float(value)
    if not isinstance(value, kind):
        raise ProtocolError(
            "bad-request",
            f"field {field!r} must be {getattr(kind, '__name__', kind)}")
    return value


def _parse_enum(enum_cls, raw: Any, field: str):
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(repr(m.value) for m in enum_cls)
        raise ProtocolError(
            "bad-request",
            f"field {field!r} must be one of {choices} (got {raw!r})")


def _resolve_machine(request: Dict[str, Any], profile) -> MachineConfig:
    """Default machine specialised to the profile + trigger, overridden."""
    trigger = _parse_enum(Trigger, _require(request, "trigger", str, "none"),
                          "trigger")
    overrides = _require(request, "machine", dict, {})
    machine = MachineConfig(fetch_bubble_prob=profile.fetch_bubble_prob)
    machine = replace(machine, squash=replace(machine.squash,
                                              trigger=trigger))
    squash = machine.squash
    fields: Dict[str, Any] = {}
    for name, raw in overrides.items():
        if name in _MACHINE_SCALARS:
            kind = _MACHINE_SCALARS[name]
            if kind is float and isinstance(raw, int) \
                    and not isinstance(raw, bool):
                raw = float(raw)
            if not isinstance(raw, kind) or (kind is not bool
                                             and isinstance(raw, bool)):
                raise ProtocolError(
                    "bad-request",
                    f"machine.{name} must be {kind.__name__}")
            fields[name] = raw
        elif name == "issue_policy":
            fields[name] = _parse_enum(IssuePolicy, raw,
                                       "machine.issue_policy")
        elif name == "squash_action":
            squash = replace(squash, action=_parse_enum(
                SquashAction, raw, "machine.squash_action"))
        elif name == "resume_at_miss_return":
            if not isinstance(raw, bool):
                raise ProtocolError(
                    "bad-request",
                    "machine.resume_at_miss_return must be bool")
            squash = replace(squash, resume_at_miss_return=raw)
        else:
            raise ProtocolError("bad-request",
                                f"unknown machine override {name!r}")
    try:
        return replace(machine, squash=squash, **fields)
    except ValueError as exc:
        raise ProtocolError("bad-request", f"invalid machine config: {exc}")


def _parse_tracking(raw: Any) -> TrackingLevel:
    if isinstance(raw, str):
        try:
            return TrackingLevel[raw]
        except KeyError:
            names = ", ".join(level.name for level in TrackingLevel)
            raise ProtocolError(
                "bad-request",
                f"field 'tracking' must be one of {names} (got {raw!r})")
    if isinstance(raw, int) and not isinstance(raw, bool):
        try:
            return TrackingLevel(raw)
        except ValueError:
            raise ProtocolError("bad-request",
                                f"no tracking level {raw!r}")
    raise ProtocolError("bad-request",
                        "field 'tracking' must be a name or level number")


#: Request fields :func:`parse_query` never reads: the echo id and the
#: per-request answer deadline (which the server reads from the live
#: request). Only these may differ between requests that share a parse.
UNPARSED_FIELDS = ("id", "deadline")


def query_text(request: Dict[str, Any]) -> str:
    """The canonical text of everything :func:`parse_query` may read.

    Two requests with the same text parse to the same :class:`Query`.
    The text keeps every field but :data:`UNPARSED_FIELDS`, with its JSON
    type, so ``true`` and ``1`` (or ``2000`` and ``2000.0``) stay apart.
    """
    kept = dict(request)
    for name in UNPARSED_FIELDS:
        kept.pop(name, None)
    return canonical_dumps(kept)


def parse_query(request: Dict[str, Any]) -> Query:
    """Validate an ``avf``/``campaign`` request into a keyed :class:`Query`.

    Raises :class:`ProtocolError` (never anything else) on any malformed,
    unknown, or out-of-range field, so the server can answer with a
    structured error instead of dying. Reads no field in
    :data:`UNPARSED_FIELDS`.
    """
    from repro.workloads.spec2000 import get_profile

    op = _require(request, "op", str)
    if op not in QUERY_OPS:
        raise ProtocolError("bad-request",
                            f"op must be one of {QUERY_OPS} (got {op!r})")
    profile_name = _require(request, "profile", str)
    try:
        profile = get_profile(profile_name)
    except KeyError as exc:
        raise ProtocolError("unknown-profile", str(exc))
    target = _require(request, "target_instructions", int, 60_000)
    if target <= 0:
        raise ProtocolError("bad-request",
                            "target_instructions must be positive")
    seed = _require(request, "seed", int, 2004)
    if seed < 0:
        raise ProtocolError("bad-request", "seed must be non-negative")
    machine = _resolve_machine(request, profile)

    campaign = None
    normalized: Dict[str, Any] = {
        "op": op,
        "profile": profile_name,
        "target_instructions": target,
        "seed": seed,
        "machine": _jsonable(machine),
    }
    if op == "campaign":
        trials = _require(request, "trials", int, 400)
        campaign_seed = _require(request, "campaign_seed", int, seed)
        parity = _require(request, "parity", bool, False)
        ecc = _require(request, "ecc", bool, False)
        pet_entries = _require(request, "pet_entries", int,
                               DEFAULT_PET_ENTRIES)
        tracking = _parse_tracking(request.get("tracking", "PARITY_ONLY"))
        try:
            campaign = CampaignConfig(trials=trials, seed=campaign_seed,
                                      parity=parity, tracking=tracking,
                                      pet_entries=pet_entries, ecc=ecc)
        except ValueError as exc:
            raise ProtocolError("bad-request",
                                f"invalid campaign config: {exc}")
        normalized["campaign"] = {
            "trials": trials,
            "seed": campaign_seed,
            "parity": parity,
            "tracking": tracking.name,
            "pet_entries": pet_entries,
            "ecc": ecc,
        }
    return Query(op=op, key=canonical_dumps(normalized),
                 profile_name=profile_name, target_instructions=target,
                 seed=seed, machine=machine, campaign=campaign,
                 normalized=normalized)


def encode_answer(key: str, value: Any) -> Tuple[str, str]:
    """An answer's wire-ready parts: the canonical JSON of key and value."""
    return canonical_dumps(key), canonical_dumps(value)


def answer_line(request_id: Any, status: str,
                answer: Tuple[str, str]) -> bytes:
    """The ``result`` line of an answered query, from its encoded parts.

    Byte-identical to ``(canonical_dumps(payload) + "\\n").encode()`` for
    ``payload = {"id": request_id, "event": "result", "ok": True,
    "status": status, "key": key, "value": value}``: the fields are
    spliced in sorted-key order around the pre-encoded key and value, so
    an answer is encoded once however often it is sent. ``status`` is
    ``"warm"`` or ``"cold"``, which need no escaping.
    """
    key_text, value_text = answer
    return ('{"event":"result","id":' + canonical_dumps(request_id)
            + ',"key":' + key_text + ',"ok":true,"status":"' + status
            + '","value":' + value_text + '}\n').encode()


# -- answer encoders ---------------------------------------------------------


def encode_benchmark(run) -> Dict[str, Any]:
    """Service payload for one :class:`BenchmarkRun` (AVF/MITF answer)."""
    report = run.report
    payload = {
        "profile": report.name,
        "ipc": report.ipc,
        "cycles": report.cycles,
        "committed": report.committed,
        "sdc_avf": report.sdc_avf,
        "due_avf": report.due_avf,
        "false_due_avf": report.false_due_avf,
        "residency": report.residency_summary(),
        "false_due_components": report.false_due_components(),
        "mitf": {
            "ipc_over_sdc_avf": (report.ipc_over_sdc_avf
                                 if report.sdc_avf > 0 else None),
            "ipc_over_due_avf": (report.ipc_over_due_avf
                                 if report.due_avf > 0 else None),
        },
    }
    return payload


def encode_campaign(result: CampaignResult) -> Dict[str, Any]:
    """Service payload for one :class:`CampaignResult` (injection answer)."""
    tally = result.tally.to_json()
    return {
        "trials": result.trials,
        "counts": tally["counts"],
        "tracker_misses": tally["misses"],
        "sdc_avf_estimate": result.sdc_avf_estimate,
        "due_avf_estimate": result.due_avf_estimate,
        "false_due_estimate": result.false_due_estimate,
    }


def validate_store_key(raw: Any) -> str:
    """A store key must be a sha256 hex digest (the cache's key space)."""
    if not isinstance(raw, str) or len(raw) != 64 \
            or any(c not in "0123456789abcdef" for c in raw):
        raise ProtocolError("bad-request",
                            "store key must be a 64-char sha256 hex digest")
    return raw

