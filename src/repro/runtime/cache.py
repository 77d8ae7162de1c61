"""Content-addressed persistent result cache.

Keys are sha256 digests over a canonical token stream of every ingredient
that determines a result: the program's instruction bytes, the machine /
squash / campaign configuration, the experiment seed, and a code-version
tag bumped whenever simulation semantics change. Values are pickles on
disk under ``<root>/<key[:2]>/<key>.pkl``, written atomically so parallel
workers can share one cache directory.

Failure policy: the cache must never take a run down. Unreadable,
truncated, or otherwise corrupt entries are treated as misses and
recomputed; write failures are swallowed (and counted) so a read-only
cache directory degrades to a pass-through.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from array import array
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Union

from repro.util.gcpause import gc_paused

#: Bump whenever a change alters simulation semantics (and therefore any
#: previously cached result). Part of every cache key.
CODE_VERSION = "repro-runtime-1"

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()

_SEP = b"\x1f"


def _tokens(obj: Any) -> Iterator[bytes]:
    """Canonical byte tokens for every object a cache key may contain."""
    # Local imports: the simulator packages must not depend on the runtime.
    from repro.isa.instruction import Instruction
    from repro.isa.program import Program
    from repro.pipeline.iq import (
        KIND_BY_CODE,
        IntervalTimeline,
        OccupancyInterval,
    )
    from repro.pipeline.result import PipelineResult

    if obj is None:
        yield b"none"
    elif isinstance(obj, bool):
        yield b"bool:" + (b"1" if obj else b"0")
    elif isinstance(obj, int):
        yield b"int:" + str(obj).encode()
    elif isinstance(obj, float):
        yield b"float:" + repr(obj).encode()
    elif isinstance(obj, str):
        yield b"str:" + obj.encode()
    elif isinstance(obj, bytes):
        yield b"bytes:" + obj
    elif isinstance(obj, array):
        # Numeric columns (strike batches, timeline slices) tokenise by
        # typecode + raw bytes. Campaign cache keys deliberately exclude
        # the batching flag and any drawn strike arrays — batched and
        # scalar runs of the same campaign must hash identically so
        # cached tallies never fork.
        yield b"arr:" + obj.typecode.encode() + b":" + obj.tobytes()
    elif isinstance(obj, Enum):
        yield f"enum:{type(obj).__name__}:{obj.value}".encode()
    elif isinstance(obj, Instruction):
        yield b"insn:" + str(obj.encode()).encode()
    elif isinstance(obj, Program):
        yield b"program:" + obj.name.encode()
        yield from _tokens((obj.entry, obj.data_words))
        yield b",".join(str(i.encode()).encode() for i in obj.instructions)
        for info in obj.functions:
            yield f"fn:{info.name}:{info.entry}:{info.end}".encode()
        yield from _tokens(sorted(
            (k, repr(v)) for k, v in obj.metadata.items()))
    elif isinstance(obj, OccupancyInterval):
        issue = -1 if obj.issue_cycle is None else obj.issue_cycle
        seq = -1 if obj.seq is None else obj.seq
        yield (f"ivl:{seq}:{obj.kind.value}:{obj.alloc_cycle}:"
               f"{issue}:{obj.dealloc_cycle}:"
               f"{obj.instruction.encode()}").encode()
    elif isinstance(obj, IntervalTimeline):
        # Column form of the OccupancyInterval encoding above, token for
        # token (NO_VALUE is already -1), so a result's key is the same
        # whichever timing kernel produced it — no materialisation needed.
        for seq, kind, alloc, issue, dealloc, instr in zip(
                obj.seq, obj.kind, obj.alloc, obj.issue, obj.dealloc,
                obj.instr):
            yield (f"ivl:{seq}:{KIND_BY_CODE[kind].value}:{alloc}:"
                   f"{issue}:{dealloc}:{instr.encode()}").encode()
    elif isinstance(obj, PipelineResult):
        yield b"pipeline"
        yield from _tokens((obj.cycles, obj.committed, obj.iq_entries))
        yield from _tokens(sorted(obj.stats.items()))
        if isinstance(obj.intervals, IntervalTimeline):
            yield from _tokens(obj.intervals)
        else:
            for interval in obj.intervals:
                yield from _tokens(interval)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield b"dc:" + type(obj).__name__.encode()
        # ``_CACHE_OPTIONAL_FIELDS`` names fields that are omitted from
        # the token stream while None: a config may grow new optional
        # knobs without forking the key of every result computed before
        # the knob existed (e.g. pre-MBU campaign tallies).
        optional = getattr(type(obj), "_CACHE_OPTIONAL_FIELDS", ())
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if value is None and field.name in optional:
                continue
            yield b"f:" + field.name.encode()
            yield from _tokens(value)
    elif isinstance(obj, dict):
        yield b"dict"
        for key in sorted(obj, key=repr):
            yield from _tokens(key)
            yield from _tokens(obj[key])
    elif isinstance(obj, (list, tuple)):
        yield b"seq"
        for item in obj:
            yield from _tokens(item)
    elif isinstance(obj, (set, frozenset)):
        yield b"set"
        for item in sorted(obj, key=repr):
            yield from _tokens(item)
    else:
        raise TypeError(
            f"cannot derive a cache key from {type(obj).__name__}; "
            f"add an explicit canonical form to repro.runtime.cache")


def cache_key(*parts: Any) -> str:
    """sha256 hex digest of ``CODE_VERSION`` plus the canonical parts."""
    digest = hashlib.sha256()
    digest.update(CODE_VERSION.encode())
    for part in parts:
        for token in _tokens(part):
            digest.update(_SEP)
            digest.update(token)
    return digest.hexdigest()


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Durably replace ``path`` with what ``write`` writes to a handle.

    The bytes go to a temp file beside ``path``, are flushed and
    fsynced, then renamed over ``path`` (and the directory entry is
    fsynced), so a crash mid-write never leaves a torn file under the
    real name.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                    suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


class ResultCache:
    """Pickle-on-disk store addressed by :func:`cache_key` digests."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.errors = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any:
        """Stored value for ``key``, or :data:`MISS` (never raises)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle, gc_paused():
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except Exception:
            # Corrupt, truncated, or unpicklable entry: treat as a miss;
            # the recompute will overwrite it. The degradation is counted
            # on the active telemetry (not just ``self.errors``) so a
            # serving process notices a store that is silently rotting.
            self.errors += 1
            self.misses += 1
            self._count_corrupt_entry()
            return MISS
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> bool:
        """Atomically store ``value``; returns False on (counted) failure.

        Durable write-then-rename: the pickle is flushed and fsynced
        before being renamed over the final path (and the directory entry
        is fsynced after), so a crash mid-write can never leave a torn
        entry under the real key — corruption tolerance on read is the
        backstop, not the plan.
        """
        try:
            atomic_write(self.path_for(key), partial(
                pickle.dump, value, protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            self.errors += 1
            return False
        self.puts += 1
        return True

    @staticmethod
    def _count_corrupt_entry() -> None:
        """Tick ``cache_corrupt_entries`` on the active telemetry.

        Deferred import (context imports this module) and best-effort:
        the never-take-a-run-down policy covers the counting itself.
        """
        try:
            from repro.runtime.context import get_runtime

            get_runtime().telemetry.increment("cache_corrupt_entries")
        except Exception:
            pass

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))
