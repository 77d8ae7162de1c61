"""Content-addressed persistent result cache.

Keys are sha256 digests over a canonical token stream of every ingredient
that determines a result: the program's instruction bytes, the machine /
squash / campaign configuration, the experiment seed, and a code-version
tag bumped whenever simulation semantics change. Values are pickles on
disk under ``<root>/<key[:2]>/<key>.pkl``, written atomically so parallel
workers can share one cache directory.

A tuple value may be stored *split*: one of its items is pickled after
the others, in the same file, and a lazy read hands it back as a
:class:`Deferred` that decodes it on first use. The timing entries use
this, so an exhibit that reads only a run's report never decodes its
interval timeline.

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
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Union

from repro.util.gcpause import gc_paused

#: Bump whenever a change alters simulation semantics (and therefore any
#: previously cached result). Part of every cache key.
CODE_VERSION = "repro-runtime-1"

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()

_SEP = b"\x1f"


def _tokens(obj: Any, out: List[bytes]) -> None:
    """Append the canonical byte tokens of ``obj`` to ``out``.

    The common leaves and sequences take exact-type fast paths; every
    other type is dispatched through :data:`_EMITTERS`, filled once per
    type by :func:`_emitter_for`.
    """
    cls = type(obj)
    if cls is int:
        out.append(b"int:%d" % obj)
    elif cls is str:
        out.append(b"str:" + obj.encode())
    elif obj is None:
        out.append(b"none")
    elif cls is tuple or cls is list:
        out.append(b"seq")
        for item in obj:
            _tokens(item, out)
    elif cls is float:
        out.append(b"float:" + repr(obj).encode())
    else:
        emit = _EMITTERS.get(cls)
        if emit is None:
            emit = _EMITTERS[cls] = _emitter_for(cls)
        emit(obj, out)


#: Token emitter per type, as :func:`_emitter_for` resolved it.
_EMITTERS: Dict[type, Callable[[Any, List[bytes]], None]] = {}


def _emitter_for(cls: type) -> Callable[[Any, List[bytes]], None]:
    """The token emitter of instances of ``cls``.

    The checks run in a fixed order, so a type that matches several
    takes the first: ``bool`` before ``int``, and an ``int`` (such as an
    ``IntEnum``) before ``Enum``, which tokenises it as ``int:``.
    """
    # Local imports: the simulator packages must not depend on the runtime.
    from repro.isa.instruction import Instruction
    from repro.isa.program import Program
    from repro.pipeline.iq import (
        KIND_BY_CODE,
        IntervalTimeline,
        OccupancyInterval,
    )
    from repro.pipeline.result import PipelineResult

    if issubclass(cls, bool):
        return lambda obj, out: out.append(b"bool:1" if obj else b"bool:0")
    if issubclass(cls, int):
        # Decimal digits, not ``str()``: an IntEnum's ``str()`` is its
        # value from Python 3.11 on but its name before.
        return lambda obj, out: out.append(b"int:%d" % obj)
    if issubclass(cls, float):
        return lambda obj, out: out.append(b"float:" + repr(obj).encode())
    if issubclass(cls, str):
        return lambda obj, out: out.append(b"str:" + obj.encode())
    if issubclass(cls, bytes):
        return lambda obj, out: out.append(b"bytes:" + obj)
    if issubclass(cls, array):
        # Numeric columns (strike batches, timeline slices) tokenise by
        # typecode + raw bytes. Campaign cache keys deliberately exclude
        # any drawn strike arrays, so cached tallies never depend on how
        # the strikes were batched.
        return lambda obj, out: out.append(
            b"arr:" + obj.typecode.encode() + b":" + obj.tobytes())
    if issubclass(cls, Enum):
        return lambda obj, out: out.append(
            f"enum:{type(obj).__name__}:{obj.value}".encode())
    if issubclass(cls, Instruction):
        return lambda obj, out: out.append(
            b"insn:" + str(obj.encode()).encode())
    if issubclass(cls, Program):
        def program(obj, out):
            out.append(b"program:" + obj.name.encode())
            _tokens((obj.entry, obj.data_words), out)
            out.append(b",".join(str(i.encode()).encode()
                                 for i in obj.instructions))
            for info in obj.functions:
                out.append(f"fn:{info.name}:{info.entry}:{info.end}"
                           .encode())
            _tokens(sorted((k, repr(v)) for k, v in obj.metadata.items()),
                    out)
        return program
    if issubclass(cls, OccupancyInterval):
        def interval(obj, out):
            issue = -1 if obj.issue_cycle is None else obj.issue_cycle
            seq = -1 if obj.seq is None else obj.seq
            out.append((f"ivl:{seq}:{obj.kind.value}:{obj.alloc_cycle}:"
                        f"{issue}:{obj.dealloc_cycle}:"
                        f"{obj.instruction.encode()}").encode())
        return interval
    if issubclass(cls, IntervalTimeline):
        # Column form of the OccupancyInterval encoding above, token for
        # token (NO_VALUE is already -1), so a result's key is the same
        # whichever timing kernel produced it — no materialisation needed.
        def timeline(obj, out):
            out.extend(
                f"ivl:{seq}:{KIND_BY_CODE[kind].value}:{alloc}:"
                f"{issue}:{dealloc}:{instr.encode()}".encode()
                for seq, kind, alloc, issue, dealloc, instr in zip(
                    obj.seq, obj.kind, obj.alloc, obj.issue, obj.dealloc,
                    obj.instr))
        return timeline
    if issubclass(cls, PipelineResult):
        def pipeline(obj, out):
            out.append(b"pipeline")
            _tokens((obj.cycles, obj.committed, obj.iq_entries), out)
            _tokens(sorted(obj.stats.items()), out)
            if isinstance(obj.intervals, IntervalTimeline):
                _tokens(obj.intervals, out)
            else:
                for item in obj.intervals:
                    _tokens(item, out)
        return pipeline
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_emitter(cls)
    if issubclass(cls, dict):
        def mapping(obj, out):
            out.append(b"dict")
            for key in sorted(obj, key=repr):
                _tokens(key, out)
                _tokens(obj[key], out)
        return mapping
    if issubclass(cls, (list, tuple)):
        def sequence(obj, out):
            out.append(b"seq")
            for item in obj:
                _tokens(item, out)
        return sequence
    if issubclass(cls, (set, frozenset)):
        def members(obj, out):
            out.append(b"set")
            for item in sorted(obj, key=repr):
                _tokens(item, out)
        return members
    raise TypeError(
        f"cannot derive a cache key from {cls.__name__}; "
        f"add an explicit canonical form to repro.runtime.cache")


def _dataclass_emitter(cls: type) -> Callable[[Any, List[bytes]], None]:
    """Emitter of a dataclass: its name, then each field's name and value.

    ``_CACHE_OPTIONAL_FIELDS`` names fields that are omitted from the
    token stream while None: a config may grow new optional knobs
    without forking the key of every result computed before the knob
    existed (e.g. pre-MBU campaign tallies).
    """
    head = b"dc:" + cls.__name__.encode()
    optional = getattr(cls, "_CACHE_OPTIONAL_FIELDS", ())
    fields = tuple((f.name, b"f:" + f.name.encode(), f.name in optional)
                   for f in dataclasses.fields(cls))

    def emit(obj, out):
        out.append(head)
        for name, token, omit_none in fields:
            value = getattr(obj, name)
            if omit_none and value is None:
                continue
            out.append(token)
            _tokens(value, out)
    return emit


def cache_key(*parts: Any) -> str:
    """sha256 hex digest of ``CODE_VERSION`` plus the canonical parts.

    Each token is preceded by :data:`_SEP`.
    """
    tokens: List[bytes] = [b""]
    for part in parts:
        _tokens(part, tokens)
    digest = hashlib.sha256(CODE_VERSION.encode())
    if len(tokens) > 1:
        digest.update(_SEP.join(tokens))
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


class _SplitHead:
    """First pickle of a split entry: the value's other items, and the
    position of the one pickled after them."""

    def __init__(self, items: tuple, index: int) -> None:
        self.items = items
        self.index = index

    def join(self, item: Any) -> tuple:
        """The stored tuple, with ``item`` back at its position."""
        items = list(self.items)
        items[self.index] = item
        return tuple(items)


class Deferred:
    """The item of a split entry that follows its head in the file.

    Holds only where the item starts, never its bytes. :meth:`load`
    raises if the file is gone, has changed size since the head was read,
    or does not decode.
    """

    __slots__ = ("path", "offset", "size")

    def __init__(self, path: Path, offset: int, size: int) -> None:
        self.path = path
        self.offset = offset
        self.size = size

    def load(self) -> Any:
        with open(self.path, "rb") as handle, gc_paused():
            if os.fstat(handle.fileno()).st_size != self.size:
                raise ValueError(f"{self.path} changed since it was read")
            handle.seek(self.offset)
            return pickle.load(handle)


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

    def get(self, key: str, lazy: bool = False) -> Any:
        """Stored value for ``key``, or :data:`MISS` (never raises).

        With ``lazy``, the deferred item of a split entry comes back as a
        :class:`Deferred` and only the rest of the file is decoded;
        otherwise the whole value is.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle, gc_paused():
                value = pickle.load(handle)
                if isinstance(value, _SplitHead):
                    value = value.join(
                        Deferred(path, handle.tell(),
                                 os.fstat(handle.fileno()).st_size)
                        if lazy else pickle.load(handle))
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

    def put(self, key: str, value: Any,
            defer: Optional[int] = None) -> bool:
        """Atomically store ``value``; returns False on (counted) failure.

        ``defer`` splits a tuple ``value``: its item at that position is
        pickled after the others, in the same file, for :meth:`get` to
        leave undecoded when asked to be lazy.

        Durable write-then-rename: the pickle is flushed and fsynced
        before being renamed over the final path (and the directory entry
        is fsynced after), so a crash mid-write can never leave a torn
        entry under the real key — corruption tolerance on read is the
        backstop, not the plan.
        """
        def write(handle: BinaryIO) -> None:
            if defer is None:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                return
            items = list(value)
            tail = items[defer]
            items[defer] = None
            pickle.dump(_SplitHead(tuple(items), defer), handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
            pickle.dump(tail, handle, protocol=pickle.HIGHEST_PROTOCOL)

        try:
            atomic_write(self.path_for(key), write)
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
