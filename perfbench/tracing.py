"""Spans recorded from outside the program, around its entry points.

A :class:`Recorder` replaces a function at the site the workload reaches
it through (a module or class attribute) with a wrapper that records one
span per call: name, start, end, parent span and run id. Spans stay in
memory and are written once, at the end, as Chrome trace-event JSON.
Calls made inside worker processes never pass through the parent's
wrappers, so they leave no span; the workloads report them through the
engine's worker timings and the program's counters instead.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import types
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from perfbench.stats import counter_delta, layer_self_times

#: Span names that mark a workload's phases (``phase.cold``, ...).
PHASE_PREFIX = "phase."


class Recorder:
    """In-memory span log plus the patches that feed it.

    ``probe``, when given, returns a snapshot of the program's counters;
    it is read around every phase span, and ``phase_deltas[name]`` sums
    the counter deltas over the phase spans of that name.
    """

    def __init__(self, run_id: str,
                 probe: Optional[Callable[[], Dict[str, float]]] = None
                 ) -> None:
        self.run_id = run_id
        self.probe = probe
        self.phase_deltas: Dict[str, Dict[str, float]] = {}
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._next_id = 0
        self._origin = time.perf_counter()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        self._next_id += 1
        span = {"id": self._next_id, "name": name,
                "parent": stack[-1] if stack else None,
                "run": self.run_id, "start": time.perf_counter(),
                "end": None}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """A nested span: calls made inside it become its children."""
        probed = self.probe is not None and name.startswith(PHASE_PREFIX)
        before = self.probe() if probed else None
        span = self._open(name)
        stack = self._stack()
        stack.append(span["id"])
        try:
            yield span
        finally:
            stack.pop()
            span["end"] = time.perf_counter()
            if probed:
                totals = self.phase_deltas.setdefault(name, {})
                for key, change in counter_delta(before,
                                                 self.probe()).items():
                    totals[key] = totals.get(key, 0) + change

    def leaf(self, name: str) -> Dict[str, Any]:
        """An open span that is not pushed: for overlapping async calls.

        The caller sets ``span["end"]`` when the call completes.
        """
        return self._open(name)

    def wrap(self, owner: Any, attr: str, name: str,
             on_result: Optional[Callable[..., None]] = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``on_result(result, *args, **kwargs)`` runs after each call,
        outside the span, to count what the call did.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with recorder.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layers(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s"}}`` over the closed spans."""
        closed = [s for s in self.spans if s["end"] is not None]
        own = layer_self_times(closed)
        result: Dict[str, Dict[str, float]] = {}
        for span in closed:
            entry = result.setdefault(span["name"], {
                "calls": 0, "self_s": own[span["name"]]})
            entry["calls"] += 1
        return result

    def self_times_within(self, phase: str) -> Dict[str, float]:
        """Self time per span name, over the spans of phase ``phase``."""
        by_id = {span["id"]: span for span in self.spans}

        def inside(span):
            while span is not None:
                if span["name"] == phase:
                    return True
                span = by_id.get(span["parent"])
            return False

        return layer_self_times(s for s in self.spans
                                if s["end"] is not None and inside(s))

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (``ph: "X"``)."""
        events = [{
            "name": span["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": (span["start"] - self._origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "args": {"id": span["id"], "parent": span["parent"],
                     "run": span["run"]},
        } for span in self.spans if span["end"] is not None]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds a :meth:`Recorder.wrap` wrapper adds to one call.

    Timed here on a function that does nothing, wrapped and bare, so the
    figure is the wrapper's own cost, free of the wrapped work's noise.
    """
    target = types.SimpleNamespace(noop=lambda: None)

    def timed() -> float:
        call = target.noop
        started = time.perf_counter()
        for _ in range(calls):
            call()
        return time.perf_counter() - started

    bare = timed()
    recorder = Recorder("wrapper-cost")
    recorder.wrap(target, "noop", "noop")
    try:
        wrapped = timed()
    finally:
        recorder.restore()
    return max(0.0, (wrapped - bare) / calls)
