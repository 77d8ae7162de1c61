"""Pausing the cycle collector around allocation-heavy, cycle-free work."""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause generational garbage collection for the enclosed block.

    For work that allocates many objects but creates no reference
    cycles: the timing loop (IQ entries, interval tuples) and unpickling
    a cached result (a committed trace is tens of thousands of small
    objects). Collections during such work free nothing, yet each gen-2
    pass traverses the whole long-lived heap, which once the memos hold
    a suite's traces slows the work 2x or more. Refcounting still
    reclaims garbage promptly; cycle collection merely waits until the
    block ends. A nested use, or one on another thread while the
    collector is paused, leaves it to the use that paused it.
    """
    if gc.isenabled():
        gc.disable()
        try:
            yield
        finally:
            gc.enable()
    else:
        yield
