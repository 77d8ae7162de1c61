"""The timing kernel: one event loop, with a chunk memo for draw-free runs.

:func:`run_composed` is the only definition of the timing model that
:class:`repro.pipeline.core.PipelineSimulator` runs (its module docstring
describes the machine). Three things make it fast:

* **Cycle skipping.** When the machine is provably quiescent — every
  in-flight instruction waiting on a known-latency event (a miss shadow,
  a drain after a squash, a fetch gate) — the loop fast-forwards
  ``cycle`` to the next scheduled event instead of ticking once per
  cycle. The event set is: the pending branch redirect, the earliest
  pending exposure squash, the head entry's commit cycle, the earliest
  cycle any scannable entry's operands become ready, and the fetch-gate
  release. Each candidate is clamped to ``cycle + 1`` so time never runs
  backwards (the head's commit event can lie in the past when more than
  ``commit_width`` entries have piled up behind it). A skip must never
  disturb the RNG stream: the model draws one
  ``bernoulli(fetch_bubble_prob)`` on exactly the cycles where fetch is
  un-gated, so spans where fetch is un-gated but cannot progress (queue
  full, trace drained) replay those draws through a tight draw-only
  loop. The only per-cycle statistic, ``throttle_cycles``, is added in
  closed form over a skipped span.

* **A cheap per-cycle body.** IQ entries are plain lists decoded once per
  instruction (:mod:`repro.pipeline.kernel`), and the interval log is
  one flat list, six slots per row, whose strided slices become an
  :class:`~repro.pipeline.iq.IntervalTimeline` — no
  ``OccupancyInterval`` objects are built unless a consumer asks.

* **The chunk memo.** Most dynamic streams are a small set of
  basic-block chunks (:func:`repro.pipeline.chunks.iter_chunks`)
  repeated thousands of times, and in steady state a chunk's residency
  contribution is a pure function of its entry state — the
  SimPoint/phase-classification insight applied to the timing loop:

  - *Boundaries.* At every loop-top where ``trace_ptr`` sits on a chunk
    leader (taken-branch successor or ``fetch_width`` split), the live
    machine state is reduced to a canonical *entry signature*: the IQ
    occupancy as (row content id, relative seq, relative alloc/issue)
    tuples, in-flight operand ready-times relative to the entry cycle
    (stale entries dropped — ``ready <= cycle`` is indistinguishable
    from absent at every read site), fetch-gate and throttle offsets,
    the in-flight redirect/squash schedule, wrong-path state, and the
    predictor's global history.
  - *Record.* On a signature miss the loop runs as normal while a
    recorder captures the span's *relocatable delta*: the cycle advance,
    the trace window it read (forward fetch window and backward squash
    rewind window, as content ids), the cache sets and predictor
    counters it touched (pre and post images), and the interval rows it
    logged as an entry-relative :class:`~repro.pipeline.iq.IntervalBlock`,
    plus a canonical exit state. Recording aborts permanently for a
    chunk when it exceeds the row/cache-set caps — correctness never
    depends on modelling the hard cases.
  - *Replay.* On a later boundary with the same (chunk content, entry
    signature) key, a stored delta is *validated* — same trace windows,
    same touched cache-set and predictor pre-images, headroom under
    ``max_cycles`` — and then applied: rows are shifted and spliced onto
    the flat log, the queue and ready tables are rebuilt from the exit
    state, cache/predictor post images are installed, and the loop
    fast-forwards the whole span.

  The memo engages only where it can pay (:func:`_memo_pays`): on a
  machine without fetch bubbles, whose chunks replay on state alone.
  Bubbled machines fold a fresh random draw into every un-gated cycle,
  so their entry states almost never recur; there the memo only costs.

Exactness is the admission rule: a replayed span is indistinguishable
from an executed one — cycles, interval timelines, stats, RNG stream.
``tests/test_compose.py`` compares memo-engaged runs with the same loop
with the memo switched off, and ``tests/data/timing_golden.json`` pins
every observable over every profile x trigger x machine variant. The
memo is bounded: per-key entry caps, an LRU over (machine, program)
scopes, and a global byte budget (mirroring the ``_WARM_SNAPSHOTS``
discipline in ``pipeline/core.py``).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.trace import BRANCH_TAKEN, EXECUTED, IS_LOAD, IS_STORE
from repro.isa.instruction import Instruction
from repro.isa.registers import NUM_GPRS, NUM_PREDICATES
from repro.pipeline.chunks import iter_chunks
from repro.pipeline.config import IssuePolicy, SquashAction, Trigger
from repro.pipeline.iq import (
    KIND_WRONG_PATH,
    KIND_COMMITTED,
    KIND_SQUASHED,
    IntervalBlock,
    IntervalTimeline,
)
from repro.pipeline.kernel import (
    E_ADDR,
    E_ALLOC,
    E_DEST,
    E_DPRED,
    E_EXEC,
    E_INSTR,
    E_ISSUE,
    E_KLASS,
    E_MISPRED,
    E_PC,
    E_QP,
    E_SEQ,
    E_SRC,
    E_WRONG,
    K_BRANCH,
    K_COMPARE,
    K_LOAD,
    K_MUL,
    K_STORE,
    _INF,
    _decode,
)
from repro.pipeline.result import PipelineResult

# ---------------------------------------------------------------------------
# Tunables and module counters (surfaced via telemetry in --verbose runs).
# ---------------------------------------------------------------------------

#: Global byte budget across all memo scopes; LRU-evicted beyond this.
MEMO_BYTE_LIMIT = 192 * 1024 * 1024
#: Stored deltas per (chunk, signature) key (cache-state variants).
MEMO_ENTRIES_PER_KEY = 24
#: Live (machine config, program) scopes kept, LRU.
_MEMO_SCOPE_LIMIT = 24
#: A chunk must be visited this many times before signatures are built.
_SEEN_MIN = 2
#: Recording aborts (permanent fallback) beyond these caps.
_ROW_CAP = 768
_SET_CAP = 128
#: Queues longer than this skip signature building at a boundary.
_SIG_QUEUE_CAP = 192
#: Cached per-trace preprocessing entries (row/chunk content ids).
_PREP_LIMIT = 8
#: Tables the decode memo tracks: an exhibit times 26 traces per trigger.
_DECODED_LIMIT = 32
#: Chunks recorded per segment. Segments validate on state alone, so
#: longer spans amortize the per-boundary signature/lookup cost.
_MERGE_CHUNKS = 8
#: Stop memoizing for the rest of a run once this many lookups missed
#: with a sub-25% hit rate (entry states that never recur: pure
#: overhead).
_BAIL_MIN_MISSES = 1024

chunk_memo_hits = 0
chunk_memo_misses = 0
chunk_memo_fallbacks = 0
chunk_memo_splices = 0
chunk_memo_evictions = 0

#: "No value" marker inside stored (entry-relative) row columns. A
#: residual entry fetched before the segment boundary commits with a
#: *negative* relative seq/issue, so the timeline's ``NO_VALUE`` (-1) is
#: ambiguous in relative coordinates; this sits far outside any reachable
#: relative offset.
_SENT = -(1 << 40)

#: Flags of a row that accesses memory.
_MEMORY = IS_LOAD | IS_STORE

#: Trace-row / chunk content interning: equal content, equal small int.
_ROW_INTERN: Dict[tuple, int] = {}
_CHUNK_INTERN: Dict[tuple, int] = {}

#: id(trace) -> (trace, row content ids) — identity-checked, LRU.
_PREP: "OrderedDict[int, tuple]" = OrderedDict()
#: (id(trace), fetch_width) -> (trace, aligned bytearray, leader cids).
_CHUNK_PREP: "OrderedDict[tuple, tuple]" = OrderedDict()
#: id(instruction table) -> (table, decoded table or None before its
#: second run), LRU.
_DECODED: "OrderedDict[int, tuple]" = OrderedDict()

#: Ready tables with no register in flight (-1: ready since forever).
_NO_GPRS = [-1] * NUM_GPRS
_NO_PREDICATES = [-1] * NUM_PREDICATES

_REC_STAT_KEYS = ("squash_events", "squashed_instructions",
                  "wrong_path_fetched", "throttle_cycles", "redirects")


class _Seg(object):
    """One memoized chunk delta (see the module docstring)."""

    __slots__ = (
        "d_cycle", "d_ptr", "terminated", "touched_end", "fwd", "back",
        "rows", "x_entries", "x_gpr", "x_pred", "x_wpm", "x_wpc",
        "x_redirect", "x_squashes", "x_mispred", "x_fr", "x_th",
        "stats_d", "totals_d", "c0pre", "c1pre", "c2pre", "c0post",
        "c1post", "c2post", "cache_d", "ppre", "ppost", "hist_post",
        "pred_d", "nbytes",
    )


class _Memo(object):
    """Per-(machine config, program) memo scope."""

    __slots__ = ("program", "store", "seen", "fallback", "nbytes")

    def __init__(self, program) -> None:
        self.program = program  # strong ref: pins id(program) validity
        self.store: "OrderedDict[tuple, list]" = OrderedDict()
        self.seen: Dict[int, int] = {}
        self.fallback: set = set()
        self.nbytes = 0


_MEMOS: "OrderedDict[tuple, _Memo]" = OrderedDict()
_total_bytes = 0


def clear_chunk_memos() -> None:
    """Drop every memo scope and prep cache (mainly for tests/benches)."""
    global _total_bytes
    _MEMOS.clear()
    _PREP.clear()
    _CHUNK_PREP.clear()
    _DECODED.clear()
    _total_bytes = 0


def chunk_memo_footprint() -> dict:
    """Memo size summary for the --verbose telemetry footer."""
    keys = sum(len(m.store) for m in _MEMOS.values())
    segs = sum(sum(len(v) for v in m.store.values())
               for m in _MEMOS.values())
    return {"scopes": len(_MEMOS), "keys": keys, "segments": segs,
            "bytes": _total_bytes}


def _memo_for(config, program) -> _Memo:
    global _total_bytes, chunk_memo_evictions
    key = (config, id(program))
    memo = _MEMOS.get(key)
    if memo is not None and memo.program is program:
        _MEMOS.move_to_end(key)
        return memo
    memo = _Memo(program)
    while len(_MEMOS) >= _MEMO_SCOPE_LIMIT:
        _, old = _MEMOS.popitem(last=False)
        _total_bytes -= old.nbytes
        chunk_memo_evictions += sum(len(v) for v in old.store.values())
    _MEMOS[key] = memo
    return memo


def _charge_bytes(nbytes: int, current: _Memo) -> None:
    """Account a stored delta; evict LRU state past the byte budget."""
    global _total_bytes, chunk_memo_evictions
    _total_bytes += nbytes
    while _total_bytes > MEMO_BYTE_LIMIT:
        victim_key = None
        for k, m in _MEMOS.items():
            if m is not current:
                victim_key = k
                break
        if victim_key is not None:
            old = _MEMOS.pop(victim_key)
            _total_bytes -= old.nbytes
            chunk_memo_evictions += sum(
                len(v) for v in old.store.values())
            continue
        if not current.store:
            break
        _, segs = current.store.popitem(last=False)
        freed = sum(s.nbytes for s in segs)
        current.nbytes -= freed
        _total_bytes -= freed
        chunk_memo_evictions += len(segs)


# ---------------------------------------------------------------------------
# Per-trace preprocessing: row content ids and chunk-leader alignment.
# ---------------------------------------------------------------------------

def _row_cids(trace) -> list:
    """Interned content id per trace row.

    A row's content is what the timing loop reads of it: the
    instruction's encoding, the pc, the address column and the
    executed/taken flags.
    """
    cached = _PREP.get(id(trace))
    if cached is not None and cached[0] is trace:
        _PREP.move_to_end(id(trace))
        return cached[1]
    intern = _ROW_INTERN
    encodings = np.array(trace.table(Instruction.encode),
                         dtype=np.int64)[trace.instr]
    rows = zip(encodings.tolist(), trace.pc.tolist(),
               trace.mem_addr.tolist(),
               (trace.flags & (EXECUTED | BRANCH_TAKEN)).tolist())
    cids = [intern.setdefault(fp, len(intern)) for fp in rows]
    while len(_PREP) >= _PREP_LIMIT:
        _PREP.popitem(last=False)
    _PREP[id(trace)] = (trace, cids)
    return cids


def _memo_pays(config, trace) -> bool:
    """Whether the chunk memo runs for this (machine, trace).

    Only on a machine without fetch bubbles: a bubbled machine draws a
    random number on every un-gated fetch cycle, so the entry states the
    memo keys on almost never recur. Measured on the exhibit suite
    (every profile bubbled), 2 % of lookups hit while recording doubled
    the timing cost and filled the byte budget; on the bubble-free
    tiled traces most lookups hit.
    """
    return not config.fetch_bubble_prob


class _Rows:
    """The timing loop's reader of one trace's columns.

    Memoryviews hand out plain ints (the address column as unsigned
    64-bit) without copying the columns into per-run lists (tens of MB
    on a 200k-row trace); the instruction table's decoding is kept
    across runs (:func:`_decoded`). Entries are built per fetch, not
    copied from a per-row template table: that holds a 14-slot list per
    row (an LRU of them raised the exhibit suite's peak RSS by about a
    third) and saves no time.
    """

    __slots__ = ("trace", "instr", "pc", "mem", "flags", "decoded")

    def __init__(self, trace) -> None:
        self.trace = trace
        self.instr = memoryview(trace.instr)
        self.pc = memoryview(trace.pc)
        self.mem = memoryview(trace.mem_addr.view(np.uint64))
        self.flags = memoryview(trace.flags)
        self.decoded = _decoded(trace.instructions)

    def entry(self, seq: int) -> list:
        """Fresh queue entry for trace row ``seq`` (the fetch stage
        builds the same list inline)."""
        d = self.decoded[self.instr[seq]]
        flags = self.flags[seq]
        return [seq, d[0], d[1], d[2], d[3], False, 0, None, False,
                self.mem[seq] if flags & _MEMORY else None,
                flags & EXECUTED == EXECUTED, d[5], d[4], self.pc[seq]]


def _decoded(table: tuple) -> list:
    """:func:`_decode` of a trace's instruction table, kept from the
    table's second run on: Table 1's three triggers decode each trace
    twice, and a table timed once (a fresh service key) keeps nothing."""
    cached = _DECODED.pop(id(table), None)
    seen = cached is not None and cached[0] is table
    decoded = (cached[1] if seen and cached[1] is not None
               else [_decode(i) for i in table])
    while len(_DECODED) >= _DECODED_LIMIT:
        _DECODED.popitem(last=False)
    _DECODED[id(table)] = (table, decoded if seen else None)
    return decoded


def _live(ready: list, cycle: int) -> tuple:
    """(register, ready - cycle) of every register still in flight,
    in register order. Stale ready-times (``<= cycle``) read the same as
    none at every read site, so they are dropped."""
    return tuple([(r, v - cycle) for r, v in enumerate(ready) if v > cycle])


def _chunk_prep(trace, width: int, cids: list) -> tuple:
    """(aligned bytearray over [0, n], chunk content id per leader)."""
    key = (id(trace), width)
    cached = _CHUNK_PREP.get(key)
    if cached is not None and cached[0] is trace:
        _CHUNK_PREP.move_to_end(key)
        return cached[1], cached[2]
    aligned = bytearray(len(trace) + 1)
    cid_at: Dict[int, int] = {}
    intern = _CHUNK_INTERN
    for start, size in iter_chunks(trace, width):
        aligned[start] = 1
        fp = tuple(cids[start:start + size])
        c = intern.get(fp)
        if c is None:
            c = len(intern)
            intern[fp] = c
        cid_at[start] = c
    while len(_CHUNK_PREP) >= _PREP_LIMIT:
        _CHUNK_PREP.popitem(last=False)
    _CHUNK_PREP[key] = (trace, aligned, cid_at)
    return aligned, cid_at


# ---------------------------------------------------------------------------
# Recording shims: same mutations as the live paths, plus read-set capture.
# ---------------------------------------------------------------------------

def _make_rec_access(hierarchy) -> tuple:
    """An ``access`` clone that snapshots touched sets before first use."""
    caches = (hierarchy.l0, hierarchy.l1, hierarchy.l2)
    pres: Tuple[dict, dict, dict] = ({}, {}, {})
    results = hierarchy.results

    def rec_access(address):
        level = 0
        while level < 3:
            cache = caches[level]
            si = (address >> cache._line_shift) & cache._set_mask
            pre = pres[level]
            if si not in pre:
                pre[si] = list(cache._sets[si])
            if cache.access(address):
                return results[level]
            level += 1
        return results[3]

    return rec_access, pres


def _make_rec_pred(predictor) -> tuple:
    """An ``update`` wrapper that snapshots touched counters first."""
    pre: Dict[int, int] = {}
    table = predictor._table
    mask = predictor._mask
    real_update = predictor.update

    def rec_update(pc, taken):
        index = (pc ^ (predictor._history << 2)) & mask
        if index not in pre:
            pre[index] = table[index]
        return real_update(pc, taken)

    return rec_update, pre


def _static_template(pc, program, rows, static_templates,
                     pc_of_instr) -> list:
    """Fetch-and-decode a wrong-path template (mirrors the fetch path).

    The decoding is the row table's when the trace's instruction table
    holds the fetched instruction itself at ``pc`` (the trace is a run
    of this program), so a wrong-path fetch decodes nothing anew.
    """
    instruction = program.fetch(pc)
    table = rows.trace.instructions
    if 0 <= pc < len(table) and table[pc] is instruction:
        d = rows.decoded[pc]
    else:
        d = _decode(instruction)
    template = [None, d[0], d[1], d[2], d[3], True, 0, None, False, None,
                True, instruction, d[4], pc]
    static_templates[pc] = template
    pc_of_instr[id(instruction)] = pc
    return template


# ---------------------------------------------------------------------------
# Signature / finalize / match / apply (module-level: no hot-loop cells).
# ---------------------------------------------------------------------------

def _build_key(cid, queue, row_cids, ptr, cycle, gpr_live, pred_live,
               wpm, wpc, pending_redirect, pending_squashes,
               mispredicted_entry, fetch_resume, throttle_until,
               history) -> tuple:
    """Canonical relative entry state as one flat memo key.

    Flat (one tuple, fixed five slots per queue entry, length-prefixed
    variable sections) so hashing and equality are single C passes; the
    length prefixes keep the flat encoding unambiguous. ``gpr_live`` and
    ``pred_live`` are the in-flight ready-times (:func:`_live`).
    """
    parts = [cid, len(queue)]
    append = parts.append
    for entry in queue:
        ic = entry[E_ISSUE]
        ir = None if ic is None else ic - cycle
        if entry[E_WRONG]:
            append("w")
            append(entry[E_PC])
            append(entry[E_ALLOC] - cycle)
            append(ir)
            append(False)
        else:
            s = entry[E_SEQ]
            append(row_cids[s])
            append(s - ptr)
            append(entry[E_ALLOC] - cycle)
            append(ir)
            append(entry[E_MISPRED])
    for live in (gpr_live, pred_live):
        append(len(live))
        for r, rel in live:
            append(r)
            append(rel)
    append(len(pending_squashes))
    for fire, mret, se in pending_squashes:
        qi = -1
        for i, entry in enumerate(queue):
            if entry is se:
                qi = i
                break
        fr = fire - cycle
        append(fr if fr > 0 else 0)
        append(mret - cycle)
        append(qi)
    mi = -1
    if mispredicted_entry is not None:
        for i, entry in enumerate(queue):
            if entry is mispredicted_entry:
                mi = i
                break
    rd = None
    if pending_redirect is not None:
        rd = pending_redirect[0] - cycle
        if rd < 0:
            rd = 0
    fr_rel = fetch_resume - cycle
    th_rel = throttle_until - cycle
    append(wpm)
    append(wpc if wpm else -1)
    append(rd)
    append(mi)
    append(fr_rel if fr_rel > 0 else 0)
    append(th_rel if th_rel > 0 else 0)
    append(history)
    return tuple(parts)


def _finalize(queue, cycle, trace_ptr, rec_cycle0, rec_bptr, rec_mark,
              rec_max, rec_min, log, row_cids, trace_n,
              pc_of_instr, gpr_ready, pred_ready, wpm, wpc,
              pending_redirect, pending_squashes, mispredicted_entry,
              fetch_resume, throttle_until, hierarchy, predictor,
              rec_pres, rec_ppre, rec_stats0, rec_totals0, rec_cache0,
              rec_pred0, stats, totals, terminated) -> _Seg:
    """Build the stored delta at a recording's exit boundary."""
    seg = _Seg()
    seg.d_cycle = cycle - rec_cycle0
    seg.d_ptr = trace_ptr - rec_bptr
    seg.terminated = terminated
    seg.touched_end = rec_max >= trace_n
    seg.fwd = row_cids[rec_bptr:rec_max]
    seg.back = row_cids[rec_min:rec_bptr]

    rseq = array("q")
    rkind = array("b")
    ralloc = array("q")
    rissue = array("q")
    rdealloc = array("q")
    toks: list = []
    flat = log[rec_mark:]
    for s, k, a, i, d, instr in zip(flat[0::6], flat[1::6], flat[2::6],
                                    flat[3::6], flat[4::6], flat[5::6]):
        if s == -1:
            rseq.append(_SENT)
            toks.append(pc_of_instr[id(instr)])
        else:
            # May be negative: residual entries fetched before the
            # boundary carry seq < rec_bptr.
            rseq.append(s - rec_bptr)
            toks.append(None)
        rkind.append(k)
        ralloc.append(a - rec_cycle0)
        rissue.append(_SENT if i == -1 else i - rec_cycle0)
        rdealloc.append(d - rec_cycle0)
    seg.rows = IntervalBlock(rseq, rkind, ralloc, rissue, rdealloc,
                             tuple(toks))

    x_entries = []
    for entry in queue:
        ic = entry[E_ISSUE]
        ir = None if ic is None else ic - cycle
        if entry[E_WRONG]:
            x_entries.append(("w", entry[E_PC], entry[E_ALLOC] - cycle,
                              ir))
        else:
            x_entries.append((entry[E_SEQ] - trace_ptr,
                              entry[E_ALLOC] - cycle, ir,
                              entry[E_MISPRED]))
    seg.x_entries = tuple(x_entries)
    seg.x_gpr = _live(gpr_ready, cycle)
    seg.x_pred = _live(pred_ready, cycle)
    seg.x_wpm = wpm
    seg.x_wpc = wpc if wpm else 0
    if pending_redirect is None:
        seg.x_redirect = None
    else:
        rd = pending_redirect[0] - cycle
        seg.x_redirect = rd if rd > 0 else 0
    x_squashes = []
    for fire, mret, se in pending_squashes:
        qi = -1
        for i, entry in enumerate(queue):
            if entry is se:
                qi = i
                break
        fr = fire - cycle
        x_squashes.append((fr if fr > 0 else 0, mret - cycle, qi))
    seg.x_squashes = tuple(x_squashes)
    mi = -1
    if mispredicted_entry is not None:
        for i, entry in enumerate(queue):
            if entry is mispredicted_entry:
                mi = i
                break
    seg.x_mispred = mi
    fr = fetch_resume - cycle
    seg.x_fr = fr if fr > 0 else 0
    th = throttle_until - cycle
    seg.x_th = th if th > 0 else 0

    seg.stats_d = tuple(stats[k] - v
                        for k, v in zip(_REC_STAT_KEYS, rec_stats0))
    seg.totals_d = tuple(t - t0 for t, t0 in zip(totals, rec_totals0))

    caches = (hierarchy.l0, hierarchy.l1, hierarchy.l2)
    pre_cols = []
    post_cols = []
    for cache, pres in zip(caches, rec_pres):
        sets = cache._sets
        pre_cols.append(tuple(pres.items()))
        post_cols.append(tuple((si, list(sets[si])) for si in pres))
    seg.c0pre, seg.c1pre, seg.c2pre = pre_cols
    seg.c0post, seg.c1post, seg.c2post = post_cols
    seg.cache_d = (caches[0].hits - rec_cache0[0],
                   caches[0].misses - rec_cache0[1],
                   caches[1].hits - rec_cache0[2],
                   caches[1].misses - rec_cache0[3],
                   caches[2].hits - rec_cache0[4],
                   caches[2].misses - rec_cache0[5])
    table = predictor._table
    seg.ppre = tuple(rec_ppre.items())
    seg.ppost = tuple((i, table[i]) for i in rec_ppre)
    seg.hist_post = predictor._history
    seg.pred_d = (predictor.predictions - rec_pred0[0],
                  predictor.mispredictions - rec_pred0[1])

    nsets = sum(len(p) for p in rec_pres)
    seg.nbytes = (512 + 64 * len(rseq)
                  + 8 * (len(seg.fwd) + len(seg.back))
                  + 96 * len(seg.x_entries) + 160 * nsets
                  + 24 * len(seg.ppre)
                  + 24 * (len(seg.x_gpr) + len(seg.x_pred)))
    return seg


def _match(segs, cycle, max_cycles, trace_ptr, trace_n, row_cids,
           predictor_table, hierarchy):
    """First stored delta valid in the live state, or None."""
    caches = (hierarchy.l0, hierarchy.l1, hierarchy.l2)
    for seg in segs:
        if cycle + seg.d_cycle >= max_cycles:
            continue
        fwd = seg.fwd
        end = trace_ptr + len(fwd)
        if seg.touched_end:
            if end != trace_n:
                continue
        elif end >= trace_n:
            continue
        back = seg.back
        nb = len(back)
        if nb and (trace_ptr < nb
                   or row_cids[trace_ptr - nb:trace_ptr] != back):
            continue
        if fwd and row_cids[trace_ptr:end] != fwd:
            continue
        ok = True
        for index, pre in seg.ppre:
            if predictor_table[index] != pre:
                ok = False
                break
        if not ok:
            continue
        for cache, pres in zip(caches, (seg.c0pre, seg.c1pre, seg.c2pre)):
            sets = cache._sets
            for si, pre in pres:
                if sets[si] != pre:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return seg
    return None


def _apply(seg, cycle, trace_ptr, rows, static_templates,
           pc_of_instr, program, gpr_ready, pred_ready, hierarchy,
           predictor, stats) -> tuple:
    """Install a validated delta; returns the new loop state.

    The delta's rows are not spliced here: the caller notes the splice
    and :func:`_assemble` shifts the rows into the columns once.
    """
    new_cycle = cycle + seg.d_cycle
    new_ptr = trace_ptr + seg.d_ptr

    queue: List[list] = []
    qappend = queue.append
    for t in seg.x_entries:
        if t[0] == "w":
            _, pc, ar, ir = t
            template = static_templates.get(pc)
            if template is None:
                template = _static_template(pc, program, rows,
                                            static_templates,
                                            pc_of_instr)
            entry = template.copy()
        else:
            sr, ar, ir, mp = t
            entry = rows.entry(new_ptr + sr)
            if mp:
                entry[E_MISPRED] = True
        entry[E_ALLOC] = new_cycle + ar
        if ir is not None:
            entry[E_ISSUE] = new_cycle + ir
        qappend(entry)

    mi = seg.x_mispred
    mispredicted_entry = queue[mi] if mi >= 0 else None
    rd = seg.x_redirect
    pending_redirect = None if rd is None else (new_cycle + rd, None)
    # A squash whose triggering load left the queue gets a fresh dummy
    # entry: its id matches nothing, so the boundary scan yields -1
    # exactly as the original dangling reference did.
    pending_squashes = [
        (new_cycle + fr, new_cycle + mr, queue[qi] if qi >= 0 else [])
        for fr, mr, qi in seg.x_squashes]

    gpr_ready[:] = _NO_GPRS
    for r, rel in seg.x_gpr:
        gpr_ready[r] = new_cycle + rel
    pred_ready[:] = _NO_PREDICATES
    for r, rel in seg.x_pred:
        pred_ready[r] = new_cycle + rel

    caches = (hierarchy.l0, hierarchy.l1, hierarchy.l2)
    for cache, posts in zip(caches,
                            (seg.c0post, seg.c1post, seg.c2post)):
        sets = cache._sets
        for si, post in posts:
            sets[si] = list(post)
    cd = seg.cache_d
    caches[0].hits += cd[0]
    caches[0].misses += cd[1]
    caches[1].hits += cd[2]
    caches[1].misses += cd[3]
    caches[2].hits += cd[4]
    caches[2].misses += cd[5]
    table = predictor._table
    for index, post in seg.ppost:
        table[index] = post
    predictor._history = seg.hist_post
    predictor.predictions += seg.pred_d[0]
    predictor.mispredictions += seg.pred_d[1]

    sd = seg.stats_d
    for key, delta in zip(_REC_STAT_KEYS, sd):
        if delta:
            stats[key] += delta

    return (queue, new_cycle, new_ptr, seg.x_wpm,
            seg.x_wpc if seg.x_wpm else 0, pending_redirect,
            pending_squashes, mispredicted_entry, new_cycle + seg.x_fr,
            new_cycle + seg.x_th)


def _assemble(log, splices, rows, static_templates, program,
              pc_of_instr) -> IntervalTimeline:
    """Expand the flat log and the splices into one IntervalTimeline.

    ``splices`` holds ``(log position, IntervalBlock, cycle, trace_ptr)``
    in log order. Between splices each column is one strided slice of
    the flat log; each block's columns are shift-extended in place — the
    per-row slots a live splice would have logged are never created.
    """
    seq = array("q")
    kind = array("b")
    alloc = array("q")
    issue = array("q")
    dealloc = array("q")
    instr: list = []
    instr_append = instr.append
    by_row = None  # every row's instruction, listed at the first splice

    def plain(start, stop) -> None:
        # fromlist converts a list about twice as fast as extend.
        seq.fromlist(log[start:stop:6])
        kind.fromlist(log[start + 1:stop:6])
        alloc.fromlist(log[start + 2:stop:6])
        issue.fromlist(log[start + 3:stop:6])
        dealloc.fromlist(log[start + 4:stop:6])
        instr.extend(log[start + 5:stop:6])

    done = 0
    for at, block, dc, dp in splices:
        if at > done:
            plain(done, at)
            done = at
        if by_row is None:
            by_row = rows.trace.row_instructions()
        bseq = block.seq
        seq.extend(-1 if s == _SENT else s + dp for s in bseq)
        kind.extend(block.kind)
        alloc.extend(a + dc for a in block.alloc)
        issue.extend(-1 if i == _SENT else i + dc for i in block.issue)
        dealloc.extend(d + dc for d in block.dealloc)
        for s, tok in zip(bseq, block.instr):
            if tok is None:
                instr_append(by_row[s + dp])
            else:
                template = static_templates.get(tok)
                if template is None:
                    template = _static_template(tok, program, rows,
                                                static_templates,
                                                pc_of_instr)
                instr_append(template[E_INSTR])
    plain(done, len(log))
    timeline = IntervalTimeline(())
    timeline.seq = seq
    timeline.kind = kind
    timeline.alloc = alloc
    timeline.issue = issue
    timeline.dealloc = dealloc
    timeline.instr = tuple(instr)
    return timeline


# ---------------------------------------------------------------------------
# The composed kernel.
# ---------------------------------------------------------------------------

def run_composed(sim) -> PipelineResult:
    """Run ``sim`` (a PipelineSimulator) through the timing kernel.

    See the module docstring for the event skip and the chunk memo.
    """
    global chunk_memo_hits, chunk_memo_misses, chunk_memo_fallbacks
    global chunk_memo_splices

    cfg = sim.config
    if cfg.warm_caches:
        sim._warm_caches()
    trace = sim.trace
    program = sim.program
    predictor = sim.predictor
    hierarchy = sim.hierarchy
    squash_action = cfg.squash.action
    throttle_action = squash_action is SquashAction.THROTTLE
    trigger = cfg.squash.trigger
    trig_l0 = trigger is Trigger.L0_MISS
    trig_l1 = trigger is Trigger.L1_MISS

    # ---- trace columns, read per fetch (14-slot entries: + pc) ----------
    trace_n = len(trace)
    rows = _Rows(trace)
    row_instr = rows.instr
    row_pc = rows.pc
    row_mem = rows.mem
    row_flags = rows.flags
    decoded = rows.decoded
    static_templates: dict = {}
    pc_of_instr: dict = {}

    # ---- memoization state ----------------------------------------------
    memo_on = _memo_pays(cfg, trace)
    if memo_on:
        row_cids = _row_cids(trace)
        aligned_b, cid_at = _chunk_prep(trace, cfg.fetch_width, row_cids)
        memo = _memo_for(cfg, program)
        memo_store = memo.store
        memo_seen = memo.seen
        memo_fallback = memo.fallback
    else:
        row_cids = None
        aligned_b = bytearray(trace_n + 1)  # no boundary ever fires
        cid_at = {}
        memo = None
        memo_store = memo_seen = None
        memo_fallback = set()
    last_bptr = -1
    recording = False
    rec_left = 0
    rec_list: list = []
    rec_cid = rec_bptr = rec_cycle0 = rec_mark = 0
    rec_max = rec_min = 0
    rec_pres: tuple = ({}, {}, {})
    rec_ppre: dict = {}
    rec_stats0 = rec_totals0 = rec_cache0 = rec_pred0 = ()
    # The last splice and the cycle it left the loop at: a lookup at that
    # same cycle reads the ready tables exactly as the splice set them.
    applied = None
    applied_cycle = -1
    local_hits = local_misses = local_fallbacks = local_splices = 0
    evictions0 = chunk_memo_evictions

    # The IQ: a grow-only list with a head index. Commit advances
    # ``head`` instead of ``pop(0)``-ing (O(queue length) per commit);
    # the dead prefix is compacted at the rare queue-rebuild points
    # (redirects, squashes) and whenever it outgrows the live suffix.
    # With in-order issue every entry in [head, ip) has issued, so the
    # issue and event-skip scans start at ``ip``, not at ``head``; every
    # queue rebuild resets ``ip`` to 0 (the scans skip issued entries).
    queue: List[list] = []
    head = 0
    ip = 0
    #: Flat interval log, six slots per row: seq, kind, alloc, issue,
    #: dealloc, instruction, with -1 for "no seq" / "never issued" (see
    #: IntervalTimeline). Each column is one strided slice of it.
    log: list = []
    log_extend = log.extend
    #: Memo splices, (log position, IntervalBlock, cycle, trace_ptr).
    splices: List[tuple] = []

    # Ready cycle per register number; -1 (or any cycle <= now) is ready.
    gpr_ready = list(_NO_GPRS)
    pred_ready = list(_NO_PREDICATES)

    trace_ptr = 0
    wrong_path_mode = False
    wrong_pc = 0
    pending_redirect = None  # (fire_cycle, entry)
    # (fire_cycle, miss_return_cycle, triggering load entry)
    pending_squashes: List[tuple] = []
    fetch_resume = 0
    throttle_until = 0
    cycle = 0

    stats = {
        "l0_misses": 0, "l1_misses": 0, "l2_misses": 0, "loads": 0,
        "squash_events": 0, "squashed_instructions": 0,
        "wrong_path_fetched": 0, "fetch_bubbles": 0,
        "throttle_cycles": 0, "redirects": 0,
    }

    bubble_prob = cfg.fetch_bubble_prob
    bubble_len = cfg.fetch_bubble_mean_len
    mispredicted_entry = None
    # The bernoulli stream, inlined: bernoulli(p) is random() < p. Only
    # bubbled machines draw, and the memo never runs on those.
    rng_random = sim._rng._random.random
    geometric = sim._rng.geometric

    max_cycles = cfg.max_cycles
    commit_width = cfg.commit_width
    commit_latency = cfg.commit_latency
    issue_width = cfg.issue_width
    iq_entries = cfg.iq_entries
    fetch_width = cfg.fetch_width
    in_order = cfg.issue_policy is IssuePolicy.IN_ORDER
    scheduler_window = cfg.scheduler_window
    frontend_depth = cfg.frontend_depth
    l0_latency = cfg.hierarchy.l0_latency
    l1_latency = cfg.hierarchy.l1_latency
    alu_latency = cfg.alu_latency
    mul_latency = cfg.mul_latency
    compare_latency = cfg.compare_latency
    branch_resolve_latency = cfg.branch_resolve_latency
    resume_at_miss_return = cfg.squash.resume_at_miss_return
    real_access = hierarchy.access
    real_pred_update = predictor.update
    access_fn = real_access
    pred_update = real_pred_update
    cfg_mem_ports = cfg.mem_ports
    cfg_mul_units = cfg.mul_units
    cfg_branch_units = cfg.branch_units
    units_for = (cfg_mem_ports, cfg_mem_ports, cfg_mul_units, _INF,
                 cfg_branch_units, _INF)
    l0_miss_total = l1_miss_total = l2_miss_total = 0
    loads_total = 0
    bubbles_total = 0

    while cycle < max_cycles:
        # ---- chunk boundary: finalize / look up / start recording --------
        if trace_ptr != last_bptr and aligned_b[trace_ptr]:
            last_bptr = trace_ptr
            if recording and rec_left > 1:
                rec_left -= 1  # mid-merge boundary: keep recording
            else:
                if recording:
                    recording = False
                    access_fn = real_access
                    pred_update = real_pred_update
                    if head:
                        del queue[:head]
                        head = ip = 0
                    if trace_ptr > rec_max:
                        rec_max = trace_ptr
                    seg = _finalize(
                        queue, cycle, trace_ptr, rec_cycle0, rec_bptr,
                        rec_mark, rec_max, rec_min, log, row_cids,
                        trace_n, pc_of_instr, gpr_ready,
                        pred_ready, wrong_path_mode, wrong_pc,
                        pending_redirect, pending_squashes,
                        mispredicted_entry, fetch_resume, throttle_until,
                        hierarchy, predictor, rec_pres, rec_ppre,
                        rec_stats0, rec_totals0, rec_cache0, rec_pred0,
                        stats,
                        (l0_miss_total, l1_miss_total, l2_miss_total,
                         loads_total), False)
                    rec_list.append(seg)
                    memo.nbytes += seg.nbytes
                    _charge_bytes(seg.nbytes, memo)
                if memo_on and local_misses >= _BAIL_MIN_MISSES \
                        and local_misses > 3 * local_hits:
                    # Hopeless workload for memoization (entry states
                    # that never recur): stop paying lookup/record
                    # overhead; the rest of the run is the plain loop.
                    memo_on = False
                if memo_on:
                    cid = cid_at[trace_ptr]
                    n_seen = memo_seen.get(cid, 0) + 1
                    memo_seen[cid] = n_seen
                    if n_seen >= _SEEN_MIN and cid not in memo_fallback \
                            and len(queue) - head <= _SIG_QUEUE_CAP:
                        if head:
                            del queue[:head]
                            head = ip = 0
                        if cycle == applied_cycle:
                            glive, plive = applied.x_gpr, applied.x_pred
                        else:
                            glive = _live(gpr_ready, cycle)
                            plive = _live(pred_ready, cycle)
                        key = _build_key(
                            cid, queue, row_cids, trace_ptr, cycle,
                            glive, plive, wrong_path_mode,
                            wrong_pc, pending_redirect, pending_squashes,
                            mispredicted_entry, fetch_resume,
                            throttle_until, predictor._history)
                        segs = memo_store.get(key)
                        seg = None
                        if segs:
                            seg = _match(
                                segs, cycle, max_cycles, trace_ptr,
                                trace_n, row_cids, predictor._table,
                                hierarchy)
                        if seg is not None:
                            splices.append((len(log), seg.rows, cycle,
                                            trace_ptr))
                            (queue, cycle, trace_ptr, wrong_path_mode,
                             wrong_pc, pending_redirect, pending_squashes,
                             mispredicted_entry, fetch_resume,
                             throttle_until) = _apply(
                                seg, cycle, trace_ptr, rows,
                                static_templates, pc_of_instr, program,
                                gpr_ready, pred_ready, hierarchy,
                                predictor, stats)
                            head = ip = 0
                            applied = seg
                            applied_cycle = cycle
                            td = seg.totals_d
                            l0_miss_total += td[0]
                            l1_miss_total += td[1]
                            l2_miss_total += td[2]
                            loads_total += td[3]
                            local_hits += 1
                            local_splices += len(seg.rows)
                            memo_store.move_to_end(key)
                            if seg.terminated:
                                break
                            last_bptr = -1
                            continue
                        local_misses += 1
                        if segs is None:
                            segs = []
                            memo_store[key] = segs
                        if len(segs) < MEMO_ENTRIES_PER_KEY:
                            recording = True
                            rec_left = _MERGE_CHUNKS
                            rec_list = segs
                            rec_cid = cid
                            rec_bptr = trace_ptr
                            rec_cycle0 = cycle
                            rec_mark = len(log)
                            rec_max = rec_min = trace_ptr
                            access_fn, rec_pres = \
                                _make_rec_access(hierarchy)
                            pred_update, rec_ppre = \
                                _make_rec_pred(predictor)
                            rec_stats0 = tuple(stats[k]
                                               for k in _REC_STAT_KEYS)
                            rec_totals0 = (l0_miss_total, l1_miss_total,
                                           l2_miss_total, loads_total)
                            rec_cache0 = (hierarchy.l0.hits,
                                          hierarchy.l0.misses,
                                          hierarchy.l1.hits,
                                          hierarchy.l1.misses,
                                          hierarchy.l2.hits,
                                          hierarchy.l2.misses)
                            rec_pred0 = (predictor.predictions,
                                         predictor.mispredictions)
        if recording and (len(log) - rec_mark > 6 * _ROW_CAP
                          or len(rec_pres[0]) + len(rec_pres[1])
                          + len(rec_pres[2]) > _SET_CAP):
            recording = False
            access_fn = real_access
            pred_update = real_pred_update
            memo_fallback.add(rec_cid)
            local_fallbacks += 1

        # ---- branch-resolution redirect ----------------------------------
        if pending_redirect is not None and pending_redirect[0] <= cycle:
            kept = []
            for entry in queue[head:] if head else queue:
                if entry[E_WRONG]:
                    ic = entry[E_ISSUE]
                    log_extend((-1, KIND_WRONG_PATH, entry[E_ALLOC],
                                -1 if ic is None else ic, cycle,
                                entry[E_INSTR]))
                else:
                    kept.append(entry)
            queue = kept
            head = ip = 0
            wrong_path_mode = False
            pending_redirect = None
            mispredicted_entry = None
            if fetch_resume < cycle + frontend_depth:
                fetch_resume = cycle + frontend_depth
            stats["redirects"] += 1

        # ---- exposure-reduction trigger fires ----------------------------
        fired = ([s for s in pending_squashes if s[0] <= cycle]
                 if pending_squashes else None)
        if fired:
            pending_squashes = [s for s in pending_squashes
                                if s[0] > cycle]
            if head:
                del queue[:head]
                head = 0
            ip = 0
            miss_return = max(s[1] for s in fired)
            if throttle_action:
                if throttle_until < miss_return:
                    throttle_until = miss_return
            else:
                # Victims: not-yet-issued entries younger than the
                # triggering load. With in-order issue that is exactly the
                # non-issued suffix; with windowed OoO issue some younger
                # entries may already have issued and are left alone. If
                # the load has already deallocated, every remaining entry
                # is younger (commit is in order). The oldest triggering
                # load wins: simultaneous triggers squash the union of
                # their victims.
                load_ids = {id(s[2]) for s in fired}
                boundary = -1
                for position, entry in enumerate(queue):
                    if id(entry) in load_ids:
                        boundary = position
                        break
                victims = [entry for entry in queue[boundary + 1:]
                           if entry[E_ISSUE] is None]
                if victims:
                    victim_set = set(map(id, victims))
                    queue = [entry for entry in queue
                             if id(entry) not in victim_set]
                    stats["squash_events"] += 1
                    stats["squashed_instructions"] += len(victims)
                    rewind_to = None
                    victim_has_branch = False
                    for entry in victims:
                        if entry[E_WRONG]:
                            log_extend((-1, KIND_WRONG_PATH,
                                        entry[E_ALLOC], -1, cycle,
                                        entry[E_INSTR]))
                        else:
                            seq = entry[E_SEQ]
                            log_extend((seq, KIND_SQUASHED,
                                        entry[E_ALLOC], -1, cycle,
                                        entry[E_INSTR]))
                            if rewind_to is None or seq < rewind_to:
                                rewind_to = seq
                            if entry is mispredicted_entry:
                                victim_has_branch = True
                    if rewind_to is not None and trace_ptr > rewind_to:
                        if recording:
                            if trace_ptr > rec_max:
                                rec_max = trace_ptr
                            if rewind_to < rec_min:
                                rec_min = rewind_to
                        trace_ptr = rewind_to
                    if victim_has_branch:
                        # The mispredicted branch itself was squashed: its
                        # wrong path evaporates with it. Under windowed
                        # OoO issue some wrong-path entries may already
                        # have issued and survived the victim cut; with
                        # the redirect cancelled nothing else would ever
                        # remove them, and a wrong-path entry at the
                        # queue head blocks commit forever (the mcf-181
                        # OOO+L0 deadlock). Flush them like a redirect
                        # would.
                        wrong_path_mode = False
                        pending_redirect = None
                        mispredicted_entry = None
                        if any(entry[E_WRONG] for entry in queue):
                            kept = []
                            for entry in queue:
                                if entry[E_WRONG]:
                                    ic = entry[E_ISSUE]
                                    log_extend((-1, KIND_WRONG_PATH,
                                                entry[E_ALLOC],
                                                -1 if ic is None else ic,
                                                cycle, entry[E_INSTR]))
                                else:
                                    kept.append(entry)
                            queue = kept
                if resume_at_miss_return:
                    fetch_resume = max(fetch_resume, cycle + 1,
                                       miss_return - frontend_depth)
                else:
                    fetch_resume = max(fetch_resume,
                                       cycle + frontend_depth)

        # ---- commit (deallocate in order) --------------------------------
        committed_now = 0
        queue_len = len(queue)
        while committed_now < commit_width and head < queue_len:
            entry = queue[head]
            if entry[E_WRONG]:
                break
            ic = entry[E_ISSUE]
            if ic is None or ic + commit_latency > cycle:
                break
            log_extend((entry[E_SEQ], KIND_COMMITTED, entry[E_ALLOC], ic,
                        cycle, entry[E_INSTR]))
            head += 1
            committed_now += 1
        if head >= 512 and head * 2 >= queue_len:
            del queue[:head]
            head = ip = 0

        # ---- issue --------------------------------------------------------
        # IN_ORDER: a not-ready instruction blocks everything younger.
        # OOO_WINDOW: any ready instruction among the oldest
        # scheduler_window non-committed entries may issue.
        mem_slots = cfg_mem_ports
        mul_slots = cfg_mul_units
        branch_slots = cfg_branch_units
        issued_now = 0
        if in_order:
            position = ip if ip > head else head
            scan_limit = len(queue)
        else:
            position = head
            scan_limit = min(len(queue), head + scheduler_window)
        while issued_now < issue_width and position < scan_limit:
            entry = queue[position]
            position += 1
            if entry[E_ISSUE] is not None:
                continue
            klass = entry[E_KLASS]
            if klass <= K_STORE:
                blocked = mem_slots == 0
            elif klass == K_MUL:
                blocked = mul_slots == 0
            elif klass == K_BRANCH:
                blocked = branch_slots == 0
            else:
                blocked = False
            if not blocked:
                blocked = pred_ready[entry[E_QP]] > cycle
                if not blocked:
                    for reg in entry[E_SRC]:
                        if gpr_ready[reg] > cycle:
                            blocked = True
                            break
            if blocked:
                if in_order:
                    position -= 1  # ip stays on the blocked entry
                    break
                continue

            entry[E_ISSUE] = cycle
            issued_now += 1
            if klass == K_LOAD:
                mem_slots -= 1
                addr = entry[E_ADDR]
                if entry[E_WRONG] or addr is None:
                    latency = l0_latency
                else:
                    loads_total += 1
                    access = access_fn(addr)
                    latency = access.latency
                    if access.l0_miss:
                        l0_miss_total += 1
                        if access.l1_miss:
                            l1_miss_total += 1
                            if access.l2_miss:
                                l2_miss_total += 1
                        if trig_l0:
                            pending_squashes.append(
                                (cycle + l0_latency, cycle + latency,
                                 entry))
                        elif trig_l1 and access.l1_miss:
                            pending_squashes.append(
                                (cycle + l1_latency, cycle + latency,
                                 entry))
                dest = entry[E_DEST]
                if dest and entry[E_EXEC]:
                    gpr_ready[dest] = cycle + latency
            elif klass == K_STORE:
                mem_slots -= 1
                addr = entry[E_ADDR]
                if not entry[E_WRONG] and addr is not None:
                    access_fn(addr)
            elif klass == K_MUL:
                mul_slots -= 1
                dest = entry[E_DEST]
                if dest and entry[E_EXEC]:
                    gpr_ready[dest] = cycle + mul_latency
            elif klass == K_COMPARE:
                if entry[E_EXEC]:
                    pred_ready[entry[E_DPRED]] = cycle + compare_latency
            elif klass == K_BRANCH:
                branch_slots -= 1
                if entry[E_MISPRED]:
                    pending_redirect = (cycle + branch_resolve_latency,
                                        entry)
            else:
                dest = entry[E_DEST]
                if dest and entry[E_EXEC]:
                    gpr_ready[dest] = cycle + alu_latency
        if in_order:
            ip = position

        # ---- fetch --------------------------------------------------------
        fetched = 0
        if cycle >= fetch_resume and cycle >= throttle_until:
            if bubble_prob and rng_random() < bubble_prob:
                bubbles_total += 1
                fetch_resume = cycle + 1 + geometric(
                    1.0 / bubble_len, maximum=20)
            else:
                room = iq_entries - len(queue) + head
                if room > fetch_width:
                    room = fetch_width
                if wrong_path_mode:
                    while fetched < room:
                        pc = wrong_pc
                        template = static_templates.get(pc)
                        if template is None:
                            template = _static_template(
                                pc, program, rows, static_templates,
                                pc_of_instr)
                        wrong_pc = pc + 1
                        entry = template.copy()
                        entry[E_ALLOC] = cycle
                        queue.append(entry)
                        fetched += 1
                    stats["wrong_path_fetched"] += fetched
                else:
                    start = trace_ptr
                    end = trace_ptr + room
                    if end > trace_n:
                        end = trace_n
                    while trace_ptr < end:
                        d = decoded[row_instr[trace_ptr]]
                        flags = row_flags[trace_ptr]
                        pc = row_pc[trace_ptr]
                        entry = [trace_ptr, d[0], d[1], d[2], d[3], False,
                                 cycle, None, False,
                                 row_mem[trace_ptr] if flags & _MEMORY
                                 else None,
                                 flags & EXECUTED == EXECUTED, d[5], d[4],
                                 pc]
                        queue.append(entry)
                        trace_ptr += 1
                        if d[6]:
                            taken = flags & BRANCH_TAKEN == BRANCH_TAKEN
                            if pred_update(pc, taken) != taken:
                                entry[E_MISPRED] = True
                                mispredicted_entry = entry
                                wrong_path_mode = True
                                wrong_pc = pc + 1 if taken \
                                    else pc + d[5].imm
                                break  # a redirect ends the fetch group
                    fetched = trace_ptr - start
        elif cycle < throttle_until:
            stats["throttle_cycles"] += 1

        # ---- termination ---------------------------------------------------
        queue_len = len(queue)
        if trace_ptr >= trace_n and head >= queue_len \
                and not wrong_path_mode:
            if recording:
                eff = queue[head:]
                if trace_ptr > rec_max:
                    rec_max = trace_ptr
                seg = _finalize(
                    eff, cycle, trace_ptr, rec_cycle0, rec_bptr,
                    rec_mark, rec_max, rec_min, log, row_cids, trace_n,
                    pc_of_instr, gpr_ready, pred_ready,
                    wrong_path_mode, wrong_pc, pending_redirect,
                    pending_squashes, mispredicted_entry, fetch_resume,
                    throttle_until, hierarchy, predictor, rec_pres,
                    rec_ppre, rec_stats0, rec_totals0, rec_cache0,
                    rec_pred0, stats,
                    (l0_miss_total, l1_miss_total, l2_miss_total,
                     loads_total), True)
                rec_list.append(seg)
                memo.nbytes += seg.nbytes
                _charge_bytes(seg.nbytes, memo)
                recording = False
            break

        # ---- event skip -----------------------------------------------------
        nc = cycle + 1
        gate = fetch_resume if fetch_resume > throttle_until \
            else throttle_until
        fetch_active = gate <= nc
        fetchable = wrong_path_mode or trace_ptr < trace_n
        if fetch_active and fetchable and queue_len - head < iq_entries:
            # A real fetch (or the bernoulli draw gating it) happens next
            # cycle; nothing to skip.
            cycle = nc
            continue
        if committed_now or issued_now or fetched:
            # An eventful cycle: follow-on events next cycle are likely
            # and the event scan below would mostly be wasted. Step.
            cycle = nc
            continue
        # The machine is quiescent. Find the next scheduled event.
        nxt = _INF
        if pending_redirect is not None:
            nxt = pending_redirect[0]
        if pending_squashes:
            for s in pending_squashes:
                if s[0] < nxt:
                    nxt = s[0]
        if head < queue_len:
            entry = queue[head]
            ic = entry[E_ISSUE]
            if not entry[E_WRONG] and ic is not None:
                t = ic + commit_latency
                if t < nxt:
                    nxt = t
        # Earliest issue event: the cycle the first stalled scannable
        # entry's operands are all ready (in-order: only the first
        # non-issued entry matters; windowed OoO: the min over the
        # window). Stale ready-times lie in the past — clamp to nc, which
        # is exactly when a per-cycle step would re-test them.
        if in_order:
            position = ip
            scan_limit = queue_len
        else:
            position = head
            scan_limit = min(queue_len, head + scheduler_window)
        while position < scan_limit:
            entry = queue[position]
            position += 1
            if entry[E_ISSUE] is not None:
                continue
            if units_for[entry[E_KLASS]] == 0:
                if in_order:
                    break
                continue
            ready = pred_ready[entry[E_QP]]
            for reg in entry[E_SRC]:
                r = gpr_ready[reg]
                if r > ready:
                    ready = r
            if ready < nc:
                ready = nc
            if ready < nxt:
                nxt = ready
            if in_order or ready <= nc:
                break
        if nxt <= nc:
            cycle = nc
            continue
        if fetch_active:
            if bubble_prob:
                # Fetch is un-gated but cannot progress (queue full or
                # trace drained): a per-cycle step still draws one
                # bernoulli per cycle, and a draw can open a bubble that
                # re-gates fetch. Replay the stream, nothing else.
                end = nxt if nxt < max_cycles else max_cycles
                x = nc
                while x < end:
                    if x < fetch_resume:
                        x = fetch_resume if fetch_resume < end else end
                        continue
                    if rng_random() < bubble_prob:
                        bubbles_total += 1
                        fetch_resume = x + 1 + geometric(
                            1.0 / bubble_len, maximum=20)
                    x += 1
                cycle = end
                continue
            # No draws possible: pure skip to the event.
        elif gate < nxt and (fetchable or bubble_prob):
            # The fetch gate releasing is itself an event.
            nxt = gate
        if nxt > max_cycles:
            nxt = max_cycles
        if throttle_until > nc:
            limit = throttle_until if throttle_until < nxt else nxt
            stats["throttle_cycles"] += limit - nc
        cycle = nxt
    else:
        raise RuntimeError(
            f"timing simulation exceeded {cfg.max_cycles} cycles "
            f"({sim.program.name})")

    chunk_memo_hits += local_hits
    chunk_memo_misses += local_misses
    chunk_memo_fallbacks += local_fallbacks
    chunk_memo_splices += local_splices
    if local_hits or local_misses or local_fallbacks:
        # Local import: keep the pipeline importable without the runtime
        # package (workers tick their own telemetry; the engine merges).
        from repro.runtime.context import get_runtime

        telemetry = get_runtime().telemetry
        if local_hits:
            telemetry.increment("chunk_memo_hits", local_hits)
        if local_misses:
            telemetry.increment("chunk_memo_misses", local_misses)
        if local_fallbacks:
            telemetry.increment("chunk_memo_fallbacks", local_fallbacks)
        if local_splices:
            telemetry.increment("chunk_memo_splices", local_splices)
        evicted = chunk_memo_evictions - evictions0
        if evicted:
            telemetry.increment("chunk_memo_evictions", evicted)

    stats["l0_misses"] = l0_miss_total
    stats["l1_misses"] = l1_miss_total
    stats["l2_misses"] = l2_miss_total
    stats["loads"] = loads_total
    stats["fetch_bubbles"] += bubbles_total
    stats["branch_predictions"] = predictor.predictions
    stats["branch_mispredictions"] = predictor.mispredictions
    return PipelineResult(
        cycles=cycle,
        committed=trace_n,
        intervals=_assemble(log, splices, rows, static_templates, program,
                            pc_of_instr),
        iq_entries=iq_entries,
        stats=stats,
    )
