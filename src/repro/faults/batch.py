"""Vectorised bit-matrix strike batching.

The scalar campaign loop pays one Python round-trip per trial: build an
RNG, sample a strike, walk the evaluator's decision tree, tick a
counter. This module lifts a whole campaign's strikes into parallel
arrays and classifies them in bulk:

* :func:`draw_strike_batch` draws every trial's ``(interval, bit,
  cycle)`` triple up front. The *draws* replay the exact per-trial
  :func:`~repro.util.rng.derive_seed` streams the scalar sampler uses
  (two ``randrange`` calls against the trial's private Mersenne
  Twister), so the sampled sequence is bit-identical for any seed and
  any sharding; only the point→interval mapping — a binary search over
  the residency prefix sums of the columnar
  :class:`~repro.pipeline.iq.IntervalTimeline` — is vectorised.
* :func:`build_kill_masks` precomputes the effect oracle's static
  pre-filter as one 41-bit mask per trace entry — a ``trace × 41`` bit
  matrix. Bit ``b`` of ``masks[seq]`` is set iff
  ``EffectOracle.classify_static(seq, b)`` would prove the flip inert
  (the exhaustive equivalence is asserted in
  ``tests/test_strike_batching.py``).
* :class:`BatchClassifier` runs the evaluator's decision tree as array
  operations: never-read, ECC-corrected, and wrong-path strikes are
  tallied without any per-trial Python, and the surviving committed-read
  strikes look their static verdict up in the bit matrix before falling
  through to the (memoized) scalar oracle for re-execution.

The contract mirrors the rest of the fast-path stack: tallies, tracker
misses, oracle counters, and cache keys are bit-identical to the scalar
loop — batching may only change wall-clock. NumPy accelerates both the
point mapping and the mask lookups; every entry point degrades to a
pure-Python implementation with identical results when NumPy is absent.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.due.outcomes import FaultOutcome
from repro.due.tracking import BurstAction, TrackingLevel, classify_burst
from repro.faults.mbu import (
    CANONICAL_MASKS,
    PMF_RESOLUTION,
    BurstPattern,
    draw_pattern,
    draw_second_bit,
    get_preset,
    mask_for,
    representative_bit,
)
from repro.faults.model import empty_space_message
from repro.isa.encoding import ENCODING_BITS, Field, field_bits, live_fields
from repro.pipeline.iq import CODE_BY_KIND, KIND_COMMITTED, NO_VALUE
from repro.pipeline.result import PipelineResult

try:  # NumPy accelerates the array paths; optional.
    import numpy as _np
except ImportError:  # pragma: no cover - the image bakes numpy in
    _np = None

try:  # CPython's C-level Mersenne Twister (random.Random's base class).
    from _random import Random as _CoreRandom
except ImportError:  # pragma: no cover - non-CPython fallback
    _CoreRandom = None

#: Everything a 41-bit syllable can hold.
_ALL_BITS = (1 << ENCODING_BITS) - 1


def _field_mask(*fields: Field) -> int:
    word = 0
    for field in fields:
        for bit in field_bits(field):
            word |= 1 << bit
    return word


#: Bits whose flip the predicated-false rule cannot clear (QP/OPCODE).
_QP_OPCODE_MASK = _field_mask(Field.QP, Field.OPCODE)
#: Bits the dead-destination rule covers (the oracle's value fields).
_VALUE_MASK = _field_mask(Field.R2, Field.R3, Field.IMM7)

#: opcode -> 41-bit mask of its architecturally-live field bits.
_LIVE_MASKS: Dict[object, int] = {}


def _live_mask(opcode) -> int:
    mask = _LIVE_MASKS.get(opcode)
    if mask is None:
        mask = _field_mask(*live_fields(opcode))
        _LIVE_MASKS[opcode] = mask
    return mask


# ---------------------------------------------------------------------------
# The strike arrays
# ---------------------------------------------------------------------------

class StrikeBatch:
    """Pre-drawn strike triples for trials ``[start, stop)``.

    Three parallel columns, one row per trial, addressed by absolute
    trial index: ``interval_index`` (row of the pipeline result's
    interval sequence, :data:`~repro.pipeline.iq.NO_VALUE` for a strike
    on an idle entry), ``cycle`` (absolute strike cycle, 0 for idle),
    and ``bit`` (0..40). Plain ``array`` columns keep the batch small
    and picklable, so shard tuples can carry slices to worker processes.

    Multi-bit campaigns add two more columns: ``mask`` (the burst flip
    mask, 0 for a single) and ``pattern`` (the drawn
    :class:`~repro.faults.mbu.BurstPattern` code). Both are ``None`` for
    single-bit batches, so pre-MBU pickles, equality, and memory
    footprint are untouched.
    """

    __slots__ = ("start", "stop", "interval_index", "cycle", "bit",
                 "mask", "pattern")

    def __init__(self, start: int, stop: int,
                 interval_index: Sequence[int], cycle: Sequence[int],
                 bit: Sequence[int],
                 mask: Optional[Sequence[int]] = None,
                 pattern: Optional[Sequence[int]] = None) -> None:
        if not 0 <= start <= stop:
            raise ValueError("batch range must satisfy 0 <= start <= stop")
        if (mask is None) != (pattern is None):
            raise ValueError("mask and pattern columns come as a pair")
        self.start = start
        self.stop = stop
        self.interval_index = array("q", interval_index)
        self.cycle = array("q", cycle)
        self.bit = array("q", bit)
        self.mask = None if mask is None else array("q", mask)
        self.pattern = None if pattern is None else array("b", pattern)
        if not (len(self.interval_index) == len(self.cycle)
                == len(self.bit) == stop - start):
            raise ValueError("batch columns must cover exactly [start, stop)")
        if self.mask is not None and not (
                len(self.mask) == len(self.pattern) == stop - start):
            raise ValueError("batch columns must cover exactly [start, stop)")

    def __len__(self) -> int:
        return self.stop - self.start

    def slice(self, start: int, stop: int) -> "StrikeBatch":
        """Sub-batch covering trials ``[start, stop)`` (absolute indices)."""
        if not self.start <= start <= stop <= self.stop:
            raise ValueError(
                f"slice [{start}, {stop}) outside batch "
                f"[{self.start}, {self.stop})")
        lo, hi = start - self.start, stop - self.start
        return StrikeBatch(
            start, stop, self.interval_index[lo:hi],
            self.cycle[lo:hi], self.bit[lo:hi],
            None if self.mask is None else self.mask[lo:hi],
            None if self.pattern is None else self.pattern[lo:hi])

    def triples(self) -> List[Tuple[int, int, int]]:
        """``(interval_index, cycle, bit)`` rows, for tests and debugging."""
        return list(zip(self.interval_index, self.cycle, self.bit))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, StrikeBatch)
                and (self.start, self.stop) == (other.start, other.stop)
                and self.interval_index == other.interval_index
                and self.cycle == other.cycle
                and self.bit == other.bit
                and self.mask == other.mask
                and self.pattern == other.pattern)

    def __repr__(self) -> str:
        return f"StrikeBatch([{self.start}, {self.stop}))"


def _residency_columns(result: PipelineResult):
    """``(alloc, resident, cumulative)`` columns of the interval sequence.

    Reads the columnar :class:`~repro.pipeline.iq.IntervalTimeline`
    directly when the run came from the timing loop; a hand-built
    object-list result is columnised on the fly.
    """
    timeline = result.timeline
    if timeline is not None:
        alloc = timeline.alloc
        if _np is not None:
            alloc_arr = _np.frombuffer(alloc, dtype=_np.int64)
            res_arr = (_np.frombuffer(timeline.dealloc, dtype=_np.int64)
                       - alloc_arr)
            resident = array("q")
            resident.frombytes(res_arr.tobytes())
            cumulative = array("q")
            cumulative.frombytes(_np.cumsum(res_arr).tobytes())
            return alloc, resident, cumulative
        return timeline.residency_prefix_sums()
    else:
        alloc = array("q", (iv.alloc_cycle for iv in result.intervals))
        resident = array("q",
                         (iv.resident_cycles for iv in result.intervals))
    cumulative = array("q", accumulate(resident))
    return alloc, resident, cumulative


def _trial_seeds(config, program_name: str, start: int,
                 stop: int) -> List[int]:
    """``trial_seed(config, program_name, i)`` for ``i`` in [start, stop).

    :func:`~repro.util.rng.derive_seed` hashes a label path whose prefix
    is constant across a campaign's trials; hashing that prefix once and
    forking the digest per index produces the identical seeds (sha256 is
    a stream) at a fraction of the cost. Equality with the scalar helper
    is pinned in ``tests/test_strike_batching.py``.
    """
    prefix = hashlib.sha256()
    prefix.update(str(config.seed).encode())
    for label in ("campaign", program_name, config.parity,
                  int(config.tracking), "trial"):
        prefix.update(b"/")
        prefix.update(str(label).encode())
    seeds = []
    for index in range(start, stop):
        digest = prefix.copy()
        digest.update(b"/")
        digest.update(str(index).encode())
        seeds.append(int.from_bytes(digest.digest()[:8], "little"))
    return seeds


def draw_strike_batch(result: PipelineResult, config, program_name: str,
                      start: int, stop: int) -> StrikeBatch:
    """Draw the strikes of trials ``[start, stop)`` as one batch.

    Per-trial draws replay :class:`~repro.faults.model.StrikeModel`
    exactly — bit first, then a uniform point over the entry-cycle
    space, both from the trial's private seed stream (a bare
    ``random.Random`` here; :class:`~repro.util.rng.DeterministicRng`
    delegates ``randrange`` to it unchanged) — so the batch is
    bit-identical to scalar sampling under any sharding. The expensive
    part, mapping each point onto its occupancy interval and absolute
    cycle, runs as one vectorised binary search.

    Multi-bit campaigns (``config.mbu_preset`` set) replay the MBU
    layer's draws too — the pattern draw and, for random doubles, the
    rejection-sampled second bit — strictly after the ``(bit, point)``
    pair on the same stream, exactly as :func:`~repro.faults.mbu.
    extend_strike` does in the scalar loop, and fill the batch's
    ``mask``/``pattern`` columns.
    """
    alloc, resident, cumulative = _residency_columns(result)
    resident_total = cumulative[-1] if cumulative else 0
    space_total = result.total_entry_cycles
    if space_total <= 0:
        raise ValueError(empty_space_message(result, program_name))
    if resident_total > space_total:
        raise ValueError("occupancy exceeds the entry-cycle space")

    preset = (get_preset(config.mbu_preset)
              if getattr(config, "mbu_preset", None) is not None else None)
    count = stop - start
    bits = array("q")
    points = array("q")
    masks = array("q") if preset is not None else None
    patterns = array("b") if preset is not None else None
    seeds = _trial_seeds(config, program_name, start, stop)
    if _CoreRandom is not None:
        # ``randrange(n)`` is pure Python on top of the C generator:
        # ``k = n.bit_length()``, draw ``getrandbits(k)``, reject while
        # ``>= n`` (``Random._randbelow``, unchanged since CPython 3.2).
        # Replaying it directly against the C base class skips two
        # Python call layers per draw; the golden differential suite
        # pins the equivalence.
        bit_width = ENCODING_BITS.bit_length()
        point_width = space_total.bit_length()
        pattern_width = PMF_RESOLUTION.bit_length()
        pattern_cum = (list(accumulate(preset.weights))
                       if preset is not None else None)
        for seed in seeds:
            draw = _CoreRandom(seed).getrandbits
            bit = draw(bit_width)
            while bit >= ENCODING_BITS:
                bit = draw(bit_width)
            point = draw(point_width)
            while point >= space_total:
                point = draw(point_width)
            bits.append(bit)
            points.append(point)
            if preset is None:
                continue
            mass = draw(pattern_width)
            while mass >= PMF_RESOLUTION:
                mass = draw(pattern_width)
            pattern = BurstPattern(bisect_right(pattern_cum, mass))
            second = None
            if pattern is BurstPattern.RANDOM_DOUBLE:
                # The flattened rejection replays draw_second_bit's
                # nested loops draw for draw: every getrandbits result
                # is either rejected (out of range or within the +/-1
                # window) or accepted, in the same order.
                second = draw(bit_width)
                while second >= ENCODING_BITS or abs(second - bit) < 2:
                    second = draw(bit_width)
            patterns.append(int(pattern))
            masks.append(mask_for(pattern, bit, second))
    else:  # pragma: no cover - non-CPython fallback
        for seed in seeds:
            rng = Random(seed)
            bit = rng.randrange(ENCODING_BITS)
            bits.append(bit)
            points.append(rng.randrange(space_total))
            if preset is None:
                continue
            pattern = draw_pattern(rng, preset)
            second = (draw_second_bit(rng, bit)
                      if pattern is BurstPattern.RANDOM_DOUBLE else None)
            patterns.append(int(pattern))
            masks.append(mask_for(pattern, bit, second))

    if _np is not None and count:
        point_arr = _np.frombuffer(points, dtype=_np.int64)
        cum_arr = _np.frombuffer(cumulative, dtype=_np.int64)
        occupied = point_arr < resident_total
        index_arr = _np.where(
            occupied,
            _np.searchsorted(cum_arr, point_arr, side="right"),
            0)
        if len(cum_arr):
            alloc_arr = _np.frombuffer(alloc, dtype=_np.int64)
            res_arr = _np.frombuffer(resident, dtype=_np.int64)
            span_start = cum_arr[index_arr] - res_arr[index_arr]
            cycle_arr = alloc_arr[index_arr] + (point_arr - span_start)
        else:
            cycle_arr = _np.zeros(count, dtype=_np.int64)
        interval_index = array("q")
        interval_index.frombytes(
            _np.where(occupied, index_arr, NO_VALUE)
            .astype(_np.int64, copy=False).tobytes())
        cycle = array("q")
        cycle.frombytes(_np.where(occupied, cycle_arr, 0)
                        .astype(_np.int64, copy=False).tobytes())
        return StrikeBatch(start, stop, interval_index, cycle, bits,
                           masks, patterns)

    interval_index = array("q")
    cycle = array("q")
    for point in points:
        if point >= resident_total:
            interval_index.append(NO_VALUE)
            cycle.append(0)
            continue
        index = bisect_right(cumulative, point)
        span_start = cumulative[index] - resident[index]
        interval_index.append(index)
        cycle.append(alloc[index] + (point - span_start))
    return StrikeBatch(start, stop, interval_index, cycle, bits,
                       masks, patterns)


# ---------------------------------------------------------------------------
# The static pre-filter as a bit matrix
# ---------------------------------------------------------------------------

def build_kill_masks(baseline, deadness) -> List[int]:
    """One 41-bit static-kill mask per trace entry.

    Bit ``b`` of ``masks[seq]`` is set iff the effect oracle's
    ``classify_static(seq, b)`` proves the flip inert. The three rules
    (non-live field, predicated-false outside QP/OPCODE, dead
    destination value — see :mod:`repro.faults.oracle`) become three
    mask unions per entry, so a whole campaign's verdicts are two array
    lookups instead of per-strike field decoding.
    """
    dead_classes = _dead_dest_classes()
    masks: List[int] = []
    for seq, op in enumerate(baseline.trace):
        kill = _ALL_BITS & ~_live_mask(op.instruction.opcode)
        if not op.executed:
            kill |= _ALL_BITS & ~_QP_OPCODE_MASK
        elif (not op.is_store
                and deadness.class_of(seq) in dead_classes):
            kill |= _VALUE_MASK
        masks.append(kill)
    return masks


def _dead_dest_classes():
    from repro.faults.oracle import _DEAD_DEST_CLASSES

    return _DEAD_DEST_CLASSES


def kill_matrix(masks: Sequence[int]):
    """The masks as a boolean ``trace × 41`` NumPy matrix (None w/o NumPy)."""
    if _np is None:
        return None
    mask_col = _np.fromiter(masks, dtype=_np.int64, count=len(masks))
    return ((mask_col[:, None] >> _np.arange(ENCODING_BITS)) & 1) \
        .astype(bool)


# ---------------------------------------------------------------------------
# Batched classification
# ---------------------------------------------------------------------------

#: Dense outcome codes for the purely-vectorised categories. A survivor
#: is a committed-read strike that still needs the oracle; the scheme
#: path distinguishes detected-uncorrectable survivors (which feed the
#: π-bit tracker like parity) from escaped ones (unprotected tail).
(_UNREAD, _CORRECTED, _UNACE, _FALSE_DUE, _SURVIVOR,
 _SURVIVOR_DETECT) = range(6)

_CODE_OUTCOME = {
    _UNREAD: FaultOutcome.BENIGN_UNREAD,
    _CORRECTED: FaultOutcome.CORRECTED,
    _UNACE: FaultOutcome.BENIGN_UNACE,
    _FALSE_DUE: FaultOutcome.FALSE_DUE,
}


class BatchClassifier:
    """Classifies :class:`StrikeBatch` blocks for one campaign.

    Holds everything shared across a campaign's blocks: the interval
    columns, the static bit matrix (built lazily — only when a block
    actually contains committed-read survivors, matching the scalar
    path's lazy deadness analysis), and the campaign-scoped
    :class:`~repro.faults.injector.StrikeEvaluator` whose oracle and
    π-bit tracker the surviving strikes fall through to. Tallies and
    oracle counters are bit-identical to evaluating each strike with
    ``evaluator.evaluate``; the instance counters record how much work
    the vectorised pass absorbed.
    """

    def __init__(self, evaluator, result: PipelineResult) -> None:
        self.evaluator = evaluator
        self.result = result
        self._columns = None  # (seq, kind, issue) per interval row
        self._masks: Optional[List[int]] = None
        self._matrix = None
        # Counters (merged into runtime telemetry by the campaign):
        self.trials = 0
        self.vector_kills = 0
        self.scalar_kills = 0
        self.reexecutions = 0

    def counters(self) -> Dict[str, int]:
        return {
            "batch_trials": self.trials,
            "batch_vector_kills": self.vector_kills,
            "batch_scalar_kills": self.scalar_kills,
            "batch_reexecutions": self.reexecutions,
        }

    # -- shared, lazily-built tables --------------------------------------

    def _interval_columns(self):
        if self._columns is None:
            timeline = self.result.timeline
            if timeline is not None:
                self._columns = (timeline.seq, timeline.kind, timeline.issue)
            else:
                intervals = self.result.intervals
                seq = array("q", (NO_VALUE if iv.seq is None else iv.seq
                                  for iv in intervals))
                kind = array("b", (CODE_BY_KIND[iv.kind]
                                   for iv in intervals))
                issue = array("q", (NO_VALUE if iv.issue_cycle is None
                                    else iv.issue_cycle for iv in intervals))
                self._columns = (seq, kind, issue)
        return self._columns

    def _kill_masks(self) -> List[int]:
        if self._masks is None:
            oracle = self.evaluator.oracle
            self._masks = build_kill_masks(oracle.baseline, oracle.deadness)
            self._matrix = kill_matrix(self._masks)
        return self._masks

    # -- classification ----------------------------------------------------

    def classify(self, batch: StrikeBatch) -> Tuple[Counter, int]:
        """``(outcome counts, tracker misses)`` for one batch of trials."""
        if self.evaluator.scheme is not None or batch.pattern is not None:
            return self._classify_scheme(batch)
        if _np is not None:
            codes, rows, seqs, bits = self._vector_pass_numpy(batch)
        else:
            codes, rows, seqs, bits = self._vector_pass_python(batch)

        counts: Counter = Counter()
        for code, outcome in _CODE_OUTCOME.items():
            tally = codes.get(code, 0)
            if tally:
                counts[outcome] += tally
        survivors = len(rows)
        self.trials += len(batch)
        self.vector_kills += len(batch) - survivors
        if not survivors:
            return counts, 0
        return self._classify_survivors(counts, rows, seqs, bits)

    def _vector_pass_numpy(self, batch: StrikeBatch):
        """Array form of the evaluator's pre-oracle decision tree."""
        n = len(batch)
        if n == 0:
            return {}, [], [], []
        seq_col, kind_col, issue_col = self._interval_columns()
        index = _np.frombuffer(batch.interval_index, dtype=_np.int64)
        cycle = _np.frombuffer(batch.cycle, dtype=_np.int64)
        bits = _np.frombuffer(batch.bit, dtype=_np.int64)
        occupied = index != NO_VALUE
        safe = _np.where(occupied, index, 0)
        if len(seq_col):
            seqs = _np.frombuffer(seq_col, dtype=_np.int64)[safe]
            kinds = _np.frombuffer(kind_col, dtype=_np.int8)[safe]
            issues = _np.frombuffer(issue_col, dtype=_np.int64)[safe]
        else:
            seqs = kinds = issues = _np.zeros(n, dtype=_np.int64)
        # Never read after the strike: never-issued occupants (issue is
        # NO_VALUE = -1, always < cycle+1) and strikes in the Ex-ACE tail.
        read = occupied & (cycle < issues)
        codes = _np.full(n, _UNREAD, dtype=_np.int8)
        evaluator = self.evaluator
        if evaluator.ecc:
            codes[read] = _CORRECTED
        else:
            wrong = read & (kinds != KIND_COMMITTED)
            if (not evaluator.parity
                    or evaluator.tracking >= TrackingLevel.PI_COMMIT):
                codes[wrong] = _UNACE
            else:
                codes[wrong] = _FALSE_DUE
            codes[read & (kinds == KIND_COMMITTED)] = _SURVIVOR
        tallies = dict(zip(*(part.tolist() for part in _np.unique(
            codes, return_counts=True))))
        rows = _np.nonzero(codes == _SURVIVOR)[0]
        return (tallies, rows.tolist(), seqs[rows].tolist(),
                bits[rows].tolist())

    def _vector_pass_python(self, batch: StrikeBatch):
        """Pure-Python fallback with identical tallies and survivors."""
        seq_col, kind_col, issue_col = self._interval_columns()
        evaluator = self.evaluator
        wrong_code = (_UNACE if (not evaluator.parity or
                                 evaluator.tracking >= TrackingLevel.PI_COMMIT)
                      else _FALSE_DUE)
        tallies: Dict[int, int] = {}
        rows: List[int] = []
        seqs: List[int] = []
        bits: List[int] = []
        for row, (index, cycle, bit) in enumerate(
                zip(batch.interval_index, batch.cycle, batch.bit)):
            if index == NO_VALUE or not cycle < issue_col[index]:
                code = _UNREAD
            elif evaluator.ecc:
                code = _CORRECTED
            elif kind_col[index] != KIND_COMMITTED:
                code = wrong_code
            else:
                rows.append(row)
                seqs.append(seq_col[index])
                bits.append(bit)
                code = _SURVIVOR
            tallies[code] = tallies.get(code, 0) + 1
        return tallies, rows, seqs, bits

    def _classify_survivors(self, counts: Counter, rows, seqs, bits):
        """Walk the committed-read survivors in trial order.

        The static verdicts come from the precomputed bit matrix (one
        vectorised lookup) instead of per-strike field decoding; the
        effects themselves come from the shared oracle via
        :meth:`~repro.faults.oracle.EffectOracle.effect_from_hint`, so
        memo/static/execution accounting is identical to the scalar
        loop's ``oracle.effect`` calls.
        """
        from repro.faults.injector import _EFFECT_TO_OUTCOME

        evaluator = self.evaluator
        oracle = evaluator.oracle
        # Hints are consulted only for strikes the memo cannot answer,
        # so skip the mask build (and its deadness analysis) when the
        # filter is off — exactly like the scalar path — or when a
        # warmed oracle already covers every survivor.
        if oracle.static_filter and any(
                not oracle.is_memoized(seq, bit)
                for seq, bit in zip(seqs, bits)):
            masks = self._kill_masks()
            if self._matrix is not None:
                hints = self._matrix[seqs, bits].tolist()
            else:
                hints = [bool((masks[seq] >> bit) & 1)
                         for seq, bit in zip(seqs, bits)]
        else:
            hints = [False] * len(seqs)
        tracker = evaluator.tracker
        parity = evaluator.parity
        executions_before = oracle.executions
        tracker_misses = 0
        for seq, bit, hint in zip(seqs, bits, hints):
            effect = oracle.effect_from_hint(seq, bit, hint)
            if not parity:
                if effect == "none":
                    counts[FaultOutcome.BENIGN_UNACE] += 1
                else:
                    counts[_EFFECT_TO_OUTCOME[effect]] += 1
                continue
            decision = tracker.process_fault(seq, bit)
            if decision.signaled:
                if effect == "none":
                    counts[FaultOutcome.FALSE_DUE] += 1
                else:
                    counts[FaultOutcome.TRUE_DUE] += 1
            elif effect == "none":
                counts[FaultOutcome.BENIGN_UNACE] += 1
            else:
                counts[_EFFECT_TO_OUTCOME[effect]] += 1
                tracker_misses += 1
        executed = oracle.executions - executions_before
        self.reexecutions += executed
        self.scalar_kills += len(rows) - executed
        return counts, tracker_misses

    # -- scheme/MBU classification ----------------------------------------

    def _classify_scheme(self, batch: StrikeBatch) -> Tuple[Counter, int]:
        """:meth:`classify` under the ECC lattice / multi-bit fault model.

        Burst classification is a lookup over *pattern codes*: the drawn
        masks of a pattern all share the decoder-relevant shape (weight,
        adjacency) of its canonical mask, so
        :func:`~repro.due.tracking.classify_burst` evaluated once per
        pattern stands for every trial (the bijection is pinned in
        ``tests/test_mbu.py``). ``scheme=None`` with a pattern column is
        the unprotected multi-bit campaign: no decoder, wrong-path reads
        are benign, committed reads fall through to the burst oracle.
        """
        actions = (None if self.evaluator.scheme is None else
                   [classify_burst(self.evaluator.scheme, CANONICAL_MASKS[p])
                    for p in BurstPattern])
        if _np is not None:
            tallies, rows, seqs, detects = self._scheme_pass_numpy(
                batch, actions)
        else:
            tallies, rows, seqs, detects = self._scheme_pass_python(
                batch, actions)
        counts: Counter = Counter()
        for code, outcome in _CODE_OUTCOME.items():
            tally = tallies.get(code, 0)
            if tally:
                counts[outcome] += tally
        survivors = len(rows)
        self.trials += len(batch)
        self.vector_kills += len(batch) - survivors
        if not survivors:
            return counts, 0
        return self._classify_survivors_mbu(counts, batch, rows, seqs,
                                            detects)

    def _scheme_pass_numpy(self, batch: StrikeBatch, actions):
        """Array form of the scheme decoder's pre-oracle decision tree."""
        n = len(batch)
        if n == 0:
            return {}, [], [], []
        seq_col, kind_col, issue_col = self._interval_columns()
        index = _np.frombuffer(batch.interval_index, dtype=_np.int64)
        cycle = _np.frombuffer(batch.cycle, dtype=_np.int64)
        occupied = index != NO_VALUE
        safe = _np.where(occupied, index, 0)
        if len(seq_col):
            seqs = _np.frombuffer(seq_col, dtype=_np.int64)[safe]
            kinds = _np.frombuffer(kind_col, dtype=_np.int8)[safe]
            issues = _np.frombuffer(issue_col, dtype=_np.int64)[safe]
        else:
            seqs = kinds = issues = _np.zeros(n, dtype=_np.int64)
        read = occupied & (cycle < issues)
        if batch.pattern is not None:
            pattern_arr = _np.frombuffer(batch.pattern, dtype=_np.int8)
        else:
            pattern_arr = _np.zeros(n, dtype=_np.int8)
        stats = self.evaluator.burst_stats
        stats["mbu_multi_bit"] += int(
            (pattern_arr != int(BurstPattern.SINGLE)).sum())
        committed = kinds == KIND_COMMITTED
        codes = _np.full(n, _UNREAD, dtype=_np.int8)
        if actions is None:
            codes[read & ~committed] = _UNACE
            codes[read & committed] = _SURVIVOR
        else:
            correct_lut = _np.array(
                [a is BurstAction.CORRECT for a in actions])
            detect_lut = _np.array(
                [a is BurstAction.DETECT for a in actions])
            corrected = read & correct_lut[pattern_arr]
            detected = read & detect_lut[pattern_arr]
            escaped = read & ~corrected & ~detected
            stats["ecc_corrected"] += int(corrected.sum())
            stats["ecc_detected"] += int(detected.sum())
            stats["ecc_escaped"] += int(escaped.sum())
            codes[corrected] = _CORRECTED
            wrong_detect = detected & ~committed
            codes[wrong_detect] = (
                _UNACE
                if self.evaluator.tracking >= TrackingLevel.PI_COMMIT
                else _FALSE_DUE)
            codes[detected & committed] = _SURVIVOR_DETECT
            codes[escaped & ~committed] = _UNACE
            codes[escaped & committed] = _SURVIVOR
        tallies = dict(zip(*(part.tolist() for part in _np.unique(
            codes, return_counts=True))))
        surv = (codes == _SURVIVOR) | (codes == _SURVIVOR_DETECT)
        rows = _np.nonzero(surv)[0]
        detects = (codes[rows] == _SURVIVOR_DETECT).tolist()
        return tallies, rows.tolist(), seqs[rows].tolist(), detects

    def _scheme_pass_python(self, batch: StrikeBatch, actions):
        """Pure-Python fallback with identical tallies and survivors."""
        seq_col, kind_col, issue_col = self._interval_columns()
        evaluator = self.evaluator
        stats = evaluator.burst_stats
        suppress_wrong = evaluator.tracking >= TrackingLevel.PI_COMMIT
        patterns = batch.pattern
        tallies: Dict[int, int] = {}
        rows: List[int] = []
        seqs: List[int] = []
        detects: List[bool] = []
        for row, (index, cycle) in enumerate(
                zip(batch.interval_index, batch.cycle)):
            pattern = patterns[row] if patterns is not None else 0
            if pattern != int(BurstPattern.SINGLE):
                stats["mbu_multi_bit"] += 1
            if index == NO_VALUE or not cycle < issue_col[index]:
                code = _UNREAD
            elif actions is None:
                if kind_col[index] != KIND_COMMITTED:
                    code = _UNACE
                else:
                    rows.append(row)
                    seqs.append(seq_col[index])
                    detects.append(False)
                    code = _SURVIVOR
            else:
                action = actions[pattern]
                committed = kind_col[index] == KIND_COMMITTED
                if action is BurstAction.CORRECT:
                    stats["ecc_corrected"] += 1
                    code = _CORRECTED
                elif action is BurstAction.DETECT:
                    stats["ecc_detected"] += 1
                    if not committed:
                        code = _UNACE if suppress_wrong else _FALSE_DUE
                    else:
                        rows.append(row)
                        seqs.append(seq_col[index])
                        detects.append(True)
                        code = _SURVIVOR_DETECT
                else:
                    stats["ecc_escaped"] += 1
                    if not committed:
                        code = _UNACE
                    else:
                        rows.append(row)
                        seqs.append(seq_col[index])
                        detects.append(False)
                        code = _SURVIVOR
            tallies[code] = tallies.get(code, 0) + 1
        return tallies, rows, seqs, detects

    def _classify_survivors_mbu(self, counts: Counter, batch: StrikeBatch,
                                rows, seqs, detects):
        """Walk the committed-read survivors of a scheme/MBU batch.

        Burst static hints are the subset test ``mask ⊆ kill_mask[seq]``
        — equivalent to the oracle's per-bit conjunction
        (:meth:`~repro.faults.oracle.EffectOracle.classify_static_mask`)
        because bit ``b`` of the kill mask is exactly
        ``classify_static(seq, b) is not None``. Detected survivors run
        the parity-style tracker tail on the burst's representative bit;
        escaped (or unprotected) survivors run the unprotected tail.
        """
        from repro.faults.injector import _EFFECT_TO_OUTCOME

        evaluator = self.evaluator
        oracle = evaluator.oracle
        bursts = []
        for row in rows:
            mask = batch.mask[row] if batch.mask is not None else 0
            bursts.append(mask or (1 << batch.bit[row]))
        if oracle.static_filter and any(
                not oracle.is_memoized_mask(seq, burst)
                for seq, burst in zip(seqs, bursts)):
            masks = self._kill_masks()
            hints = [(masks[seq] & burst) == burst
                     for seq, burst in zip(seqs, bursts)]
        else:
            hints = [False] * len(seqs)
        tracker = evaluator.tracker
        executions_before = oracle.executions
        tracker_misses = 0
        for seq, burst, hint, detect in zip(seqs, bursts, hints, detects):
            effect = oracle.effect_mask_from_hint(seq, burst, hint)
            if not detect:
                if effect == "none":
                    counts[FaultOutcome.BENIGN_UNACE] += 1
                else:
                    counts[_EFFECT_TO_OUTCOME[effect]] += 1
                continue
            decision = tracker.process_fault(seq, representative_bit(burst))
            if decision.signaled:
                if effect == "none":
                    counts[FaultOutcome.FALSE_DUE] += 1
                else:
                    counts[FaultOutcome.TRUE_DUE] += 1
            elif effect == "none":
                counts[FaultOutcome.BENIGN_UNACE] += 1
            else:
                counts[_EFFECT_TO_OUTCOME[effect]] += 1
                tracker_misses += 1
        executed = oracle.executions - executions_before
        self.reexecutions += executed
        self.scalar_kills += len(rows) - executed
        return counts, tracker_misses
