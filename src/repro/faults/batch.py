"""Strike drawing and classification: the campaign's one outcome rule.

A campaign shard turns its trial range into outcomes in two array steps:

* :func:`draw_strike_batch` draws every trial's ``(interval, bit,
  cycle)`` triple — plus the burst ``mask``/``pattern`` of a multi-bit
  campaign — from the trial's private
  :func:`~repro.util.rng.derive_seed` stream, so a trial's strike depends
  only on its index and any sharding reproduces the serial campaign. The
  point → interval mapping is one binary search over the residency
  prefix sums of the columnar :class:`~repro.pipeline.iq.IntervalTimeline`.
* :class:`StrikeSubject` holds what the program and its baseline run
  determine — output signature and budget, deadness, kill masks,
  snapshot log. It is derived at most once per process per program and
  shared by every campaign and block on it; a campaign's pool workers
  start holding the parent's (:func:`repro.faults.campaign.
  execute_campaign`).
* :class:`StrikeClassifier` applies Figure 1's outcome tree (benign,
  SDC, true/false DUE, corrected). The protection is one row per burst
  pattern of a decoder action table: unprotected queues escape every
  pattern, parity detects and single-bit ECC corrects, and an
  :class:`~repro.due.tracking.EccScheme` supplies its own rows. Never-read,
  corrected and wrong-path strikes are tallied as array operations; the
  committed-read survivors look their static verdict up in one 41-bit
  kill mask per trace entry (:func:`build_kill_masks`) — a burst is
  inert iff it is a subset of its entry's mask, a single bit being the
  burst ``1 << bit`` — before falling through to the memoized
  :class:`~repro.faults.oracle.EffectOracle` for re-execution.

The per-trial scalar semantics this module replaced live on as the test
reference (``tests/strike_reference.py``); the differential suites pin
tallies, tracker misses, oracle counters and oracle entries against it.
"""

from __future__ import annotations

import hashlib
import threading
from bisect import bisect_right
from collections import Counter, OrderedDict
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# CPython's C-level Mersenne Twister (random.Random's base class).
from _random import Random as _CoreRandom

from repro.analysis.deadcode import analyze_deadness
from repro.arch.executor import SnapshotLog, resume_log
from repro.arch.result import ExecutionResult
from repro.due.outcomes import FaultOutcome, Tally
from repro.due.pi_bit import PiBitTracker
from repro.due.tracking import BurstAction, TrackingLevel, classify_burst
from repro.faults.mbu import (
    CANONICAL_MASKS,
    PMF_RESOLUTION,
    BurstPattern,
    get_preset,
    mask_for,
    representative_bit,
)
from repro.faults.oracle import (
    _DEAD_DEST_CLASSES,
    EffectOracle,
    default_limits,
)
from repro.isa.encoding import ENCODING_BITS, Field, field_bits, live_fields
from repro.isa.program import Program
from repro.pipeline.iq import CODE_BY_KIND, KIND_COMMITTED, NO_VALUE
from repro.pipeline.result import PipelineResult
from repro.runtime.cache import cache_key

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


def empty_space_message(result: PipelineResult,
                        label: Optional[str] = None) -> str:
    """The attributable empty-entry-cycle-space diagnostic.

    ``label`` (the program name) is folded in so campaign quarantine
    reports can attribute the unsampleable pipeline result to its
    workload.
    """
    origin = f" [{label}]" if label else ""
    return ("pipeline result has an empty entry-cycle space "
            f"({result.iq_entries} entries x {result.cycles} "
            f"cycles){origin}")


# ---------------------------------------------------------------------------
# The strike arrays
# ---------------------------------------------------------------------------

def _column(values, dtype=np.int64) -> np.ndarray:
    return np.asarray(values, dtype=dtype).reshape(-1)


class StrikeBatch:
    """Pre-drawn strikes for trials ``[start, stop)``.

    Three parallel columns, one row per trial: ``interval_index`` (row
    of the pipeline result's interval sequence,
    :data:`~repro.pipeline.iq.NO_VALUE` for a strike on an idle entry),
    ``cycle`` (absolute strike cycle, 0 for idle), and ``bit`` (0..40).

    Multi-bit campaigns add ``mask`` (the burst flip mask, 0 for a
    single) and ``pattern`` (the drawn
    :class:`~repro.faults.mbu.BurstPattern` code); both are ``None`` for
    single-bit batches.
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
        self.interval_index = _column(interval_index)
        self.cycle = _column(cycle)
        self.bit = _column(bit)
        self.mask = None if mask is None else _column(mask)
        self.pattern = None if pattern is None else _column(pattern, np.int8)
        columns = [self.interval_index, self.cycle, self.bit]
        if self.mask is not None:
            columns += [self.mask, self.pattern]
        if any(len(column) != stop - start for column in columns):
            raise ValueError("batch columns must cover exactly [start, stop)")

    def __len__(self) -> int:
        return self.stop - self.start

    def triples(self) -> List[Tuple[int, int, int]]:
        """``(interval_index, cycle, bit)`` rows, for tests and debugging."""
        return list(zip(self.interval_index.tolist(), self.cycle.tolist(),
                        self.bit.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StrikeBatch):
            return False
        pairs = [(getattr(self, name), getattr(other, name))
                 for name in ("interval_index", "cycle", "bit", "mask",
                              "pattern")]
        return ((self.start, self.stop) == (other.start, other.stop)
                and all(a is b if a is None or b is None
                        else np.array_equal(a, b) for a, b in pairs))

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
        alloc = np.frombuffer(timeline.alloc, dtype=np.int64)
        resident = np.frombuffer(timeline.dealloc, dtype=np.int64) - alloc
    else:
        alloc = _column([iv.alloc_cycle for iv in result.intervals])
        resident = _column([iv.resident_cycles for iv in result.intervals])
    return alloc, resident, np.cumsum(resident)


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

    Each trial draws, from its own seed stream, a bit and then a uniform
    point over the entry-cycle space (strikes are uniform over entry x
    cycle x bit, so an occupant is hit in proportion to its residency
    and an idle entry with the queue's idle fraction). Multi-bit
    campaigns (``config.mbu_preset`` set) then draw the burst pattern
    and, for random doubles, the rejection-sampled second bit, strictly
    after the ``(bit, point)`` pair on the same stream; single-bit
    campaigns draw nothing more, so their streams are unchanged.

    Raises ``ValueError`` (naming ``program_name``) when the pipeline
    result has no entry-cycle space to strike.
    """
    alloc, resident, cumulative = _residency_columns(result)
    resident_total = int(cumulative[-1]) if len(cumulative) else 0
    space_total = result.total_entry_cycles
    if space_total <= 0:
        raise ValueError(empty_space_message(result, program_name))
    if resident_total > space_total:
        raise ValueError("occupancy exceeds the entry-cycle space")

    preset = (get_preset(config.mbu_preset)
              if config.mbu_preset is not None else None)
    bits: List[int] = []
    points: List[int] = []
    masks: Optional[List[int]] = [] if preset is not None else None
    patterns: Optional[List[int]] = [] if preset is not None else None
    # ``randrange(n)`` is pure Python on top of the C generator:
    # ``k = n.bit_length()``, draw ``getrandbits(k)``, reject while
    # ``>= n`` (``Random._randbelow``, unchanged since CPython 3.2).
    # Replaying it directly against the C base class skips two Python
    # call layers per draw; the stream-equivalence suite pins it.
    bit_width = ENCODING_BITS.bit_length()
    point_width = space_total.bit_length()
    pattern_width = PMF_RESOLUTION.bit_length()
    pattern_cum = (list(accumulate(preset.weights))
                   if preset is not None else None)
    for seed in _trial_seeds(config, program_name, start, stop):
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
            # Uniform second bit, rejecting out-of-range draws and the
            # +/-1 window around the first bit.
            second = draw(bit_width)
            while second >= ENCODING_BITS or abs(second - bit) < 2:
                second = draw(bit_width)
        patterns.append(int(pattern))
        masks.append(mask_for(pattern, bit, second))

    point_arr = _column(points)
    occupied = point_arr < resident_total
    index = np.where(occupied,
                     np.searchsorted(cumulative, point_arr, side="right"), 0)
    if len(cumulative):
        span_start = cumulative[index] - resident[index]
        cycle = np.where(occupied, alloc[index] + (point_arr - span_start),
                         0)
    else:
        cycle = np.zeros(len(point_arr), dtype=np.int64)
    return StrikeBatch(start, stop, np.where(occupied, index, NO_VALUE),
                       cycle, bits, masks, patterns)


# ---------------------------------------------------------------------------
# The static pre-filter as one kill mask per trace entry
# ---------------------------------------------------------------------------

def build_kill_masks(baseline, deadness) -> List[int]:
    """One 41-bit static-kill mask per trace entry.

    Bit ``b`` of ``masks[seq]`` is set iff the effect oracle's
    ``classify_static(seq, b)`` proves the flip inert. The three rules
    (non-live field, predicated-false outside QP/OPCODE, dead
    destination value — see :mod:`repro.faults.oracle`) become three
    mask unions per entry, computed column-wise, so a campaign's static
    verdicts are subset tests instead of per-strike field decoding.
    """
    trace = baseline.trace
    kill = np.array(trace.table(lambda i: _ALL_BITS & ~_live_mask(i.opcode)),
                    dtype=np.int64)[trace.instr]
    executed = trace.executed
    dead_dest = np.array([cls in _DEAD_DEST_CLASSES
                          for cls in deadness.classes], dtype=bool)
    kill[~executed] |= _ALL_BITS & ~_QP_OPCODE_MASK
    kill[executed & ~trace.is_store & dead_dest] |= _VALUE_MASK
    return kill.tolist()


# ---------------------------------------------------------------------------
# The strike subject: what every campaign on one program shares
# ---------------------------------------------------------------------------

class StrikeSubject:
    """What a program and its baseline run determine for every strike.

    The baseline's output signature, the re-execution budget and the
    :attr:`key` are taken at construction; the deadness analysis, the
    kill masks and the snapshot log are derived on first use. None of
    it depends on the campaign configuration, so one subject serves
    every campaign, configuration and trial block on the program
    (:func:`local_subject` keeps it for the life of the process). The
    per-configuration parts, the effect oracle's memo and the π-bit
    tracker, stay in :class:`StrikeClassifier`: no memo is shared
    across configurations, so counters never depend on which process
    ran which block.
    """

    def __init__(self, program: Program, baseline: ExecutionResult) -> None:
        self.program = program
        self.baseline = baseline
        #: Budget of every re-execution (a corrupted run may loop).
        self.limits = default_limits(baseline)
        #: What every re-execution's signature is compared against.
        self.signature = baseline.output_signature()
        #: :func:`subject_key` of the program and baseline.
        self.key = subject_key(program, baseline)
        self._deadness = None
        self._kill: Optional[List[int]] = None
        self._snapshots: Optional[SnapshotLog] = None

    def prepare(self) -> "StrikeSubject":
        """Derive every lazy part now; returns the subject.

        A campaign calls this before its first shard, so its pool
        workers start holding the derived parts and no shard's watchdog
        clock is charged for them.
        """
        # Property reads for their side effect: each derives and keeps
        # its part (the kill masks derive the deadness analysis).
        self.kill_masks
        self.snapshots
        return self

    @property
    def deadness(self):
        """The baseline's dead-code analysis (the dead-destination rule)."""
        if self._deadness is None:
            self._deadness = analyze_deadness(self.baseline)
        return self._deadness

    @property
    def kill_masks(self) -> List[int]:
        """:func:`build_kill_masks` of the baseline."""
        if self._kill is None:
            self._kill = build_kill_masks(self.baseline, self.deadness)
        return self._kill

    @property
    def snapshots(self) -> SnapshotLog:
        """Snapshots every re-execution resumes from, with the liveness
        that lets it stop early (:func:`~repro.arch.executor.resume_log`):
        one extra baseline run under the re-execution budget."""
        if self._snapshots is None:
            self._snapshots = resume_log(self.program, self.limits,
                                         self.baseline)
        return self._snapshots


def subject_key(program: Program, baseline: ExecutionResult) -> str:
    """Digest naming the subject of ``(program, baseline)``.

    Covers the program's canonical bytes and the whole run: status,
    outputs, function activations and every trace column, so a
    truncated or otherwise different run of the same program has
    another key.
    """
    trace = baseline.trace
    activations = sorted((key, record.entry_pc, record.call_seq,
                          record.return_seq)
                         for key, record in baseline.invocations.items())
    digest = hashlib.sha256(cache_key("strike-subject", program).encode())
    digest.update(repr((baseline.status.value, baseline.outputs,
                        len(trace), activations)).encode())
    for column in (trace.instr, trace.pc, trace.next_pc, trace.dest_gpr,
                   trace.dest_pred, trace.mem_addr, trace.flags,
                   trace.invocation):
        digest.update(column.tobytes())
    return digest.hexdigest()


#: Bound on the subjects one process keeps: a long-lived server meets
#: many programs over its life.
SUBJECT_CACHE_ENTRIES = 4

#: Subjects this process holds by key, least recently used first.
_SUBJECTS: "OrderedDict[str, StrikeSubject]" = OrderedDict()
#: Guards ``_SUBJECTS`` (a server runs campaigns on several threads).
_LOCK = threading.Lock()


def local_subject(program: Program,
                  baseline: ExecutionResult) -> StrikeSubject:
    """This process's subject of the caller's ``program`` and ``baseline``.

    Looked up by object identity first, so many campaigns on one
    baseline digest it once, then by key.
    """
    with _LOCK:
        for key, subject in _SUBJECTS.items():
            if subject.program is program and subject.baseline is baseline:
                _SUBJECTS.move_to_end(key)
                return subject
    subject = StrikeSubject(program, baseline)
    with _LOCK:
        subject = _SUBJECTS.setdefault(subject.key, subject)
        _SUBJECTS.move_to_end(subject.key)
        while len(_SUBJECTS) > SUBJECT_CACHE_ENTRIES:
            _SUBJECTS.popitem(last=False)
    return subject


def clear_subjects() -> None:
    """Forget every subject this process holds."""
    with _LOCK:
        _SUBJECTS.clear()


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

#: Outcome codes of the array pass, in tally order; ``_SURVIVOR`` marks
#: a committed-read strike that still needs the oracle.
_UNREAD, _CORRECTED, _UNACE, _FALSE_DUE, _SURVIVOR = range(5)
_CODE_OUTCOME = (FaultOutcome.BENIGN_UNREAD, FaultOutcome.CORRECTED,
                 FaultOutcome.BENIGN_UNACE, FaultOutcome.FALSE_DUE)

_EFFECT_TO_OUTCOME = {
    "sdc": FaultOutcome.SDC,
    "trap": FaultOutcome.TRAP,
    "hang": FaultOutcome.HANG,
}


def _action_table(config) -> Tuple[BurstAction, ...]:
    """The decoder's action on each :class:`BurstPattern`, by code.

    A lattice scheme classifies each pattern's canonical mask (every
    drawable mask of a pattern shares its decoder-relevant shape; the
    bijection is pinned in ``tests/test_mbu.py``). The legacy single-bit
    flags are fixed rows: no decoder lets everything escape, parity
    detects, ECC corrects.
    """
    if config.scheme is not None:
        return tuple(classify_burst(config.scheme, CANONICAL_MASKS[pattern])
                     for pattern in BurstPattern)
    if config.parity:
        action = BurstAction.DETECT
    elif config.ecc:
        action = BurstAction.CORRECT
    else:
        action = BurstAction.ESCAPE
    return (action,) * len(BurstPattern)


class StrikeClassifier:
    """Figure 1's outcome tree over one campaign's strike batches.

    Built from a :class:`StrikeSubject`, the campaign's pipeline result
    and its config, and shared by every batch of a shard. It adds the
    per-configuration parts to the subject: the effect oracle's memo
    (preloadable from the persistent cache), the π-bit tracker
    (stateless per fault; any detecting protection needs it), the
    decoder's action table and the interval columns (built lazily).

    A strike that is never read after it lands (idle entry, Ex-ACE
    tail, never-issued occupant) is benign. A read strike meets the
    decoder: ``CORRECT`` repairs it; ``DETECT`` signals a DUE unless the
    tracker proves the occupant dead (a detected wrong-path read is a
    false DUE, suppressed from ``PI_COMMIT`` tracking up); ``ESCAPE``
    consumes the corruption silently, harmless on the wrong path. A
    committed survivor's effect comes from the oracle. ``burst_stats``
    counts multi-bit draws and, for lattice schemes, decoder actions;
    the instance counters record how much work the array pass absorbed.
    """

    def __init__(self, subject: StrikeSubject,
                 pipeline_result: PipelineResult, config) -> None:
        self.subject = subject
        self.config = config
        self.result = pipeline_result
        self.oracle = EffectOracle(subject)
        self.tracker = (
            PiBitTracker(subject.baseline.trace, config.tracking,
                         config.pet_entries)
            if config.parity or config.scheme is not None else None)
        actions = _action_table(config)
        self._correct = np.array([a is BurstAction.CORRECT for a in actions])
        self._detect = np.array([a is BurstAction.DETECT for a in actions])
        self._wrong_detect = (_UNACE
                              if config.tracking >= TrackingLevel.PI_COMMIT
                              else _FALSE_DUE)
        self._columns = None  # (seq, kind, issue) per interval row
        self.burst_stats: Dict[str, int] = {
            "mbu_multi_bit": 0,
            "ecc_corrected": 0,
            "ecc_detected": 0,
            "ecc_escaped": 0,
        }
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

    def burst_counters(self) -> Dict[str, int]:
        return dict(self.burst_stats)

    def _interval_columns(self):
        if self._columns is None:
            timeline = self.result.timeline
            if timeline is not None:
                self._columns = (
                    np.frombuffer(timeline.seq, dtype=np.int64),
                    np.frombuffer(timeline.kind, dtype=np.int8),
                    np.frombuffer(timeline.issue, dtype=np.int64))
            else:
                intervals = self.result.intervals
                self._columns = (
                    _column([NO_VALUE if iv.seq is None else iv.seq
                             for iv in intervals]),
                    _column([CODE_BY_KIND[iv.kind] for iv in intervals],
                            np.int8),
                    _column([NO_VALUE if iv.issue_cycle is None
                             else iv.issue_cycle for iv in intervals]))
        return self._columns

    def classify(self, batch: StrikeBatch) -> Tally:
        """The :class:`~repro.due.outcomes.Tally` of one batch of trials."""
        n = len(batch)
        self.trials += n
        seq_col, kind_col, issue_col = self._interval_columns()
        occupied = batch.interval_index != NO_VALUE
        if len(seq_col):
            row = np.where(occupied, batch.interval_index, 0)
            seqs, kinds, issues = seq_col[row], kind_col[row], issue_col[row]
        else:
            seqs = kinds = issues = np.zeros(n, dtype=np.int64)
        # Read after the strike: never-issued occupants (issue NO_VALUE)
        # and strikes in the Ex-ACE tail are never consumed.
        read = occupied & (batch.cycle < issues)
        pattern = (batch.pattern if batch.pattern is not None
                   else np.zeros(n, dtype=np.int8))
        corrected = read & self._correct[pattern]
        detected = read & self._detect[pattern]
        escaped = read & ~corrected & ~detected
        committed = kinds == KIND_COMMITTED
        stats = self.burst_stats
        stats["mbu_multi_bit"] += int(np.count_nonzero(
            pattern != BurstPattern.SINGLE))
        if self.config.scheme is not None:
            stats["ecc_corrected"] += int(corrected.sum())
            stats["ecc_detected"] += int(detected.sum())
            stats["ecc_escaped"] += int(escaped.sum())

        codes = np.full(n, _UNREAD, dtype=np.int8)
        codes[corrected] = _CORRECTED
        codes[escaped & ~committed] = _UNACE
        codes[detected & ~committed] = self._wrong_detect
        survivors = (detected | escaped) & committed
        codes[survivors] = _SURVIVOR
        tallies = np.bincount(codes, minlength=_SURVIVOR + 1).tolist()
        counts = Counter({outcome: tally for outcome, tally
                          in zip(_CODE_OUTCOME, tallies) if tally})
        rows = np.flatnonzero(survivors)
        self.vector_kills += n - len(rows)
        if not len(rows):
            return Tally(counts)
        bursts = np.left_shift(1, batch.bit[rows])
        if batch.mask is not None:
            bursts = np.where(batch.mask[rows] != 0, batch.mask[rows], bursts)
        return self._classify_survivors(counts, seqs[rows].tolist(),
                                        bursts.tolist(),
                                        detected[rows].tolist())

    def _classify_survivors(self, counts: Counter, seqs: List[int],
                            bursts: List[int], detects: List[bool]) -> Tally:
        """Walk the committed-read survivors in trial order.

        A burst's static hint is the subset test ``burst ⊆ kill[seq]``,
        equivalent to the oracle's per-bit conjunction
        (:meth:`~repro.faults.oracle.EffectOracle.classify_static_mask`)
        because bit ``b`` of the kill mask is exactly ``classify_static(seq,
        b) is not None``. Hints are consulted only for strikes the memo
        cannot answer, so a warmed oracle never asks for the masks.
        Detected survivors ask the tracker, on the burst's representative
        bit, whether the error is signalled.
        """
        oracle = self.oracle
        if any(not oracle.is_memoized_mask(seq, burst)
               for seq, burst in zip(seqs, bursts)):
            kill = self.subject.kill_masks
            hints = [(kill[seq] & burst) == burst
                     for seq, burst in zip(seqs, bursts)]
        else:
            hints = [False] * len(seqs)
        tracker = self.tracker
        executions_before = oracle.executions
        misses = 0
        for seq, burst, hint, detect in zip(seqs, bursts, hints, detects):
            effect = oracle.effect_mask_from_hint(seq, burst, hint)
            if detect and tracker.process_fault(
                    seq, representative_bit(burst)).signaled:
                counts[FaultOutcome.FALSE_DUE if effect == "none"
                       else FaultOutcome.TRUE_DUE] += 1
            elif effect == "none":
                counts[FaultOutcome.BENIGN_UNACE] += 1
            else:
                counts[_EFFECT_TO_OUTCOME[effect]] += 1
                # A detected error the tracker let through: an artifact
                # of replaying π propagation over the uncorrupted trace.
                misses += detect
        executed = oracle.executions - executions_before
        self.reexecutions += executed
        self.scalar_kills += len(seqs) - executed
        return Tally(counts, misses)
