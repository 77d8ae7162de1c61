"""The effect oracle: memoized + statically pre-filtered strike evaluation.

``architectural_effect`` re-executes the whole program per strike, but the
answer depends only on ``(program, seq, bit)`` — a finite space that
Monte-Carlo campaigns and tracking-level ablations hit repeatedly. The
:class:`EffectOracle` removes that redundancy on three levels:

1. **In-process memo**: every computed ``(seq, mask) -> effect`` is kept,
   so a campaign pays for each distinct strike point once, not once per
   trial, and ablations over tracking levels (which share the strike
   space) pay nothing at all.
2. **Static pre-filter**: many flips are provably inert from the decoded
   encoding and the baseline's dataflow alone — no re-execution needed.
   The classification rules (each carries a soundness argument below and
   a brute-force equivalence proof in ``tests/test_oracle.py``):

   * **Non-live field** — the flipped bit lies in a field the struck
     opcode does not architecturally interpret (``encoding.live_fields``:
     e.g. R3 of a load, R1 of a branch, anything but the opcode of a
     no-op). The executor never reads the field, so the corrupted run is
     instruction-for-instruction identical.
   * **Predicated-false op** — the baseline nullified the instruction
     (``executed=False``) and the flip is outside the QP and OPCODE
     fields. The qualifying predicate and opcode are unchanged, so the
     corrupted instruction is nullified too and writes nothing. (QP
     flips could un-nullify it; OPCODE flips could produce HALT/ILLEGAL,
     which act before predication — both re-execute.)
   * **Dead destination value** — the instruction's dynamic class per
     :mod:`repro.analysis.deadcode` is first-level dead (``FDD_REG`` /
     ``FDD_REG_RETURN``: its result was never read before being
     overwritten or before program end), and the flip lies in a live
     *source or immediate* field (R2/R3/IMM7). The corruption can only
     change the value written to the same dead destination: execution is
     identical up to ``seq``, the differing value is never read before
     its overwrite kills the difference, and observable output excludes
     the register file. Flips of the R1 destination specifier are
     excluded — they retarget the write and can clobber live state — as
     are transitively-dead classes, stores, and anything live.

3. **Cross-process persistence**: the memo table rides the runtime's
   content-addressed :class:`~repro.runtime.cache.ResultCache` under a
   key covering the program bytes, its baseline run and the code
   version, so warm campaigns skip re-execution across worker processes
   and across runs.

What is left re-executes only the instructions a strike can change: the
run resumes from the baseline snapshot at or before the struck ``seq``
and stops as soon as its state and outputs so far rejoin the baseline's
at a later snapshot (:meth:`FunctionalSimulator.run`, ``resume``).

The static filter is semantics-preserving by construction;
:meth:`EffectOracle.reexecute` bypasses memo and filter for the tests
that check both against re-execution.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.deadcode import DynClass
from repro.arch.executor import ExecutionLimits, FunctionalSimulator
from repro.arch.result import ExecutionResult, ExecutionStatus
from repro.isa.encoding import ENCODING_BITS, Field, field_at_bit, live_fields

#: Architectural effects the oracle may return.
EFFECTS = ("none", "sdc", "trap", "hang")

#: Dynamic classes whose destination value is provably unread: a changed
#: value written to the same destination cannot reach observable output.
_DEAD_DEST_CLASSES = (DynClass.FDD_REG, DynClass.FDD_REG_RETURN)

#: Fields whose flip only perturbs the *value* an instruction computes,
#: never which architectural location it writes or whether it executes.
_VALUE_FIELDS = (Field.R2, Field.R3, Field.IMM7)

#: Namespace for multi-bit memo keys: a burst of mask ``m`` on ``seq``
#: is keyed as ``(seq, _MASK_KEY_BASE | m)``. Single-bit keys use the
#: bit index (0..40) and ``_MASK_KEY_BASE`` exceeds any 41-bit mask, so
#: the two key families can never collide, and both survive
#: :func:`validate_table`'s (int, int) shape check.
_MASK_KEY_BASE = 1 << ENCODING_BITS


def _memo_key(seq: int, mask: int) -> Tuple[int, int]:
    """Memo key of flipping ``mask`` at ``seq``: ``(seq, bit)`` for a
    single bit, ``(seq, _MASK_KEY_BASE | mask)`` for a burst."""
    if mask <= 0:
        raise ValueError("burst mask must have at least one set bit")
    if mask & (mask - 1) == 0:
        return seq, mask.bit_length() - 1
    return seq, _MASK_KEY_BASE | mask


def default_limits(baseline: ExecutionResult) -> ExecutionLimits:
    """The execution budget ``architectural_effect`` has always used."""
    return ExecutionLimits(
        max_instructions=max(10_000, 3 * len(baseline.trace)))


def effect_of(rerun: ExecutionResult, baseline_signature: Tuple) -> str:
    """The architectural effect a corrupted re-execution shows."""
    if rerun.status is ExecutionStatus.LIMIT:
        return "hang"
    if rerun.status in (ExecutionStatus.TRAP_ILLEGAL,
                        ExecutionStatus.RET_UNDERFLOW):
        return "trap"
    if rerun.output_signature() == baseline_signature:
        return "none"
    return "sdc"


class EffectOracle:
    """Per-configuration memo of ``(seq, mask) -> architectural effect``.

    Built over a :class:`~repro.faults.batch.StrikeSubject`, which holds
    what the program and its baseline determine (output signature,
    budget, deadness, snapshot log) and may be shared by many oracles.
    The memo itself belongs to one instance, typically one campaign
    shard, and answers :meth:`effect_mask` by memo lookup, then static
    classification, then (only when both fail) re-execution. Entries
    loaded via :meth:`preload` (from the persistent cache) are served
    without re-executing; entries computed locally are retrievable via
    :meth:`new_entries` for merging back into the cache.
    """

    def __init__(self, subject) -> None:
        self.subject = subject
        self._table: Dict[Tuple[int, int], str] = {}
        self._new: Dict[Tuple[int, int], str] = {}
        # Counters (mirrored into runtime telemetry by the campaign):
        self.memo_hits = 0
        self.static_kills = 0
        self.executions = 0
        self.replayed_insts = 0
        self.converged = 0

    @property
    def baseline(self) -> ExecutionResult:
        return self.subject.baseline

    @property
    def deadness(self):
        return self.subject.deadness

    # -- persistence hooks -------------------------------------------------

    def preload(self, table: Dict[Tuple[int, int], str]) -> int:
        """Seed the memo from a persisted table; returns entries loaded."""
        loaded = 0
        for key, effect in table.items():
            if key not in self._table:
                self._table[key] = effect
                loaded += 1
        return loaded

    def new_entries(self) -> Dict[Tuple[int, int], str]:
        """Entries computed by *this* oracle (preloaded ones excluded)."""
        return dict(self._new)

    def counters(self) -> Dict[str, int]:
        return {
            "oracle_memo_hits": self.memo_hits,
            "oracle_static_kills": self.static_kills,
            "oracle_executions": self.executions,
            "oracle_replayed_insts": self.replayed_insts,
            "oracle_converged": self.converged,
        }

    # -- the oracle itself -------------------------------------------------

    def effect(self, seq: int, bit: int) -> str:
        """Architectural effect of flipping ``bit`` of instruction ``seq``."""
        return self.effect_mask(seq, 1 << bit)

    def effect_mask(self, seq: int, mask: int) -> str:
        """Architectural effect of flipping the bits of ``mask`` at ``seq``."""
        inert = (not self.is_memoized_mask(seq, mask)
                 and self.classify_static_mask(seq, mask) is not None)
        return self.effect_mask_from_hint(seq, mask, inert)

    def effect_mask_from_hint(self, seq: int, mask: int,
                              inert_hint: bool) -> str:
        """:meth:`effect_mask` with the static verdict supplied by the caller.

        ``inert_hint`` must equal ``classify_static_mask(seq, mask) is
        not None`` — which, because the static rules compose per bit, is
        exactly "``mask`` is a subset of the strike classifier's kill
        mask" (:func:`repro.faults.batch.build_kill_masks`); the
        equivalence is pinned in ``tests/test_strike_batching.py`` and
        ``tests/test_mbu.py``.
        """
        key = _memo_key(seq, mask)
        cached = self._table.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        if inert_hint:
            self.static_kills += 1
            effect = "none"
        else:
            effect = self.reexecute(seq, mask)
        self._table[key] = effect
        self._new[key] = effect
        return effect

    def is_memoized_mask(self, seq: int, mask: int) -> bool:
        """Whether :meth:`effect_mask` would be served from the memo.

        Does not count as a memo hit.
        """
        return _memo_key(seq, mask) in self._table

    def classify_static(self, seq: int, bit: int) -> Optional[str]:
        """Provably-inert classification, or None when execution is needed.

        Returns the *reason* string when the flip is inert (the effect is
        always ``"none"``); callers that only need the verdict can treat
        any non-None return as "none".
        """
        op = self.baseline.trace[seq]
        field = field_at_bit(bit)
        opcode = op.instruction.opcode
        if field not in live_fields(opcode):
            return "non-live field"
        if not op.executed:
            if field is not Field.QP and field is not Field.OPCODE:
                return "predicated-false, non-qp/opcode flip"
            return None
        if field in _VALUE_FIELDS and not op.is_store:
            if self.deadness.class_of(seq) in _DEAD_DEST_CLASSES:
                return "dead destination value"
        return None

    def classify_static_mask(self, seq: int, mask: int) -> Optional[str]:
        """Provably-inert classification of a whole burst, or None.

        A burst is inert when **every** set bit is individually inert.
        The conjunction is sound because each rule's argument is
        field-level, not bit-level: rule 1 bits all lie in fields the
        executor never reads for this opcode (and ``OPCODE`` is live for
        every opcode, so the decoded opcode — hence the liveness
        judgment itself — is unchanged by the burst); rule 2 bits all
        lie outside QP/OPCODE on a nullified instruction, so the
        corrupted instruction is nullified too and writes nothing; rule
        3 bits all lie in value-source fields of a first-level-dead
        instruction, so the combined flip still only perturbs the value
        written to the same never-read destination. Mixing rules across
        bits composes for the same reason each rule tolerates any flip
        *within* its field set. The brute-force multi-bit sweep in
        ``tests/test_mbu.py`` pins this against re-execution.
        """
        reasons = []
        remaining = mask
        if remaining <= 0:
            raise ValueError("burst mask must have at least one set bit")
        while remaining:
            bit = (remaining & -remaining).bit_length() - 1
            reason = self.classify_static(seq, bit)
            if reason is None:
                return None
            reasons.append(reason)
            remaining &= remaining - 1
        if len(reasons) == 1:
            return reasons[0]
        return "burst: " + " + ".join(sorted(set(reasons)))

    def reexecute(self, seq: int, mask: int) -> str:
        """The slow path: re-execute with ``mask`` flipped at ``seq``.

        Bypasses the memo and the static filter (tests use it to check
        both against re-execution) but ticks the execution counters.

        The run resumes from the baseline snapshot at or before ``seq``
        and stops as soon as its state rejoins the baseline's at a later
        snapshot (see :meth:`FunctionalSimulator.run`); the snapshot log
        is the subject's, one extra baseline run made on the first
        re-execution of any oracle over it.
        """
        # Local import: injector imports this module at definition time.
        from repro.faults.injector import corrupt_burst

        self.executions += 1
        subject = self.subject
        original = subject.baseline.trace[seq].instruction
        corrupted = corrupt_burst(original, mask)
        if corrupted == original:
            raise AssertionError("a strike must change the instruction")
        rerun = FunctionalSimulator(subject.program, subject.limits).run(
            record_trace=False, override_seq=seq,
            override_instruction=corrupted, resume=subject.snapshots)
        self.replayed_insts += rerun.steps
        self.converged += rerun.converged
        return effect_of(rerun, subject.signature)


# ---------------------------------------------------------------------------
# Persistence through the content-addressed runtime cache
# ---------------------------------------------------------------------------

def oracle_cache_key(subject_key: str) -> str:
    """Cache key of a strike subject's persisted effect table.

    ``subject_key`` is the :func:`~repro.faults.batch.subject_key` of
    the program and its baseline run: an effect is a re-execution judged
    against that baseline's outputs within a budget derived from it, so
    a truncated or foreign baseline of the same program has a table of
    its own. The code version comes in through
    :func:`repro.runtime.cache.cache_key`.
    """
    from repro.runtime.cache import cache_key

    return cache_key("effect-oracle", subject_key)


def validate_table(value: object) -> Optional[Dict[Tuple[int, int], str]]:
    """Return the table when structurally sound, else None."""
    if not isinstance(value, dict):
        return None
    for key, effect in value.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(part, int) for part in key)
                and effect in EFFECTS):
            return None
    return value


def load_persisted(cache, key: str) -> Dict[Tuple[int, int], str]:
    """Load a persisted effect table; malformed entries count as misses."""
    from repro.runtime.cache import MISS

    if cache is None:
        return {}
    value = cache.get(key)
    if value is MISS:
        return {}
    table = validate_table(value)
    if table is None:
        cache.errors += 1
        return {}
    return table


def persist(cache, key: str, new_entries: Dict[Tuple[int, int], str]) -> None:
    """Merge ``new_entries`` into the persisted table (union semantics).

    Re-reads the current table first so concurrent campaigns over the
    same program lose at most a race's worth of entries, never the whole
    table. Write failures are swallowed by the cache layer.
    """
    if cache is None or not new_entries:
        return
    merged = load_persisted(cache, key)
    merged.update(new_entries)
    cache.put(key, merged)
