"""Strike-sampling tests (of the per-trial reference sampler, which the
batch drawer is checked against in ``tests/test_strike_batching.py``)."""

import pytest

from repro.isa.encoding import ENCODING_BITS
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.pipeline.iq import OccupancyInterval, OccupantKind
from repro.pipeline.result import PipelineResult
from repro.util.rng import DeterministicRng
from tests.strike_reference import StrikeModel


def make_result(intervals, cycles=100, entries=4):
    return PipelineResult(cycles=cycles, committed=0, intervals=intervals,
                          iq_entries=entries)


def occ(alloc, dealloc, seq=0):
    return OccupancyInterval(seq, Instruction(Opcode.NOP),
                             OccupantKind.COMMITTED, alloc, dealloc, dealloc)


class TestSampling:
    def test_idle_probability_matches_idle_fraction(self):
        # 100 resident entry-cycles out of 400 -> 75 % idle strikes.
        result = make_result([occ(0, 100)])
        model = StrikeModel(result, DeterministicRng(1))
        idle = sum(model.sample().hit_idle for _ in range(4000))
        assert 0.70 < idle / 4000 < 0.80

    def test_interval_weighting(self):
        # One interval 3x as resident as another gets ~3x the strikes.
        long_interval = occ(0, 90, seq=0)
        short_interval = occ(0, 30, seq=1)
        result = make_result([long_interval, short_interval], entries=2,
                             cycles=60)
        model = StrikeModel(result, DeterministicRng(2))
        hits = {0: 0, 1: 0}
        for _ in range(3000):
            strike = model.sample()
            if strike.interval is not None:
                hits[strike.interval.seq] += 1
        assert 2.3 < hits[0] / hits[1] < 3.9

    def test_strike_cycle_within_interval(self):
        result = make_result([occ(10, 40)])
        model = StrikeModel(result, DeterministicRng(3))
        for _ in range(300):
            strike = model.sample()
            if strike.interval is not None:
                assert 10 <= strike.cycle < 40

    def test_bit_range(self):
        result = make_result([occ(0, 100)])
        model = StrikeModel(result, DeterministicRng(4))
        bits = {model.sample().bit for _ in range(2000)}
        assert bits <= set(range(ENCODING_BITS))
        assert len(bits) > 30  # nearly all bit positions get hit

    def test_deterministic(self):
        result = make_result([occ(0, 100)])
        a = StrikeModel(result, DeterministicRng(5))
        b = StrikeModel(result, DeterministicRng(5))
        for _ in range(50):
            sa, sb = a.sample(), b.sample()
            assert (sa.cycle, sa.bit, sa.hit_idle) == \
                (sb.cycle, sb.bit, sb.hit_idle)

    def test_empty_space_rejected(self):
        result = make_result([], cycles=0)
        with pytest.raises(ValueError):
            StrikeModel(result, DeterministicRng(1))
