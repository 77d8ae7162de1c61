"""Tests for the benchmark's own helpers (no program import needed).

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import signal
import time
from pathlib import Path

import pytest

from perfbench.clock import REFERENCE_S, HostClock, WallClock
from perfbench.common import worker_metrics
from perfbench.stats import (
    backlog_grows,
    counter_delta,
    layer_self_times,
    open_loop_latencies,
    percentile,
    poisson_schedule,
    tail,
    union_length,
    validate_metric_name,
)
from perfbench.tracing import Recorder, wrapper_cost

ROOT = Path(__file__).resolve().parents[2]


def span(id_, name, parent, start, end):
    return {"id": id_, "name": name, "parent": parent,
            "start": start, "end": end}


# -- self time -----------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [span(1, "root", None, 0.0, 10.0),
             span(2, "a", 1, 1.0, 4.0),
             span(3, "b", 2, 2.0, 3.0),
             span(4, "a", 1, 5.0, 9.0)]
    assert layer_self_times(spans) == {"root": 3.0, "a": 6.0, "b": 1.0}


def test_overlapping_children_are_subtracted_once():
    spans = [span(1, "phase", None, 0.0, 10.0),
             span(2, "client", 1, 1.0, 5.0),
             span(3, "client", 1, 3.0, 7.0)]
    layers = layer_self_times(spans)
    assert layers == {"phase": pytest.approx(4.0),
                      "client": pytest.approx(6.0)}
    assert sum(layers.values()) == pytest.approx(10.0)


def test_layer_self_times_partition_the_root():
    rng = random.Random(3)
    spans = [span(1, "other", None, 0.0, 100.0)]
    next_id = 2

    def grow(parent_id, lo, hi, depth):
        nonlocal next_id
        cursor = lo
        while cursor < hi and depth < 3:
            start = cursor + rng.uniform(0, 5)
            end = min(hi, start + rng.uniform(0, 20))
            if end <= start:
                break
            my_id = next_id
            next_id += 1
            spans.append(span(my_id, rng.choice("abc"), parent_id,
                              start, end))
            grow(my_id, start, end, depth + 1)
            cursor = end
    grow(1, 0.0, 100.0, 0)
    assert sum(layer_self_times(spans).values()) == pytest.approx(100.0)


def test_union_length():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_recorder_spans_and_restore():
    class Target:
        def work(self, x):
            return x * 2

    recorder = Recorder("run-1")
    seen = []
    recorder.wrap(Target, "work", "layer.work",
                  lambda result, *args: seen.append(result))
    with recorder.span("other"):
        assert Target().work(3) == 6
    recorder.restore()
    assert Target().work(4) == 8
    assert seen == [6]
    names = [s["name"] for s in recorder.spans]
    assert names == ["other", "layer.work"]
    child = recorder.spans[1]
    assert child["parent"] == recorder.spans[0]["id"]
    assert child["run"] == "run-1"
    layers = recorder.layers()
    assert layers["layer.work"]["calls"] == 1
    total = sum(entry["self_s"] for entry in layers.values())
    root = recorder.spans[0]
    assert total == pytest.approx(root["end"] - root["start"])


def test_phase_counter_deltas_and_self_times():
    counts = {"hits": 0}
    recorder = Recorder("r", probe=lambda: dict(counts))
    with recorder.span("other"):
        with recorder.span("phase.cold"):
            counts["hits"] += 2
            with recorder.span("layer"):
                pass
        counts["hits"] += 100  # between phases: in no phase
        for _ in range(2):
            with recorder.span("phase.warm"):
                counts["hits"] += 5
    assert recorder.phase_deltas == {"phase.cold": {"hits": 2},
                                     "phase.warm": {"hits": 10}}
    cold = recorder.self_times_within("phase.cold")
    assert set(cold) == {"phase.cold", "layer"}
    phase = recorder.spans[1]
    assert sum(cold.values()) == pytest.approx(phase["end"] - phase["start"])


def test_wrapper_cost_is_non_negative_and_restores():
    assert 0.0 <= wrapper_cost(calls=1000) < 0.01


def test_chrome_trace_is_written(tmp_path):
    recorder = Recorder("r")
    with recorder.span("other"):
        pass
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert events[0]["ph"] == "X" and events[0]["name"] == "other"


# -- scaled clock --------------------------------------------------------------

class FakeTime:
    """A settable wall time, and reference-loop times served in order."""

    def __init__(self, references):
        self.now = 0.0
        self.references = list(references)

    def timer(self):
        return self.now

    def reference(self):
        return self.references.pop(0)


def quiet_clock(fake):
    """A clock whose interval timer never fires during a test."""
    return HostClock(fake.timer, fake.reference, period=3600.0)


def test_host_clock_scales_each_interval_by_the_sample_ending_it():
    ref = REFERENCE_S
    fake = FakeTime([ref, 2 * ref, ref])
    clock = quiet_clock(fake)
    clock.start()
    fake.now = 1.0           # 1 s of work, then the host reads 1x
    clock.sample()
    fake.now = 3.0 + ref     # 2 s of work (plus the loop), host at 2x
    clock.sample()
    fake.now = 3.5 + 3 * ref   # 0.5 s at 1x, then stop samples once more
    assert clock.stop() == pytest.approx(1.0 + 2.0 / 2 + 0.5)
    assert clock.raw == pytest.approx(3.5)
    assert clock.samples == 3


def test_host_clock_restarts_from_zero_and_restores_the_handler():
    fake = FakeTime([REFERENCE_S] * 2)
    clock = quiet_clock(fake)
    before = signal.getsignal(signal.SIGALRM)
    clock.start()
    fake.now = 5.0
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    clock.start()
    fake.now = 6.0
    assert clock.stop() == pytest.approx(1.0)


def test_host_clock_samples_from_the_interval_timer():
    clock = HostClock(period=0.005)
    clock.start()
    deadline = time.perf_counter() + 0.1
    while time.perf_counter() < deadline:
        pass
    scaled = clock.stop()
    assert clock.samples > 5
    assert 0.05 < clock.raw <= 0.1 + 1e-3   # less the loops themselves
    assert scaled > 0


def test_wall_clock_is_plain_elapsed_time():
    fake = FakeTime([])
    clock = WallClock(fake.timer)
    clock.start()
    fake.now = 2.5
    assert clock.stop() == 2.5


# -- percentile rule -----------------------------------------------------------

def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100


@pytest.mark.parametrize("n, pct", [
    (5, 0.0), (19, 0.0), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_reports_highest_percentile_with_ten_beyond(n, pct):
    chosen, value, count = tail([float(i) for i in range(n)])
    assert (chosen, count) == (pct, n)
    if pct:
        assert sum(1 for i in range(n) if i > value) >= 10
    else:
        assert value == n - 1


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail([])


# -- open loop -------------------------------------------------------------------

def test_poisson_schedule_is_seeded_and_in_range():
    a = poisson_schedule(1000, 2.0, random.Random(5))
    b = poisson_schedule(1000, 2.0, random.Random(5))
    assert a == b
    assert all(0 < t < 2.0 for t in a)
    assert a == sorted(a)
    assert 1800 < len(a) < 2200


def test_latency_counts_from_due_time():
    due = [0.0, 0.1, 0.2]
    sent = [0.0, 0.15, 0.2]      # the generator stalled on request 2
    done = [0.01, 0.16, 0.21]
    latency, lateness = open_loop_latencies(due, sent, done)
    assert latency == pytest.approx([0.01, 0.06, 0.01])
    assert lateness == pytest.approx([0.0, 0.05, 0.0])


def test_lateness_never_negative():
    _, lateness = open_loop_latencies([1.0], [0.9], [1.2])
    assert lateness == [0.0]


def test_open_loop_lengths_must_match():
    with pytest.raises(ValueError):
        open_loop_latencies([0.0], [0.0, 1.0], [0.0])


def test_backlog_growth():
    steady = [0.001 + 0.0001 * (i % 3) for i in range(400)]
    growing = [0.001 + 0.0005 * i for i in range(400)]
    assert not backlog_grows(steady)
    assert backlog_grows(growing)


# -- counters ------------------------------------------------------------------

def test_counter_delta():
    before = {"a": 1, "b": 5}
    after = {"a": 4, "b": 5, "c": 2}
    assert counter_delta(before, after) == {"a": 3, "b": 0, "c": 2}


def test_counter_delta_rejects_backwards_counters():
    with pytest.raises(ValueError):
        counter_delta({"a": 2}, {"a": 1})


def test_worker_metrics():
    metrics = worker_metrics([[1.0, 3.0], [2.0, 2.0], []])
    assert metrics["runtime.engine.worker_busy_s"] == 8.0
    assert metrics["runtime.engine.imbalance"] == pytest.approx(1.25)
    assert metrics["runtime.engine.parent_wait_s"] == 5.0
    assert worker_metrics([])["runtime.engine.imbalance"] == 0.0


# -- metric names -------------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "serve.rtt_ms.warm.p50",
                                  "warm_p99_ms.lo", "a-b", "9x"])
def test_valid_metric_names(name):
    assert validate_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "has space", "p99%", ".lead",
                                  "_lead", "x" * 65, "a/b"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        validate_metric_name(name)


def test_benchmark_json_names_are_valid_and_unique():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
    for name in names:
        validate_metric_name(name)
    assert len(names) == len(set(names))
