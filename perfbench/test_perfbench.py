"""Tests for the benchmark's own metric code (no numerical stack needed)."""

import json
from pathlib import Path

import pytest

from benchstats import (
    MIN_BEYOND, Tally, median, paired_ratios, percentile, pooled_z, run_open_loop, tail_percentile,
)
from spans import NullRecorder, Recorder, Span, covered, self_time_by_request, self_times


def test_tail_needs_ten_samples_beyond_it():
    values = [float(v) for v in range(1, 101)]
    p, value, beyond = tail_percentile(values)
    # p99 and p95 have 1 and 5 samples beyond them; p90 is the first with 10.
    assert (p, beyond) == (90.0, 10)
    assert value == pytest.approx(percentile(values, 90))
    assert beyond >= MIN_BEYOND


def test_tail_moves_up_with_more_samples_and_vanishes_with_few():
    assert tail_percentile([float(v) for v in range(1000)])[0] == 99.0
    assert tail_percentile([float(v) for v in range(50)]) is None
    # Ties at the tail value are not "beyond" it.
    assert tail_percentile([1.0] * 500) is None


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(11, 12)], 0, 10) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, None, "r-1", "request", 0.0, 10.0),
        Span(2, 1, "r-1", "layer", 1.0, 3.0),
        Span(3, 1, "r-1", "layer", 2.0, 5.0),
        Span(4, 3, "r-1", "inner", 2.5, 4.5),
        Span(5, None, "r-2", "request", 0.0, 1.0),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)  # 10 minus the union [1, 5]
    assert own[3] == pytest.approx(1.0)  # 3 minus its child's 2
    assert own[4] == pytest.approx(2.0)
    assert own[5] == pytest.approx(1.0)
    assert self_time_by_request(spans, "layer") == [pytest.approx(3.0)]


def test_recorder_nests_spans_and_shares_request_ids():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with rec.request("analytic"):
        with rec.span("core.chain_build", states=7) as build:
            pass
    with rec.request("analytic"):
        with rec.span("core.expm"):
            pass
    first, build_span, second, expm = rec.spans
    assert build_span.parent_id == first.span_id and expm.parent_id == second.span_id
    assert {first.request_id, build_span.request_id} == {"analytic-1"}
    assert expm.request_id == "analytic-2"
    assert build.attrs == {"states": 7} and build.duration == 1.0
    lines = [json.loads(line) for line in rec.to_ndjson().splitlines()]
    assert [line["name"] for line in lines] == [
        "request.analytic", "core.chain_build", "request.analytic", "core.expm"
    ]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_latency_counts_from_the_due_time():
    clock = FakeClock()
    costs = {0: 0.35}  # the first reply stalls the generator for 0.35 s

    def send(index):
        clock.now += costs.get(index, 0.01)
        return ()

    samples = run_open_loop(10.0, 0.5, send, clock, clock.sleep, between=lambda: None)
    assert [s.due for s in samples] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
    # Requests due during the stall are sent late and charged for the wait.
    assert samples[1].sent == pytest.approx(0.35)
    assert samples[1].latency == pytest.approx(0.35 + 0.01 - 0.1)
    assert samples[1].lateness == pytest.approx(0.25)
    # Once caught up, the schedule holds and latency is the reply time.
    assert samples[4].lateness == pytest.approx(0.0, abs=1e-12)
    assert samples[4].latency == pytest.approx(0.01)


def test_open_loop_runs_between_in_the_idle_time_after_each_request():
    clock = FakeClock()
    events = []

    def send(index):
        events.append(("send", index, clock.now))
        clock.now += 0.01
        return ()

    def between():
        events.append(("between", clock.now))
        clock.now += 0.02

    samples = run_open_loop(10.0, 0.3, send, clock, clock.sleep, between=between)
    assert [e[0] for e in events] == ["send", "between"] * 3
    # The work between requests lands in no request's latency.
    assert [s.latency for s in samples] == pytest.approx([0.01] * 3)


def test_open_loop_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        run_open_loop(0.0, 1.0, lambda i: (), FakeClock(), lambda s: None, between=lambda: None)


def test_error_rate_counts_each_failed_operation_once():
    tally = Tally()
    tally.record([])
    tally.record(["raised", "and failed a check"])  # one operation, two problems
    tally.record(["refused"])
    tally.record([])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.error_rate == pytest.approx(0.5)
    assert len(tally.problems) == 3
    assert Tally().error_rate == 0.0


def test_pooled_z_reduces_to_the_one_sample_z_and_pools_residuals():
    assert pooled_z([(100, 2.0, 10.0)]) == pytest.approx(2.0)
    # Two samples with opposite residuals cancel; equal ones add up.
    assert pooled_z([(100, 2.0, 10.0), (100, -2.0, 10.0)]) == pytest.approx(0.0)
    assert pooled_z([(100, 2.0, 10.0), (100, 2.0, 10.0)]) == pytest.approx(2.0 * 2 ** 0.5)


def test_paired_ratio_divides_by_the_probes_either_side_of_its_slot():
    # Probes before slots 0, 1, 2 and after slot 2; the host halves its
    # speed during slot 1, and the operation in it slows alike.
    probes = [1.0, 1.0, 3.0, 3.0]
    assert paired_ratios([10.0, 20.0, 30.0], [0, 1, 2], probes) == pytest.approx([10.0, 10.0, 10.0])
    # Slots without a timed operation (a failed request) are skipped over.
    assert paired_ratios([30.0], [2], probes) == pytest.approx([10.0])
    with pytest.raises(ValueError):
        paired_ratios([1.0, 2.0], [0], probes)


def test_median_of_nothing_is_an_error():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(ValueError):
        median([])


def test_every_declared_per_layer_metric_is_mapped_to_what_it_moves():
    here = Path(__file__).resolve().parent
    declared = json.loads((here.parent / "BENCHMARK.json").read_text())
    mapping = json.loads((here / "layers.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == list(mapping)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    for entry in mapping.values():
        assert set(entry["moves"]) <= end_to_end


def test_null_recorder_takes_a_recorders_place_and_keeps_nothing():
    rec = NullRecorder()
    with rec.request("ensemble", point="p") as request:
        with rec.span("distributed.store.get") as span:
            span.attrs["hit"] = True
    assert request.attrs is span.attrs
    assert not hasattr(rec, "spans")
