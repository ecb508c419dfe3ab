"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

from measure import Tally, tail
from run import LAYER_UNITS, layer_metrics
from serve import BLOCK, REPEATS_PER_BLOCK, client_plan, content
from tracing import Span, SpanRecorder, SuffixCuts, covered_length, self_times
from workloads import HardenWorkload, fig7_suite, lenet_kinds_suite


# --------------------------------------------------------------- tail rule


def test_tail_is_the_rank_with_exactly_ten_samples_beyond():
    values = list(range(25, 0, -1))  # unsorted on purpose
    value, percentile, count = tail(values)
    assert value == 15
    assert count == 25
    assert percentile == pytest.approx(60.0)
    assert sum(v > value for v in values) == 10


def test_tail_needs_eleven_samples():
    assert tail([1.0] * 10) is None
    value, percentile, count = tail([float(v) for v in range(11)])
    assert (value, count) == (0.0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_reports_the_sample_count_with_ties():
    value, percentile, count = tail([5.0] * 30)
    assert (value, count) == (5.0, 30)
    assert percentile == pytest.approx(100.0 * 20 / 30)


# ------------------------------------------------------------- self time


def _span(name, start, end, span_id, parent=None):
    return Span(name, start, end, span_id, parent, "t")


def test_self_time_with_nested_and_back_to_back_children():
    spans = [
        _span("a", 0.0, 10.0, 1),
        _span("b", 1.0, 4.0, 2, parent=1),
        _span("c", 4.0, 6.0, 3, parent=1),  # starts where b ends
        _span("d", 2.0, 3.0, 4, parent=2),  # nested inside b
    ]
    own = self_times(spans)
    assert own == pytest.approx({"a": 5.0, "b": 2.0, "c": 2.0, "d": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    assert covered_length([(1.0, 4.0), (3.0, 6.0), (5.0, 12.0)], 0.0, 10.0) == pytest.approx(9.0)
    own = self_times([
        _span("p", 0.0, 10.0, 1),
        _span("x", 1.0, 4.0, 2, parent=1),
        _span("y", 3.0, 6.0, 3, parent=1),
    ])
    assert own["p"] == pytest.approx(5.0)


def test_recorder_links_parents_and_shares_trace_ids():
    recorder = SpanRecorder("run")
    with recorder.span("outer", trace="request-1"):
        with recorder.span("inner"):
            time.sleep(0.001)
        with recorder.span("inner"):
            pass
    outer = recorder.named("outer")[0]
    inner = recorder.named("inner")
    assert [span.parent for span in inner] == [outer.span_id] * 2
    assert {span.trace for span in recorder.spans} == {"request-1"}
    own = self_times(recorder.spans)
    assert own["outer"] + own["inner"] == pytest.approx(outer.duration)


def test_layer_metrics_report_every_layer_metric():
    recorder = SpanRecorder()
    metrics = layer_metrics(recorder, recorder, SuffixCuts(), {"service.executions": 3})
    assert set(metrics) == set(LAYER_UNITS)
    assert metrics["service.executions"] == (3.0, "count")
    assert metrics["nn.conv2d.self_s"] == (0.0, "s")


# ----------------------------------------------------------- failed_ratio


def test_failed_ratio_counts_failures_against_attempts():
    tally = Tally()
    assert tally.failed_ratio == 0.0
    tally.add(10)
    tally.add(5, failed=2)
    assert (tally.attempted, tally.failed) == (15, 2)
    assert tally.failed_ratio == pytest.approx(2 / 15)
    with pytest.raises(ValueError):
        tally.add(1, failed=2)


# ------------------------------------------------------------- seed input


@pytest.mark.parametrize("make", [
    fig7_suite,
    lenet_kinds_suite,
    lambda seed: HardenWorkload(2, None).inputs(seed, 1),
    lambda seed: content(seed, 0, 0),
    lambda seed: client_plan(seed, 1, 40),
])
def test_seed_fixes_the_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_each_suite_operation_gets_its_own_campaign_seed():
    assert fig7_suite(7, 1) != fig7_suite(7, 2)
    assert lenet_kinds_suite(7, 1) == lenet_kinds_suite(7, 1)
    harden = HardenWorkload(2, None)
    assert harden.inputs(7, 1) == harden.inputs(7, 2)


@pytest.mark.parametrize("seed", range(5))
def test_serve_plan_repeats_a_fixed_share_of_earlier_content(seed):
    plan = client_plan(seed, 0, 40)
    for start in range(BLOCK, 40, BLOCK):
        block = plan[start : start + BLOCK]
        assert sum(kind == "hit" for kind, _ in block) == REPEATS_PER_BLOCK
    assert sum(kind == "hit" for kind, _ in plan[:BLOCK]) >= REPEATS_PER_BLOCK - 1
    assert plan[0][0] == "miss"
    fresh = 0
    for kind, index in plan:
        if kind == "miss":
            assert index == fresh
            fresh += 1
        else:
            assert index < fresh
    assert content(seed, 0, 0) != content(seed, 1, 0)


# --------------------------------------------------------------- reaping

REAP_SCRIPT = """
import os, subprocess, sys
sys.path.insert(0, sys.argv[1])
import run
run.become_subreaper()
orphan = "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(1)'])"
subprocess.run([sys.executable, "-c", orphan], check=True)
assert run._children(os.getpid()), "the orphan was not re-parented here"
run.reap_children()
assert not run._children(os.getpid()), "a child outlived reap_children"
"""


def test_orphans_are_reparented_and_reaped():
    here = Path(__file__).resolve().parent
    subprocess.run([sys.executable, "-c", REAP_SCRIPT, str(here)], check=True, timeout=60)
