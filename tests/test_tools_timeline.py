"""Tests for the timeline recorder and Gantt rendering."""

import pytest

from repro.cluster import westmere_cluster
from repro.faults import FaultPlan
from repro.mapreduce import run_job, terasort_job
from repro.tools import TaskSpan, phase_breakdown, render_gantt

GB = 1024**3


def spans_demo():
    return [
        TaskSpan("map", 0, 0, "n0", 0.0, 10.0),
        TaskSpan("map", 1, 0, "n0", 10.0, 20.0),
        TaskSpan("map", 2, 0, "n1", 0.0, 15.0, ok=False),
        TaskSpan("map", 2, 1, "n1", 15.0, 30.0),
        TaskSpan("reduce", 0, 0, "n0", 5.0, 40.0),
    ]


def test_span_properties():
    s = TaskSpan("map", 3, 1, "n", 2.0, 5.0, ok=False)
    assert s.duration == 3.0
    assert s.label() == "m3.1!"


def test_phase_breakdown():
    phases = phase_breakdown(spans_demo())
    assert phases["map.first_start"] == 0.0
    assert phases["map.last_end"] == 30.0
    assert phases["map.attempts"] == 4
    assert phases["map.failed_attempts"] == 1
    assert phases["reduce.last_end"] == 40.0
    # Reduce started at 5, maps ended at 30 -> 25 s of overlap.
    assert phases["overlap_seconds"] == pytest.approx(25.0)


def test_phase_breakdown_empty():
    assert phase_breakdown([]) == {}


def test_killed_attempts_are_not_failures():
    """Killed-not-failed: a lost speculative race shows up in
    ``killed_attempts``, never in ``failed_attempts``."""
    spans = spans_demo() + [
        TaskSpan("reduce", 1, 0, "n1", 5.0, 35.0, ok=False, killed=True),
        TaskSpan("reduce", 1, 1, "n0", 20.0, 32.0),
    ]
    phases = phase_breakdown(spans)
    assert phases["reduce.killed_attempts"] == 1
    assert phases["reduce.failed_attempts"] == 0
    assert phases["map.killed_attempts"] == 0
    assert phases["map.failed_attempts"] == 1


def test_killed_span_label_and_gantt_mark():
    killed = TaskSpan("reduce", 2, 1, "n1", 1.0, 9.0, ok=False, killed=True)
    assert killed.label() == "r2.1~"
    text = render_gantt(spans_demo() + [killed], width=60)
    assert "k" in text


def test_render_gantt_marks_and_lanes():
    text = render_gantt(spans_demo(), width=60)
    assert "n0:" in text and "n1:" in text
    assert "m" in text and "R" in text and "x" in text
    # n0: serial maps share a lane, the overlapping reduce needs its own;
    # n1: the retried map reuses its lane -> 3 lanes overall.
    lane_rows = [line for line in text.splitlines() if line.startswith("  |")]
    assert len(lane_rows) == 3


def test_render_gantt_empty():
    assert "no task spans" in render_gantt([])


def test_simulated_job_records_spans():
    conf = terasort_job(1 * GB, 2, "rdma")
    result = run_job(westmere_cluster(2), "ipoib", conf)
    maps = [s for s in result.task_spans if s.kind == "map"]
    reduces = [s for s in result.task_spans if s.kind == "reduce"]
    assert len(maps) == conf.n_maps
    assert len(reduces) == conf.n_reduces
    assert all(s.ok for s in result.task_spans)
    assert all(s.end > s.start for s in result.task_spans)
    text = render_gantt(result.task_spans)
    assert "node00:" in text


def test_failed_attempts_recorded_in_spans():
    conf = terasort_job(
        2 * GB, 2, "rdma", fault_plan=FaultPlan(map_failure_rate=0.35)
    )
    result = run_job(westmere_cluster(2), "ipoib", conf)
    failed = [s for s in result.task_spans if not s.ok]
    assert len(failed) == result.counters["map.failed_attempts"]
    assert len(failed) > 0


def test_osu_overlap_beats_vanilla_barrier():
    """The Figure-3 claim, measured from the recorded timelines: OSU-IB's
    reduce tail after the last map is shorter than vanilla's."""

    def tail(engine):
        conf = terasort_job(4 * GB, 2, engine)
        result = run_job(westmere_cluster(2), "ipoib", conf)
        phases = phase_breakdown(result.task_spans)
        return phases["reduce.last_end"] - phases["map.last_end"]

    assert tail("rdma") < tail("http")
