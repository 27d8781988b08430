"""Tests for counters, utilization tracking, and RNG streams."""

import numpy as np
import pytest

from repro.sim import Counter, RandomStreams, Simulator, UtilizationTracker


# ---------------------------------------------------------------------------
# Counter
# ---------------------------------------------------------------------------


def test_counter_add_get():
    c = Counter()
    c.add("x")
    c.add("x", 2.5)
    assert c.get("x") == 3.5
    assert c.get("missing") == 0.0


def test_counter_merge():
    a, b = Counter(), Counter()
    a.add("x", 1)
    b.add("x", 2)
    b.add("y", 3)
    a.merge(b)
    assert a.as_dict() == {"x": 3, "y": 3}


# ---------------------------------------------------------------------------
# UtilizationTracker
# ---------------------------------------------------------------------------


def test_utilization_half_busy():
    sim = Simulator()
    u = UtilizationTracker(sim, "disk")

    def proc(sim, u):
        u.acquire()
        yield sim.timeout(1)
        u.release()
        yield sim.timeout(1)

    sim.process(proc(sim, u))
    sim.run()
    assert u.utilization() == pytest.approx(0.5)
    assert u.busy_time == pytest.approx(1.0)


def test_utilization_overlapping_multiplicity():
    sim = Simulator()
    u = UtilizationTracker(sim, "disk")

    def a(sim, u):
        u.acquire()
        yield sim.timeout(2)
        u.release()

    def b(sim, u):
        yield sim.timeout(1)
        u.acquire()
        yield sim.timeout(1)
        u.release()

    sim.process(a(sim, u))
    sim.process(b(sim, u))
    sim.run()
    assert u.utilization() == pytest.approx(1.0)
    assert u.busy_time == pytest.approx(3.0)


def test_release_without_acquire_raises():
    sim = Simulator()
    u = UtilizationTracker(sim)
    with pytest.raises(ValueError):
        u.release()


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------


def test_streams_reproducible():
    a = RandomStreams(7).stream("x").random(5)
    b = RandomStreams(7).stream("x").random(5)
    assert np.allclose(a, b)


def test_streams_independent_by_name():
    rs = RandomStreams(7)
    a = rs.stream("x").random(5)
    b = rs.stream("y").random(5)
    assert not np.allclose(a, b)


def test_stream_cached_not_restarted():
    rs = RandomStreams(7)
    first = rs.stream("x").random(3)
    second = rs.stream("x").random(3)  # continues the same stream
    assert not np.allclose(first, second)


def test_adding_consumer_does_not_perturb_others():
    rs1 = RandomStreams(7)
    a1 = rs1.stream("a").random(4)
    rs2 = RandomStreams(7)
    rs2.stream("zzz").random(100)  # extra consumer first
    a2 = rs2.stream("a").random(4)
    assert np.allclose(a1, a2)


def test_fork_differs_from_parent():
    rs = RandomStreams(7)
    fork = rs.fork(1)
    assert not np.allclose(rs.stream("x").random(4), fork.stream("x").random(4))


def test_call_alias():
    rs = RandomStreams(0)
    assert rs("n") is rs.stream("n")
