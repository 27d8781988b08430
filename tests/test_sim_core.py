"""Unit tests for the DES kernel: events, processes, conditions, clock."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupted,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start=5.0)
    assert sim.now == 5.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.5)
    sim.run()
    assert sim.now == 3.5


def test_timeout_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_timeout_value_passed_to_process():
    sim = Simulator()
    got = []

    def proc(sim):
        value = yield sim.timeout(1, value="hello")
        got.append(value)

    sim.process(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_past_time_rejected():
    sim = Simulator(start=10.0)
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2)
        return 42

    p = sim.process(proc(sim))
    assert sim.run(p) == 42
    assert sim.now == 2


def test_run_until_event_never_fires_raises():
    sim = Simulator()
    pending = sim.event()
    sim.timeout(1)
    with pytest.raises(SimulationError):
        sim.run(pending)


def test_event_succeed_once_only():
    sim = Simulator()
    e = sim.event()
    e.succeed(1)
    with pytest.raises(SimulationError):
        e.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")  # type: ignore[arg-type]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    e = sim.event()
    with pytest.raises(SimulationError):
        _ = e.value
    with pytest.raises(SimulationError):
        _ = e.ok


def test_unhandled_failure_propagates_from_run():
    sim = Simulator()
    sim.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failure_is_swallowed():
    sim = Simulator()
    sim.event().fail(RuntimeError("boom")).defuse()
    sim.run()  # does not raise


def test_process_catches_failed_event():
    sim = Simulator()
    caught = []

    def proc(sim, evt):
        try:
            yield evt
        except RuntimeError as exc:
            caught.append(str(exc))

    evt = sim.event()
    sim.process(proc(sim, evt))
    evt.fail(RuntimeError("expected"))
    sim.run()
    assert caught == ["expected"]


def test_process_exception_propagates():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)
        raise ValueError("inside process")

    sim.process(proc(sim))
    with pytest.raises(ValueError, match="inside process"):
        sim.run()


def test_process_join_value():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2)
        return "done"

    def parent(sim, results):
        value = yield sim.process(child(sim))
        results.append((sim.now, value))

    results = []
    sim.process(parent(sim, results))
    sim.run()
    assert results == [(2, "done")]


def test_process_yield_non_event_raises():
    sim = Simulator()

    def proc(sim):
        yield 42  # type: ignore[misc]

    sim.process(proc(sim))
    with pytest.raises(SimulationError, match="must\\s+yield Event|yielded"):
        sim.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_is_alive_transitions():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_yield_already_processed_event_resumes_immediately():
    sim = Simulator()
    order = []

    def proc(sim, evt):
        yield sim.timeout(5)
        yield evt  # fired at t=0, processed long ago
        order.append(sim.now)

    evt = sim.event()
    evt.succeed("early")
    sim.process(proc(sim, evt))
    sim.run()
    assert order == [5]


def test_two_processes_interleave_deterministically():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(proc(sim, "a", 1))
    sim.process(proc(sim, "b", 1.5))
    sim.run()
    assert log == [(1, "a"), (1.5, "b"), (2, "a"), (3, "b")]


def test_all_of_waits_for_every_event():
    sim = Simulator()
    done = []

    def proc(sim):
        t1 = sim.timeout(1, value="x")
        t2 = sim.timeout(3, value="y")
        result = yield AllOf(sim, [t1, t2])
        done.append((sim.now, sorted(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(3, ["x", "y"])]


def test_any_of_fires_on_first():
    sim = Simulator()
    done = []

    def proc(sim):
        t1 = sim.timeout(1, value="fast")
        t2 = sim.timeout(3, value="slow")
        result = yield AnyOf(sim, [t1, t2])
        done.append((sim.now, list(result.values())))

    sim.process(proc(sim))
    sim.run()
    assert done == [(1, ["fast"])]


def test_empty_all_of_fires_immediately():
    sim = Simulator()
    done = []

    def proc(sim):
        result = yield AllOf(sim, [])
        done.append(result)

    sim.process(proc(sim))
    sim.run()
    assert done == [{}]


def test_condition_operators():
    sim = Simulator()
    t1 = sim.timeout(1)
    t2 = sim.timeout(2)
    assert isinstance(t1 & t2, AllOf)
    t3 = sim.timeout(1)
    t4 = sim.timeout(2)
    assert isinstance(t3 | t4, AnyOf)


def test_all_of_propagates_failure():
    sim = Simulator()
    caught = []

    def proc(sim, evt):
        t = sim.timeout(10)
        try:
            yield AllOf(sim, [t, evt])
        except RuntimeError:
            caught.append(sim.now)

    evt = sim.event()
    sim.process(proc(sim, evt))
    evt.fail(RuntimeError("part failed"))
    sim.run()
    assert caught == [0]


def test_interrupt_raises_in_process():
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100)
        except Interrupted as i:
            log.append((sim.now, i.cause))

    def attacker(sim, victim_proc):
        yield sim.timeout(5)
        victim_proc.interrupt("stop it")

    v = sim.process(victim(sim))
    sim.process(attacker(sim, v))
    sim.run()
    assert log == [(5, "stop it")]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7)
    assert sim.peek() == 7


def test_event_count_increments():
    sim = Simulator()
    sim.timeout(1)
    sim.timeout(2)
    sim.run()
    assert sim.event_count == 2


def test_events_at_same_time_fifo_order():
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(1)
        log.append(name)

    for name in ["a", "b", "c"]:
        sim.process(proc(sim, name))
    sim.run()
    assert log == ["a", "b", "c"]


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    t = sim.timeout(1)
    sim.run()
    hits = []
    t.add_callback(lambda e: hits.append(e.value))
    assert hits == [None]


def test_step_on_empty_calendar_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="empty calendar"):
        sim.step()
    sim.timeout(1)
    sim.step()
    assert sim.now == 1
    with pytest.raises(SimulationError, match="empty calendar"):
        sim.step()


def test_step_skips_a_calendar_of_only_cancelled_entries():
    sim = Simulator()
    sim.timeout(1).cancel()
    sim.step()
    assert (sim.now, sim.event_count, sim.queue_size) == (0.0, 0, 0)


@pytest.mark.parametrize("delay", [float("nan"), -1.0, float("-inf")])
def test_timeout_rejects_nan_and_negative_delays(delay):
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(delay)
    assert sim.queue_size == 0


def test_succeed_rejects_unknown_priority():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.event().succeed(priority=2)
