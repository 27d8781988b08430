"""The split calendar dispatches exactly like the single-heap reference.

:mod:`repro.sim.core` keeps due-now entries in URGENT/NORMAL FIFOs and only
future entries in a heap.  ``tests/single_heap_kernel.py`` keeps the old
``(time, priority, seq)`` heap.  Random programs mixing URGENT and NORMAL
triggers, timeouts (zero, positive, and delays the clock absorbs), bulk
cancellation that forces compaction, end-of-timestamp hooks, interrupts and
joins must produce the same dispatch trace on both, whether driven by
``run()``, ``run(until=time)``, ``run(until=event)`` or a ``step()`` loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import core
from repro.sim.core import Interrupted, SimulationError
from tests import single_heap_kernel as reference

#: At start=1e12 the clock's resolution is ~1.2e-4, so 1e-5 is absorbed.
_DELAYS = (0.0, 1e-5, 0.25, 1.0, 2.0)

_op = st.one_of(
    st.tuples(st.just("wait"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("fire"), st.sampled_from((0, 1)), st.sampled_from(_DELAYS)),
    st.tuples(
        st.just("cancel"), st.integers(1, 90), st.sampled_from(_DELAYS), st.booleans()
    ),
    st.tuples(st.just("defer"), st.sampled_from((0, 1))),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    st.tuples(st.just("join"), st.integers(0, 4)),
    st.tuples(st.just("relay")),
)

_program = st.fixed_dictionaries(
    {
        "start": st.sampled_from((0.0, 1e12)),
        "scripts": st.lists(st.lists(_op, max_size=10), min_size=1, max_size=5),
        "drive": st.sampled_from(("run", "until_time", "until_event", "step")),
        "until": st.sampled_from(_DELAYS + (0.5, 3.0)),
    }
)


def _execute(kernel, program):
    """Run ``program`` on ``kernel``; return its observable trace."""
    sim = kernel.Simulator(start=program["start"])
    log = []

    def note(label):
        log.append((label, sim.now, sim.queue_size, sim.cancelled_pending))

    def logger(label):
        return lambda _event: note(label)

    procs = []

    def script(pid, ops):
        last = None
        for i, op in enumerate(ops):
            tag = f"p{pid}.{i}"
            kind = op[0]
            target = None
            if kind == "wait":
                target = sim.timeout(op[1])
            elif kind == "fire":
                _, prio, delay = op
                evt = sim.event()
                evt.callbacks.append(logger(f"{tag}.fired"))
                if delay == 0.0:
                    evt.succeed(tag, priority=prio)
                else:
                    timer = sim.timeout(delay)
                    timer.callbacks.append(
                        lambda _t, e=evt, p=prio, v=tag: e.succeed(v, priority=p)
                    )
            elif kind == "cancel":
                _, n, delay, keep_last = op
                timers = [sim.timeout(delay) for _ in range(n)]
                for j, timer in enumerate(timers):
                    timer.callbacks.append(logger(f"{tag}.timer{j}"))
                for timer in timers[:-1] if keep_last else timers:
                    timer.cancel()
            elif kind == "defer":

                def hook(tag=tag, prio=op[1]):
                    note(f"{tag}.hook")
                    evt = sim.event()
                    evt.callbacks.append(logger(f"{tag}.hooked"))
                    evt.succeed(priority=prio)

                sim.defer(hook)
            elif kind == "interrupt":
                j = op[1]
                if j < len(procs) and j != pid and procs[j].is_alive:
                    procs[j].interrupt(tag)
            elif kind == "join":
                j = op[1]
                if j < len(procs) and j != pid:
                    target = procs[j]
            elif kind == "relay" and last is not None:
                target = last  # already processed: resumes via a relay
            if target is None:
                continue
            try:
                yield target
                note(f"{tag}.resumed")
            except Interrupted as exc:
                note(f"{tag}.interrupted.{exc.cause}")
            last = target
        note(f"p{pid}.done")

    for pid, ops in enumerate(program["scripts"]):
        procs.append(sim.process(script(pid, ops)))

    outcome = "ok"
    try:
        drive = program["drive"]
        if drive == "run":
            sim.run()
        elif drive == "until_time":
            sim.run(until=program["start"] + program["until"])
            note("paused")
            sim.run()
        elif drive == "until_event":
            sim.run(until=procs[0])
            note("joined")
            sim.run()
        else:
            while sim.peek() != float("inf") or sim._deferred:
                sim.step()
    except SimulationError as exc:
        outcome = type(exc).__name__
    return {
        "log": log,
        "outcome": outcome,
        "now": sim.now,
        "events": sim.event_count,
        "queue_size": sim.queue_size,
        "cancelled_pending": sim.cancelled_pending,
    }


@given(program=_program)
@settings(max_examples=300, deadline=None)
def test_split_calendar_matches_single_heap(program):
    expected = _execute(reference, program)
    assert _execute(core, program) == expected


def test_absorbed_delay_dispatches_with_due_now_normal_events():
    """A delay the clock cannot represent is due now, in NORMAL order."""
    for kernel in (core, reference):
        sim = kernel.Simulator(start=1e12)
        order = []
        absorbed = sim.timeout(1e-5)
        absorbed.callbacks.append(lambda _e: order.append(("absorbed", sim.now)))
        urgent = sim.event()
        urgent.callbacks.append(lambda _e: order.append(("urgent", sim.now)))
        urgent.succeed(priority=0)
        later = sim.timeout(1.0)
        later.callbacks.append(lambda _e: order.append(("later", sim.now)))
        sim.run()
        assert order == [("urgent", 1e12), ("absorbed", 1e12), ("later", 1e12 + 1.0)]


@pytest.mark.parametrize("kernel", [core, reference], ids=["split", "single_heap"])
def test_future_entries_precede_normal_work_scheduled_at_their_time(kernel):
    """An entry timed for ``t`` was pushed before ``t``: it runs first."""
    sim = kernel.Simulator()
    order = []

    def at_one(_event):
        order.append("timer")
        evt = sim.event()
        evt.callbacks.append(lambda _e: order.append("normal"))
        evt.succeed()
        urgent = sim.event()
        urgent.callbacks.append(lambda _e: order.append("urgent"))
        urgent.succeed(priority=0)

    sim.timeout(1.0).callbacks.append(at_one)
    sim.timeout(1.0).callbacks.append(lambda _e: order.append("timer2"))
    sim.run()
    assert order == ["timer", "urgent", "timer2", "normal"]
