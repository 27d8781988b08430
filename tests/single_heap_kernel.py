"""Reference event kernel: one ``(time, priority, seq, event)`` heap.

This is the calendar :mod:`repro.sim.core` used before it split due-now
entries into FIFOs.  It is kept here, trimmed to events, timeouts,
processes, interrupts, cancellation and end-of-timestamp hooks, only as the
oracle for ``tests/test_sim_calendar_equivalence.py``: both kernels must
dispatch every event in the same order at the same clock value.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from repro.sim.core import Interrupted, SimulationError

URGENT = 0
NORMAL = 1

_PENDING = object()


class Event:
    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list | None = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = NORMAL) -> "Event":
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, 0.0, priority)
        return self

    def cancel(self) -> "Event":
        if self.callbacks is None:
            raise SimulationError(f"cannot cancel {self!r}: already processed")
        if not self._cancelled:
            self._cancelled = True
            self.sim._note_cancel()
        return self


class Timeout(Event):
    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay, NORMAL)


class Process(Event):
    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator, name: str | None = None):
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or "process"
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init, 0.0, URGENT)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        if not self.is_alive:
            raise SimulationError(f"{self!r} already terminated")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_evt = Event(self.sim)
        interrupt_evt._ok = False
        interrupt_evt._value = Interrupted(cause)
        interrupt_evt._defused = True
        interrupt_evt.callbacks.append(self._resume)
        self.sim._schedule(interrupt_evt, 0.0, URGENT)

    def _resume(self, event: Event) -> None:
        if self._waiting_on is not None and self._waiting_on is not event:
            try:
                self._waiting_on.callbacks.remove(self._resume)  # type: ignore[union-attr]
            except (ValueError, AttributeError):
                pass
        self._waiting_on = None
        self.sim._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_process = None
            self.fail(exc)
            return
        self.sim._active_process = None
        if target.callbacks is None:
            relay = Event(self.sim)
            relay._ok = target._ok
            relay._value = target._value
            if not target._ok:
                relay._defused = True
            relay.callbacks.append(self._resume)
            self.sim._schedule(relay, 0.0, URGENT)
        else:
            target.callbacks.append(self._resume)
            self._waiting_on = target


class Simulator:
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Process | None = None
        self._event_count = 0
        self._cancel_pending = 0
        self._deferred: list = []

    @property
    def now(self) -> float:
        return self._now

    @property
    def event_count(self) -> int:
        return self._event_count

    @property
    def queue_size(self) -> int:
        return len(self._queue)

    @property
    def cancelled_pending(self) -> int:
        return self._cancel_pending

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator, name: str | None = None) -> Process:
        return Process(self, generator, name)

    def defer(self, fn) -> None:
        self._deferred.append(fn)

    def _run_deferred(self) -> None:
        deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._seq), event)
        )

    def _note_cancel(self) -> None:
        self._cancel_pending += 1
        if (
            self._cancel_pending > self._COMPACT_MIN_CANCELLED
            and self._cancel_pending * 2 > len(self._queue)
        ):
            self._queue = [e for e in self._queue if not e[3]._cancelled]
            heapq.heapify(self._queue)
            self._cancel_pending = 0

    def peek(self) -> float:
        queue = self._queue
        while queue and queue[0][3]._cancelled:
            heapq.heappop(queue)
            self._cancel_pending -= 1
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        queue = self._queue
        if self._deferred and self.peek() > self._now:
            self._run_deferred()
            return
        while True:
            time, _prio, _seq, event = heapq.heappop(queue)
            if event._cancelled:
                self._cancel_pending -= 1
                if not queue:
                    return
                continue
            break
        self._now = time
        self._event_count += 1
        callbacks, event.callbacks = event.callbacks, None
        for fn in callbacks:
            fn(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        stop_at = float("inf")
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")
        heappop = heapq.heappop
        inf = float("inf")
        while self._queue or self._deferred:
            if stop_event is not None and stop_event.callbacks is None:
                break
            queue = self._queue
            while queue and queue[0][3]._cancelled:
                heappop(queue)
                self._cancel_pending -= 1
            nxt = queue[0][0] if queue else inf
            if self._deferred and nxt > self._now:
                self._run_deferred()
                continue
            if nxt > stop_at:
                self._now = stop_at
                break
            if not queue:
                break
            time, _prio, _seq, event = heappop(queue)
            self._now = time
            self._event_count += 1
            callbacks, event.callbacks = event.callbacks, None
            for fn in callbacks:
                fn(event)
            if not event._ok and not event._defused:
                raise event._value
        else:
            if stop_at != float("inf"):
                self._now = stop_at
        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError("simulation ended before the awaited event fired")
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None
