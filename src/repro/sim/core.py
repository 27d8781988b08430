"""Core event loop, events, and generator-based processes.

Design notes
------------
The kernel follows the classic event-calendar architecture: events are
dispatched in ``(time, priority, sequence)`` order.  An :class:`Event` is a
one-shot latch: it is *triggered* when given a value (or an exception),
*processed* once the simulator takes it off the calendar and runs its
callbacks.  A :class:`Process` wraps a generator; every value the generator
yields must be an :class:`Event`, and the process is resumed with the
event's value (or the event's exception is thrown into the generator) when
that event is processed.

The calendar is split three ways.  Most entries are *due now* (a
``succeed``/``fail`` or a zero-delay timeout), and those go to one of two
FIFOs, URGENT or NORMAL; only entries in the future go to a binary heap of
``(time, sequence, event)``.  Every heap entry was pushed before the clock
reached its time, so at any timestamp the old single-heap order is
reproduced by draining the URGENT FIFO, then the heap entries at ``now``,
then the NORMAL FIFO.

A :class:`Process` is itself an :class:`Event` that fires when the generator
terminates, so processes can wait on each other (fork/join) without any
additional machinery.

Failure semantics mirror SimPy: a failed event propagates its exception into
every waiting process; a failed event that *nobody* waits on re-raises from
:meth:`Simulator.run` so that programming errors cannot vanish silently.
Call :meth:`Event.defuse` to opt out for fire-and-forget failures.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable, Generator, Iterable
from typing import Any

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupted",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]

#: Calendar priority for "urgent" events (resource bookkeeping) — processed
#: before normal events scheduled at the same timestamp.
URGENT = 0
#: Default calendar priority.
NORMAL = 1

_PENDING = object()  # sentinel: event not yet triggered


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class Interrupted(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries the value supplied by the interrupter.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle::

        e = sim.event()     # pending
        e.succeed(value)    # triggered (scheduled on the calendar)
        ...                 # simulator pops it: processed, callbacks run

    Attributes
    ----------
    callbacks:
        List of ``fn(event)`` invoked exactly once when the event is
        processed.  ``None`` after processing.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False
        self._cancelled = False

    # -- inspection --------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is on the calendar."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None, *, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        if priority == NORMAL:  # the hot path, inlined
            self.sim._normal.append(self)
        else:
            self.sim._schedule(self, priority)
        return self

    def fail(self, exception: BaseException, *, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is thrown into every waiting process; if none exists
        it re-raises from :meth:`Simulator.run` unless :meth:`defuse` was
        called.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the state of ``event`` onto this event (callback helper)."""
        if self._value is not _PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        self.sim._normal.append(self)

    def defuse(self) -> "Event":
        """Mark a potential failure of this event as intentionally ignored."""
        self._defused = True
        return self

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has withdrawn the event."""
        return self._cancelled

    def cancel(self) -> "Event":
        """Withdraw a scheduled event: its callbacks will never run.

        This is the hygiene primitive for maintained wake-ups (see
        :mod:`repro.network.flows`): instead of letting a superseded timer
        transit the calendar as a dead event — paying a pop, an
        ``event_count`` tick, and a callback dispatch — the owner cancels
        it.  The calendar entry is skipped silently when it surfaces, and
        the queue is compacted opportunistically when cancelled entries
        pile up, so dead wake-ups no longer accumulate in the
        calendar.

        Cancelling an already-processed event is an error; cancelling
        twice is a no-op.  Processes must not wait on a cancelled event
        (it will never fire).
        """
        if self.callbacks is None:
            raise SimulationError(f"cannot cancel {self!r}: already processed")
        if not self._cancelled:
            self._cancelled = True
            self.sim._note_cancel()
        return self

    # -- composition -------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` when processed; immediately if already processed."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "pending"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after construction."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which would corrupt the heap
            raise ValueError(f"invalid delay {delay}")
        # Event.__init__ inlined: timeouts are the most common event.  A
        # delay the clock cannot represent (``now + delay == now``) is due
        # now, where a single (time, priority, seq) heap would put it.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        now = sim._now
        at = now + delay
        if at == now:
            sim._normal.append(self)
        else:
            heapq.heappush(sim._heap, (at, next(sim._seq), self))


class Process(Event):
    """Wraps a generator; fires (as an Event) when the generator returns.

    The generator must yield :class:`Event` instances.  The value sent back
    into the generator is the event's value; failed events are thrown in as
    exceptions so processes can ``try/except`` around ``yield``.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"process() needs a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Event | None = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume at the current time via an already-successful
        # initialisation event.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._urgent.append(init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        The event the process is waiting on remains pending; the process
        may re-wait on it after handling the interrupt.
        """
        if not self.is_alive:
            raise SimulationError(f"{self!r} already terminated")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_evt = Event(self.sim)
        interrupt_evt._ok = False
        interrupt_evt._value = Interrupted(cause)
        interrupt_evt._defused = True
        interrupt_evt.callbacks.append(self._resume)
        self.sim._urgent.append(interrupt_evt)

    def _resume(self, event: Event) -> None:
        waiting = self._waiting_on
        if waiting is not None:
            if waiting is not event:
                # Detach from the event we were officially waiting on
                # (interrupt path).
                try:
                    waiting.callbacks.remove(self._resume)  # type: ignore[union-attr]
                except (ValueError, AttributeError):
                    pass
            self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                event._defused = True
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances"
            )
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: resume immediately at the current time.
            relay = Event(sim)
            relay._ok = target._ok
            relay._value = target._value
            if not target._ok:
                relay._defused = True
            relay.callbacks.append(self._resume)
            sim._urgent.append(relay)
        else:
            callbacks.append(self._resume)
            self._waiting_on = target

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._count = 0
        for e in self.events:
            if e.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not self.events:
            self.succeed({})
            return
        for e in self.events:
            e.add_callback(self._check)

    def _matched(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._matched())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every component event has fired; value maps event→value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count == len(self.events)


class AnyOf(_Condition):
    """Fires when the first component event fires; value maps event→value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class Simulator:
    """The event calendar and virtual clock.

    Parameters
    ----------
    start:
        Initial value of the clock (seconds by convention throughout this
        repository).
    """

    #: Compact the calendar once this many cancelled entries are pending
    #: *and* they outnumber live entries (amortised O(1) per cancel).
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        #: Due-now entries, each in scheduling (= sequence) order.
        self._urgent: deque[Event] = deque()
        self._normal: deque[Event] = deque()
        #: Future entries only: ``(time, seq, event)``, all NORMAL.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Process | None = None
        self._event_count = 0
        self._cancel_pending = 0
        self._deferred: list[Callable[[], None]] = []

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def event_count(self) -> int:
        """Total number of events processed so far (diagnostics).

        Cancelled events are skipped without counting: they were work the
        simulation never performed.
        """
        return self._event_count

    @property
    def queue_size(self) -> int:
        """Calendar entries currently scheduled, including cancelled ones
        not yet purged (diagnostics / heap-hygiene tests)."""
        return len(self._urgent) + len(self._normal) + len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still sitting in the calendar (diagnostics)."""
        return self._cancel_pending

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """A new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Launch ``generator`` as a process; returns its join event."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` once, at the end of the current timestamp.

        End-of-timestamp hooks fire after every already-scheduled event at
        the current simulated time has been processed, just before the
        clock advances (or when the calendar drains).  Unlike a zero-delay
        timeout, a deferred hook occupies no calendar entry, is not an
        event (no ``event_count`` tick, no callback plumbing), and is
        guaranteed to see the *final* state of the timestamp — which is
        exactly what batched bookkeeping like the flow network's
        per-timestamp re-rate needs.

        Hooks run in registration order.  A hook may schedule new events
        (including at the current time) or register further hooks; the
        kernel keeps draining events and hooks until the timestamp is
        quiescent.  A hook that unconditionally re-registers itself will
        therefore spin the simulation at the current time, just as a
        zero-delay timeout loop would.
        """
        self._deferred.append(fn)

    def _run_deferred(self) -> None:
        deferred, self._deferred = self._deferred, []
        for fn in deferred:
            fn()

    # -- scheduling --------------------------------------------------------

    def _schedule(self, event: Event, priority: int) -> None:
        """Put a triggered ``event`` on the calendar, due now.

        Only :class:`Timeout` schedules into the future (always at NORMAL
        priority), and it pushes onto the heap itself.
        """
        if priority == URGENT:
            self._urgent.append(event)
        elif priority == NORMAL:
            self._normal.append(event)
        else:
            raise ValueError(f"priority must be URGENT or NORMAL, got {priority!r}")

    def _note_cancel(self) -> None:
        """Record a cancellation; compact the calendar if dead entries dominate."""
        self._cancel_pending += 1
        if (
            self._cancel_pending > self._COMPACT_MIN_CANCELLED
            and self._cancel_pending * 2 > self.queue_size
        ):
            # Compact in place: ``run`` holds the containers in locals.
            for fifo in (self._urgent, self._normal):
                live = [e for e in fifo if not e._cancelled]
                fifo.clear()
                fifo.extend(live)
            self._heap[:] = [e for e in self._heap if not e[2]._cancelled]
            heapq.heapify(self._heap)
            self._cancel_pending = 0

    def _pop(self) -> Event | None:
        """Take the next live event off the calendar, advancing the clock.

        Cancelled entries met on the way are dropped.  Returns ``None`` once
        the calendar is empty.  :meth:`run` inlines this loop.
        """
        urgent, heap, normal = self._urgent, self._heap, self._normal
        while True:
            if urgent:
                event = urgent.popleft()
            elif heap and heap[0][0] == self._now:
                event = heapq.heappop(heap)[2]
            elif normal:
                event = normal.popleft()
            elif heap:
                time, _seq, event = heapq.heappop(heap)
                if not event._cancelled:
                    self._now = time
            else:
                return None
            if event._cancelled:
                self._cancel_pending -= 1
                continue
            return event

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none.

        Cancelled entries surfacing at the head of the calendar are purged
        as a side effect.
        """
        now = self._now
        urgent, heap, normal = self._urgent, self._heap, self._normal
        while urgent and urgent[0]._cancelled:
            urgent.popleft()
            self._cancel_pending -= 1
        if urgent:
            return now
        while heap and heap[0][0] == now and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._cancel_pending -= 1
        if heap and heap[0][0] == now:
            return now
        while normal and normal[0]._cancelled:
            normal.popleft()
            self._cancel_pending -= 1
        if normal:
            return now
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)
            self._cancel_pending -= 1
        return heap[0][0] if heap else float("inf")

    def step(self) -> None:
        """Process exactly one (non-cancelled) event.

        If end-of-timestamp hooks are pending and the next event lies in
        the future (or the calendar is empty), the hooks run instead.
        Raises :class:`SimulationError` when there is nothing to do.
        """
        if self._deferred and self.peek() > self._now:
            self._run_deferred()
            return
        if not self.queue_size:
            raise SimulationError("step() on an empty calendar")
        event = self._pop()
        if event is None:
            return  # calendar held only cancelled entries
        self._event_count += 1
        callbacks, event.callbacks = event.callbacks, None
        assert callbacks is not None
        for fn in callbacks:
            fn(event)
        if not event._ok and not event._defused:
            exc = event._value
            raise exc

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the calendar drains;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed, returning
          its value (raising its exception if it failed).
        """
        stop_at = float("inf")
        stop_event: Event | None = None
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_at = float(until)
            if stop_at < self._now:
                raise ValueError(f"until={stop_at} is in the past (now={self._now})")

        # Hot loop: _pop() and step() inlined.  The containers may be held
        # in locals because _note_cancel() compacts them in place; the
        # clock is cached in ``now`` because only this loop moves it.
        urgent, heap, normal = self._urgent, self._heap, self._normal
        heappop = heapq.heappop
        now = self._now
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                break
            if urgent:
                event = urgent.popleft()
            elif heap and heap[0][0] == now:
                event = heappop(heap)[2]
            elif normal:
                event = normal.popleft()
            else:
                # The current timestamp is quiescent.  Purge cancelled
                # entries at the head first, as peek() would.
                while heap and heap[0][2]._cancelled:
                    heappop(heap)
                    self._cancel_pending -= 1
                if self._deferred:
                    # Run end-of-timestamp hooks before the clock moves
                    # (they may schedule events).
                    self._run_deferred()
                    continue
                if not heap or heap[0][0] > stop_at:
                    if stop_at != float("inf"):
                        self._now = stop_at
                    break
                time, _seq, event = heappop(heap)
                self._now = now = time
            if event._cancelled:
                self._cancel_pending -= 1
                continue
            self._event_count += 1
            callbacks, event.callbacks = event.callbacks, None
            for fn in callbacks:  # type: ignore[union-attr]
                fn(event)
            if not event._ok and not event._defused:
                raise event._value

        if stop_event is not None:
            if not stop_event.processed:
                raise SimulationError(
                    "simulation ended before the awaited event fired "
                    f"(now={self._now})"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        return None
