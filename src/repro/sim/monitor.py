"""Statistics collection for simulation runs.

Two collectors cover everything the experiment harness reports:

* :class:`Counter` — monotonically increasing named tallies (bytes shuffled,
  cache hits/misses, spills, packets).
* :class:`UtilizationTracker` — integrates a piecewise-constant "busy"
  level over time to report utilisation of a device (disk, NIC, CPU).
"""

from __future__ import annotations

from collections import defaultdict

from repro.sim.core import Simulator

__all__ = ["Counter", "UtilizationTracker"]


class Counter:
    """A bag of named monotone tallies."""

    def __init__(self) -> None:
        self._values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self._values[name] += amount

    def peak(self, name: str, value: float) -> None:
        """Record a high-water mark: keeps the maximum ever reported.

        Still monotone (the tally only ever grows), so it composes with
        :meth:`merge` the same way ``add`` does for per-actor maxima.
        """
        if value > self._values[name]:
            self._values[name] = value

    def get(self, name: str, default: float = 0.0) -> float:
        return self._values.get(name, default)

    def as_dict(self) -> dict[str, float]:
        return dict(self._values)

    def merge(self, other: "Counter") -> None:
        for name, value in other._values.items():
            self._values[name] += value

    def metrics_snapshot(self) -> dict[str, float]:
        """Flat view for :class:`repro.obs.registry.MetricsRegistry`."""
        return self.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({dict(self._values)!r})"


class UtilizationTracker:
    """Tracks busy/idle intervals of a device with multiplicity.

    ``acquire``/``release`` bump a busy counter; utilisation is the fraction
    of elapsed time with the counter > 0, and ``busy_time`` integrates the
    counter (so a 2-wide device busy on both lanes accrues 2x).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._level = 0
        self._last_change = sim.now
        self._start = sim.now
        self._busy_integral = 0.0
        self._nonidle_time = 0.0

    def _advance(self) -> None:
        dt = self.sim.now - self._last_change
        if dt > 0:
            self._busy_integral += self._level * dt
            if self._level > 0:
                self._nonidle_time += dt
        self._last_change = self.sim.now

    def acquire(self) -> None:
        self._advance()
        self._level += 1

    def release(self) -> None:
        self._advance()
        if self._level <= 0:
            raise ValueError(f"release() without acquire() on {self.name!r}")
        self._level -= 1

    @property
    def busy_time(self) -> float:
        """Integral of the busy level over time."""
        self._advance()
        return self._busy_integral

    def utilization(self) -> float:
        """Fraction of elapsed wall-clock during which the device was busy."""
        self._advance()
        elapsed = self.sim.now - self._start
        if elapsed <= 0:
            return 0.0
        return self._nonidle_time / elapsed

    def metrics_snapshot(self) -> dict[str, float]:
        """Flat view for :class:`repro.obs.registry.MetricsRegistry`."""
        return {"utilization": self.utilization(), "busy_time": self.busy_time}
