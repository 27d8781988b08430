"""A simulated cluster node: cores, RAM, local disks, and a NIC."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.network.fabric import Fabric, NetworkInterface
from repro.sim.core import Simulator
from repro.sim.resources import Resource
from repro.storage.disk import DiskSpec
from repro.storage.localfs import DEFAULT_CHUNK, LocalFileSystem

__all__ = ["Node", "NodeSpec"]

GB = 1024**3


@dataclass(frozen=True)
class NodeSpec:
    """Hardware description of one node."""

    name: str
    cores: int
    ram_bytes: float
    disks: tuple[DiskSpec, ...]
    #: RAM reserved for OS + Hadoop daemons, unavailable to tasks/cache.
    os_reserve_bytes: float = 2.0 * GB
    #: Relative CPU speed (0.5 = a straggler running compute at half pace).
    cpu_speed: float = 1.0

    def with_disks(self, disks: tuple[DiskSpec, ...]) -> "NodeSpec":
        return replace(self, disks=disks)

    def scaled(self, **overrides: Any) -> "NodeSpec":
        return replace(self, **overrides)


class Node:
    """Runtime state of a node inside a simulation."""

    def __init__(
        self,
        sim: Simulator,
        spec: NodeSpec,
        fabric: Fabric,
        chunk_bytes: int = DEFAULT_CHUNK,
    ):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        #: All compute on the node — map/sort/merge/reduce work *and* socket
        #: protocol processing contend for these cores.
        self.cpu = Resource(sim, capacity=spec.cores, name=f"{spec.name}.cpu")
        self.nic: NetworkInterface = fabric.attach(spec.name)
        self.fs = LocalFileSystem(
            sim, list(spec.disks), node_name=spec.name, chunk_bytes=chunk_bytes
        )
        #: Set by ``FaultInjector.bind`` only when a NodeSlowdown window
        #: names this node; everywhere else compute pays one None test.
        self.faults = None

    @property
    def ram_bytes(self) -> float:
        return self.spec.ram_bytes

    @property
    def usable_ram_bytes(self) -> float:
        """RAM available to task heaps and the prefetch cache."""
        return max(0.0, self.spec.ram_bytes - self.spec.os_reserve_bytes)

    def compute(self, seconds: float):
        """Generator: hold one core for ``seconds`` of nominal work.

        Stragglers (``cpu_speed < 1``) take proportionally longer, as do
        active :class:`~repro.faults.NodeSlowdown` windows (integrated
        piecewise, so a compute spanning a window edge pays exactly the
        degraded portion).
        """
        with self.cpu.request() as req:
            yield req
            if seconds > 0:
                delay = seconds / self.spec.cpu_speed
                if self.faults is not None:
                    delay = self.faults.cpu_delay(self.name, delay)
                yield self.sim.timeout(delay)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Node {self.name}: {self.spec.cores}c "
            f"{self.spec.ram_bytes/GB:.0f}GB {len(self.spec.disks)} disk(s)>"
        )
