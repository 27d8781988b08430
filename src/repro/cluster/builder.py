"""Cluster assembly: specs -> live simulation objects."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import Node, NodeSpec
from repro.faults import FaultInjector, FaultPlan
from repro.network.fabric import Fabric
from repro.network.transports import TransportSpec, transport_by_name
from repro.sim.core import Simulator
from repro.sim.rng import RandomStreams
from repro.storage.localfs import DEFAULT_CHUNK

__all__ = ["Cluster", "ClusterSpec", "build_cluster"]


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to instantiate a cluster."""

    nodes: tuple[NodeSpec, ...]
    transport: TransportSpec
    #: I/O chunk granularity for disk requests (simulation fidelity knob).
    chunk_bytes: int = DEFAULT_CHUNK
    seed: int = 0

    def __post_init__(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate node names: {names}")


class Cluster:
    """A live cluster: simulator + fabric + nodes."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, spec.transport)
        self.nodes: list[Node] = [
            Node(self.sim, ns, self.fabric, chunk_bytes=spec.chunk_bytes)
            for ns in spec.nodes
        ]
        self.by_name: dict[str, Node] = {n.name: n for n in self.nodes}
        self.rng = RandomStreams(spec.seed)
        #: Fault injector (repro.faults.FaultInjector) of the job running
        #: on this cluster; an inert one until a job installs its own.
        #: HDFS consults it for node liveness.
        self.faults = FaultInjector(
            self.sim, self.rng, FaultPlan(), [n.name for n in self.nodes]
        )
        #: Integrity manager (repro.integrity.IntegrityManager) when a job
        #: with checksums/corruption runs here; None otherwise.  HDFS
        #: consults it for verify-on-read and replica preference.
        self.integrity = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> Node:
        return self.by_name[name]

    def total_disk_bytes_read(self) -> float:
        return sum(n.fs.bytes_read() for n in self.nodes)

    def total_disk_bytes_written(self) -> float:
        return sum(n.fs.bytes_written() for n in self.nodes)


def build_cluster(
    node_specs: list[NodeSpec],
    transport: TransportSpec | str,
    chunk_bytes: int = DEFAULT_CHUNK,
    seed: int = 0,
) -> Cluster:
    """Convenience constructor accepting a transport preset or its name."""
    if isinstance(transport, str):
        transport = transport_by_name(transport)
    return Cluster(
        ClusterSpec(
            nodes=tuple(node_specs),
            transport=transport,
            chunk_bytes=chunk_bytes,
            seed=seed,
        )
    )
