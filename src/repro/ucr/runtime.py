"""UCR endpoints over the verbs transport.

An endpoint pair is pinned to a (local node, remote node) connection.  The
first use pays queue-pair bring-up plus the endpoint information exchange
(§III-B.1: "Initially, RDMACopier sends end point information to
RDMAListener in TaskTracker to establish the connection").  Subsequent
messages pay only verbs-level costs, plus a small JNI crossing charge per
call — the paper's Java code reaches UCR through the JNI Adaptive
Interface, which costs a fixed few microseconds per boundary crossing.

Fault model (active only when the runtime is built with a
:class:`repro.faults.FaultInjector` whose plan can take a port down, i.e.
carries crashes or link flaps):

* a **link flap** or **node crash** tears down every endpoint touching
  that node (queue pairs die with the port); later traffic must
  re-connect, paying setup again (``reconnects`` counts the re-paid
  establishments);
* a ``send``/``connect`` attempted while either side's port is down
  raises :class:`repro.faults.FaultError` and counts one verbs-level
  failure against the pair;
* after ``downgrade_after`` consecutive verbs failures a pair is
  permanently **downgraded** to the fallback socket transport (IPoIB):
  RDMA queue pairs keep dying on a flapping port, while the socket stack
  rides the IP layer's recovery — graceful degradation at the cost of
  per-byte CPU and lower stream bandwidth.  ``downgrades`` records it.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.cluster.node import Node
from repro.network.transports import IB_VERBS, Transport, TransportSpec
from repro.sim.core import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector

__all__ = ["UCREndpoint", "UCRRuntime"]

#: Per-call JNI boundary crossing cost, seconds (Java -> native -> Java).
JNI_CROSSING = 1.0e-6


class UCREndpoint:
    """One established connection between two nodes."""

    __slots__ = (
        "runtime",
        "local",
        "remote",
        "messages_sent",
        "bytes_sent",
        "inflight",
        "max_inflight",
    )

    def __init__(self, runtime: "UCRRuntime", local: Node, remote: Node):
        self.runtime = runtime
        self.local = local
        self.remote = remote
        self.messages_sent = 0
        self.bytes_sent = 0.0
        #: Send-queue depth gauges (maintained only under UCR tracing).
        self.inflight = 0
        self.max_inflight = 0

    def send(
        self, nbytes: float, messages: int = 1
    ) -> Generator[Event, Any, float]:
        """Transfer ``nbytes`` to the remote side (``yield from``)."""
        runtime = self.runtime
        sim = runtime.sim
        start = sim.now
        if runtime.faults is not None:
            runtime._check_path(self.local, self.remote)
        tracing = runtime.tracer is not None
        if tracing:
            self.inflight += 1
            if self.inflight > self.max_inflight:
                self.max_inflight = self.inflight
            if self.inflight > runtime.max_endpoint_depth:
                runtime.max_endpoint_depth = self.inflight
        try:
            if JNI_CROSSING > 0:
                yield sim.timeout(JNI_CROSSING)
            transport = runtime.transport_for(self.local, self.remote)
            elapsed = yield from transport.send(
                self.local, self.remote, nbytes, messages
            )
        finally:
            if tracing:
                self.inflight -= 1
        self.messages_sent += messages
        self.bytes_sent += nbytes
        if tracing:
            runtime.net_sends += 1
            runtime.net_send_bytes += nbytes
            runtime.net_send_seconds += sim.now - start
            runtime.tracer.record(
                f"ucr:{self.local.name}->{self.remote.name}",
                "net-send",
                start,
                sim.now,
                nbytes,
            )
        return sim.now - start

    def reverse(self) -> "UCREndpoint":
        """The endpoint for traffic in the other direction."""
        return self.runtime.endpoint(self.remote, self.local)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UCREndpoint {self.local.name}->{self.remote.name}>"


class UCRRuntime:
    """Endpoint registry + connection establishment for one cluster."""

    def __init__(
        self,
        sim: Simulator,
        flows: Any,
        spec: TransportSpec = IB_VERBS,
        fallback: TransportSpec | None = None,
        faults: "FaultInjector | None" = None,
        downgrade_after: int = 3,
    ):
        self.sim = sim
        self.spec = spec
        self.transport = Transport(sim, flows, spec)
        self._endpoints: dict[tuple[str, str], UCREndpoint] = {}
        self.connections_established = 0
        #: Fault machinery (all None/zero and untouched unless the plan can
        #: take a port down; other runs' sends pay one None test).
        self.faults = faults if faults is not None and faults.breaks_links else None
        self.fallback_transport = (
            Transport(sim, flows, fallback) if fallback is not None else None
        )
        self.downgrade_after = max(1, int(downgrade_after))
        self._verbs_failures: dict[frozenset[str], int] = {}
        self._downgraded: set[frozenset[str]] = set()
        self._ever_connected: set[frozenset[str]] = set()
        self.teardowns = 0
        self.reconnects = 0
        self.downgrades = 0
        #: Per-send tracing (None = off, the default: the hot path stays
        #: counter-free).  Enabled via :meth:`enable_tracing`.
        self.tracer: Any = None
        self.net_sends = 0
        self.net_send_bytes = 0.0
        self.net_send_seconds = 0.0
        #: Highest send-queue depth seen on any single endpoint.
        self.max_endpoint_depth = 0
        if self.faults is not None:
            self.faults.on_flap(self.disconnect_node)
            self.faults.on_crash(self.disconnect_node)

    def endpoint(self, local: Node, remote: Node) -> UCREndpoint:
        """The (already-connected) endpoint for this direction."""
        key = (local.name, remote.name)
        ep = self._endpoints.get(key)
        if ep is None:
            raise KeyError(
                f"no connection {key}; call connect() first (endpoint exchange)"
            )
        return ep

    def is_connected(self, local: Node, remote: Node) -> bool:
        return (local.name, remote.name) in self._endpoints

    def connect(
        self, local: Node, remote: Node
    ) -> Generator[Event, Any, UCREndpoint]:
        """Establish a bidirectional endpoint pair (idempotent)."""
        key = (local.name, remote.name)
        ep = self._endpoints.get(key)
        if ep is not None:
            return ep
        if self.faults is not None:
            self._check_path(local, remote)
        transport = self.transport_for(local, remote)
        yield from transport.connect(local, remote)
        ep = self._endpoints.get(key)
        if ep is not None:
            # Lost an establishment race: another caller connected this
            # pair while we paid setup.  The winner's endpoint stands.
            return ep
        ep = UCREndpoint(self, local, remote)
        self._endpoints[key] = ep
        self._endpoints[(remote.name, local.name)] = UCREndpoint(self, remote, local)
        self.connections_established += 1
        pair = frozenset((local.name, remote.name))
        if pair in self._ever_connected:
            # Paying queue-pair bring-up again after a teardown.
            self.reconnects += 1
        else:
            self._ever_connected.add(pair)
        return ep

    # -- fault machinery -----------------------------------------------------

    def transport_for(self, local: Node, remote: Node) -> Transport:
        """The verbs transport, or the fallback for a downgraded pair."""
        if (
            self.fallback_transport is not None
            and frozenset((local.name, remote.name)) in self._downgraded
        ):
            return self.fallback_transport
        return self.transport

    def _check_path(self, local: Node, remote: Node) -> None:
        """Raise FaultError when either port is down; track verbs failures."""
        from repro.faults import FaultError

        faults = self.faults
        down = None
        if faults.link_down(local.name):
            down = local.name
        elif faults.link_down(remote.name):
            down = remote.name
        if down is None:
            pair = frozenset((local.name, remote.name))
            if pair in self._verbs_failures and pair not in self._downgraded:
                self._verbs_failures[pair] = 0  # healthy again: reset streak
            return
        pair = frozenset((local.name, remote.name))
        if pair not in self._downgraded:
            count = self._verbs_failures.get(pair, 0) + 1
            self._verbs_failures[pair] = count
            if (
                count >= self.downgrade_after
                and self.fallback_transport is not None
                # A dead node's pairs never come back; downgrading is
                # only meaningful when the outage is a flap.
                and not faults.node_dead(down)
            ):
                self._downgraded.add(pair)
                self.downgrades += 1
        kind = "crash" if faults.node_dead(down) else "link"
        raise FaultError(kind, f"port down at {down}")

    def disconnect_node(self, name: str) -> None:
        """Tear down every endpoint touching ``name`` (flap/crash hook)."""
        victims = [key for key in self._endpoints if name in key]
        for key in victims:
            del self._endpoints[key]
        # Each endpoint pair occupies two directional entries.
        self.teardowns += len(victims) // 2

    def enable_tracing(self, tracer: Any) -> None:
        """Turn on per-send spans + endpoint queue-depth gauges."""
        self.tracer = tracer

    def net_metrics(self) -> dict[str, float]:
        """``ucr.net.*`` namespace (registered only when tracing is on)."""
        return {
            "sends": float(self.net_sends),
            "send_bytes": self.net_send_bytes,
            "send_seconds": self.net_send_seconds,
            "max_endpoint_depth": float(self.max_endpoint_depth),
        }

    def fault_metrics(self) -> dict[str, float]:
        """``ucr.*`` namespace snapshot (registered only under a fault plan)."""
        return {
            "connections": float(self.connections_established),
            "teardowns": float(self.teardowns),
            "reconnects": float(self.reconnects),
            "downgrades": float(self.downgrades),
        }
