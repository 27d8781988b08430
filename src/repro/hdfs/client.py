"""DFSClient: the read and write data paths.

* **Provisioning** materialises pre-existing input (TeraGen/RandomWriter
  output) as local files on each replica's disks without simulating the
  generation I/O — the paper measures the sort jobs, not data loading.
* **Reads** short-circuit to the local disk when the reader holds a
  replica (the overwhelmingly common case for scheduled map tasks);
  remote reads stream disk→network concurrently.
* **Writes** run the replication pipeline: the local replica writes to
  disk while the stream forwards to downstream DataNodes, all concurrent
  (chunk-level pipelining is approximated by running the stages in
  parallel, which is accurate to within one chunk).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.cluster.builder import Cluster
from repro.cluster.node import Node
from repro.hdfs.block import Block
from repro.hdfs.namenode import NameNode
from repro.sim.core import Event

__all__ = ["DFSClient"]


class DFSClient:
    """Client-side HDFS operations bound to one cluster."""

    def __init__(self, cluster: Cluster, namenode: NameNode):
        self.cluster = cluster
        self.sim = cluster.sim
        self.namenode = namenode
        self.bytes_read_local = 0.0
        self.bytes_read_remote = 0.0
        self.bytes_written = 0.0

    # -- provisioning -----------------------------------------------------

    def provision_file(
        self,
        file_name: str,
        total_bytes: float,
        block_bytes: float,
        replication: int = 3,
    ) -> list[Block]:
        """Create a file and materialise replica files on the DataNodes."""
        blocks = self.namenode.allocate_file(
            file_name, total_bytes, block_bytes, replication
        )
        for block in blocks:
            for location in block.locations:
                node = self.cluster.node(location)
                f = node.fs.create(self._replica_name(block, location))
                f.size = block.nbytes
        return blocks

    @staticmethod
    def _replica_name(block: Block, location: str) -> str:
        return f"hdfs/{block.block_id}@{location}"

    # -- read path --------------------------------------------------------

    def read_block(
        self,
        reader: Node,
        block: Block,
        stream_id: str,
        priority: float = 0.0,
        nbytes: float | None = None,
    ) -> Generator[Event, Any, float]:
        """Read ``nbytes`` of a block (default: all) into ``reader``.

        Local replica: short-circuit read from disk.  Remote: the owner's
        disk read and the network transfer run concurrently (streamed).
        Returns elapsed time.
        """
        start = self.sim.now
        amount = block.nbytes if nbytes is None else min(nbytes, block.nbytes)
        if self.cluster.integrity is not None:
            # Verified read: same mechanics plus checksum-on-read with
            # replica failover on mismatch (and quarantine-aware replica
            # preference).  With nothing corrupting it is event-for-event
            # the unverified path.
            yield from self._read_block_verified(
                reader, block, amount, stream_id, priority
            )
            return self.sim.now - start
        if block.is_local_to(reader.name):
            f = reader.fs.open(self._replica_name(block, reader.name))
            yield from reader.fs.read(f, amount, stream_id, priority)
            self.bytes_read_local += amount
        else:
            owner_name = block.locations[0]
            faults = self.cluster.faults
            if faults.node_dead(owner_name):
                # Replica selection skips dead DataNodes (the NameNode
                # stops listing them once heartbeats lapse).  With every
                # replica dead we fall through to the primary — a real
                # cluster would fail the read, but the standard plans
                # never crash more than one replica of a block.
                for loc in block.locations[1:]:
                    if not faults.node_dead(loc):
                        owner_name = loc
                        break
            owner = self.cluster.node(owner_name)
            f = owner.fs.open(self._replica_name(block, owner.name))
            disk = self.sim.process(
                owner.fs.read(f, amount, stream_id, priority),
                name=f"hdfs-read:{block.block_id}",
            )
            net = self.sim.process(
                self.cluster.fabric.send(owner, reader, amount),
                name=f"hdfs-xfer:{block.block_id}",
            )
            yield self.sim.all_of([disk, net])
            self.bytes_read_remote += amount
        return self.sim.now - start

    def _read_block_verified(
        self,
        reader: Node,
        block: Block,
        amount: float,
        stream_id: str,
        priority: float,
    ) -> Generator[Event, Any, None]:
        """One block read with verify-on-read and replica failover.

        Candidate order: the reader's own replica first (short-circuit),
        then the block's other locations — dead DataNodes skipped,
        quarantined ones deprioritised.  A checksum mismatch moves to the
        next candidate (a lone replica is simply re-read); each failed
        attempt paid for its full read, like a real re-fetch.
        """
        integ = self.cluster.integrity
        faults = self.cluster.faults
        candidates: list[str] = []
        if block.is_local_to(reader.name):
            candidates.append(reader.name)
        for loc in block.locations:
            if loc not in candidates:
                candidates.append(loc)
        live = [c for c in candidates if not faults.node_dead(c)]
        if live:
            candidates = live
        preferred = [c for c in candidates if not integ.quarantined(c)]
        if preferred:
            candidates = preferred
        attempt = 0
        while True:
            owner_name = candidates[attempt % len(candidates)]
            if owner_name == reader.name:
                f = reader.fs.open(self._replica_name(block, reader.name))
                yield from reader.fs.read(f, amount, stream_id, priority)
                self.bytes_read_local += amount
            else:
                owner = self.cluster.node(owner_name)
                f = owner.fs.open(self._replica_name(block, owner.name))
                disk = self.sim.process(
                    owner.fs.read(f, amount, stream_id, priority),
                    name=f"hdfs-read:{block.block_id}",
                )
                net = self.sim.process(
                    self.cluster.fabric.send(owner, reader, amount),
                    name=f"hdfs-xfer:{block.block_id}",
                )
                yield self.sim.all_of([disk, net])
                self.bytes_read_remote += amount
            if not integ.hdfs_read_corrupted(owner_name, block.block_id, amount):
                return
            if len(candidates) > 1:
                integ.note_replica_failover()
            else:
                integ.note_reread()
            attempt += 1

    # -- namespace --------------------------------------------------------

    def delete_file(self, file_name: str) -> None:
        """Unlink ``file_name`` and its replica files (pure bookkeeping).

        Deletes in HDFS are metadata operations — DataNodes reclaim the
        replica blocks asynchronously — so no I/O is simulated.  Used to
        unlink a losing speculative attempt's partial output; a name that
        was never written (the attempt died before its first flush) is a
        no-op.
        """
        if not self.namenode.exists(file_name):
            return
        for block in self.namenode.blocks_of(file_name):
            for location in block.locations:
                node = self.cluster.node(location)
                replica = self._replica_name(block, location)
                if node.fs.exists(replica):
                    node.fs.delete(replica)
        self.namenode.delete(file_name)

    # -- write path -------------------------------------------------------

    def write_file_part(
        self,
        writer: Node,
        file_name: str,
        nbytes: float,
        replication: int = 1,
        stream_id: str | None = None,
        priority: float = 0.0,
    ) -> Generator[Event, Any, Block]:
        """Write ``nbytes`` as one new block of ``file_name`` from ``writer``.

        Reduce tasks call this repeatedly while consuming merged output, so
        one invocation per buffered flush keeps the write path streaming.
        """
        if nbytes <= 0:
            block = self.namenode.add_block(file_name, 0.0, replication, writer.name)
            return block
        block = self.namenode.add_block(file_name, nbytes, replication, writer.name)
        stream = stream_id or f"hdfs-write/{block.block_id}"
        waits = []
        previous = writer
        for location in block.locations:
            node = self.cluster.node(location)
            replica = self._replica_name(block, location)
            if not node.fs.exists(replica):
                node.fs.create(replica)
            f = node.fs.open(replica)
            waits.append(
                self.sim.process(
                    node.fs.write(f, nbytes, stream, priority),
                    name=f"hdfs-wr:{block.block_id}@{location}",
                )
            )
            if node is not previous:
                waits.append(
                    self.sim.process(
                        self.cluster.fabric.send(previous, node, nbytes),
                        name=f"hdfs-fw:{block.block_id}@{location}",
                    )
                )
            previous = node
        yield self.sim.all_of(waits)
        self.bytes_written += nbytes * len(block.locations)
        return block
