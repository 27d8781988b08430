"""Vanilla Hadoop shuffle: HTTP servlets, copiers, two-level merge (§III-A).

TaskTracker side — **HTTP Servlet**: a bounded thread pool; each request
reads the map-output segment from local disk and streams it back in the
HTTP response over the cluster's socket transport.

ReduceTask side —

* **Copier** threads (``mapred.reduce.parallel.copies``) fetch segments as
  map-completion events arrive; a segment is held in the shuffle memory
  buffer if it fits (and is small enough:
  ``max_single_shuffle_fraction``), otherwise it goes straight to disk.
* **In-Memory Merger**: when buffered bytes pass
  ``mapred.job.shuffle.merge.percent`` of the buffer, the in-memory
  segments are merged and the result written to a local disk run.
* **Local FS Merger**: when on-disk runs exceed ``2 * io.sort.factor - 1``
  it merges ``io.sort.factor`` of the smallest runs (iteratively
  minimising file count, as the paper describes).
* **Barrier**: reduce starts only after all fetches and every merge have
  completed (Figure 3's "implicit barrier"), then consumes the final
  merged stream (disk runs + leftover memory segments), applying the
  reduce function and writing output to HDFS.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.core.protocol import MapOutputMeta
from repro.faults import FaultError
from repro.mapreduce.maptask import TaskFailure
from repro.mapreduce.shuffle.base import CreditGate, ShuffleConsumer, ShuffleProvider
from repro.sim.core import Event, Process
from repro.sim.resources import Container, Resource, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.context import JobContext
    from repro.mapreduce.tasktracker import TaskTracker

__all__ = ["HttpShuffleConsumer", "HttpShuffleProvider"]


class HttpShuffleProvider(ShuffleProvider):
    """HTTP servlets serving map-output segments from local disk."""

    def __init__(self, ctx: "JobContext", tt: "TaskTracker"):
        super().__init__(ctx, tt)
        self.servlets = Resource(
            ctx.sim, capacity=ctx.conf.http_server_threads, name=f"{tt.name}.http"
        )
        self.bytes_served = 0.0
        #: Admission control: requests beyond ``responder_queue_limit``
        #: waiting servlet slots are deferred (0 = unlimited).
        self._queue_limit = int(ctx.conf.responder_queue_limit)
        self._pending = 0
        self._deferred: deque[Event] = deque()

    def backlog(self) -> float:
        """Servlet pressure: requests waiting a thread plus parked ones."""
        return float(self.servlets.queue_len + len(self._deferred))

    def serve(
        self, requester_node: Any, map_id: int, reduce_id: int
    ) -> Generator[Event, Any, float]:
        """Handle one segment request end-to-end (driven by the copier).

        Doomed requests are refused up front with a
        :class:`repro.faults.FaultError` (dead server, link down, output
        lost, serve fault, disk read error); the copier's retry loop
        handles it.
        """
        ctx = self.ctx
        sim = ctx.sim
        faults = ctx.faults
        integ = ctx.integrity
        name = self.tt.name
        stall = faults.stall_penalty(name)
        if stall > 0:
            yield sim.timeout(stall)
        refusal = faults.refuse_serve(name, requester_node.name)
        if refusal is not None:
            raise refusal
        entry = self.tt.map_outputs.get(map_id)
        if entry is None:
            raise FaultError("lost", f"map {map_id}")
        meta, file = entry
        if integ is not None:
            kind = integ.segment_serve_fault(name, file.name)
            if kind is not None:
                raise FaultError(kind, f"map {map_id} segment")
        if faults.disk_read_fails(name):
            if integ is not None:
                integ.note_disk_error(name)
            raise FaultError("disk", f"map {map_id} spill read")
        seg_bytes, _pairs = meta.segment(reduce_id)
        if seg_bytes <= 0:
            return 0.0
        # Request message crosses the wire first.
        yield from ctx.cluster.fabric.send(requester_node, self.tt.node, 200)
        # Transient fetch failure: the copier backs off and re-requests
        # (0.20.2's fetch retry path).
        yield from ctx.faults.transient_fetch_failures(ctx.counters)
        conf = ctx.conf
        if self._queue_limit > 0:
            # Server-side backpressure: beyond queue_limit requests already
            # waiting for a servlet, new arrivals are parked at accept().
            while self._pending >= self._queue_limit + conf.http_server_threads:
                gate = Event(sim)
                self._deferred.append(gate)
                self.ctx.counters.add("shuffle.backpressure.deferred_requests", 1)
                yield gate
        self._pending += 1
        try:
            with self.servlets.request() as slot:
                yield slot
                # The servlet streams the file: disk read and socket send
                # proceed concurrently (response is written as data is read).
                read = sim.process(
                    self.tt.node.fs.read(
                        file, seg_bytes, stream_id=f"serve-m{map_id}-r{reduce_id}"
                    ),
                    name=f"http-read-m{map_id}-r{reduce_id}",
                )
                send = sim.process(
                    self.ctx.cluster.fabric.send(
                        self.tt.node, requester_node, seg_bytes
                    ),
                    name=f"http-send-m{map_id}-r{reduce_id}",
                )
                yield sim.all_of([read, send])
        finally:
            self._pending -= 1
            if self._deferred:
                self._deferred.popleft().succeed()
        self.bytes_served += seg_bytes
        self.ctx.counters.add("shuffle.bytes", seg_bytes)
        self.ctx.counters.add("shuffle.tt_disk_read_bytes", seg_bytes)
        if integ is not None:
            # Verify-on-read of the servlet's disk stream (the 0.20.2
            # IFile checksum).  The bytes already crossed the wire — a
            # mismatch wastes the transfer, exactly like the real thing.
            status = integ.check_segment_read(name, file, seg_bytes)
            if status != "ok":
                if status == "persistent":
                    raise FaultError("corrupt", f"map {map_id} on-disk output")
                raise FaultError("checksum", f"map {map_id} segment read")
        return seg_bytes


class HttpShuffleConsumer(ShuffleConsumer):
    """The 0.20.2 copier/merger/reduce pipeline with its merge barrier."""

    def __init__(
        self, ctx: "JobContext", tt: "TaskTracker", reduce_id: int, attempt: int = 0
    ):
        super().__init__(ctx, tt, reduce_id, attempt)
        sim = ctx.sim
        self.capacity = ctx.shuffle_buffer_bytes()
        #: Free shuffle-buffer bytes (reservation semantics).
        self.mem = Container(sim, capacity=self.capacity, init=self.capacity)
        self.mem_segments: list[float] = []
        self.mem_bytes = 0.0
        self.disk_runs: list[Any] = []
        self.fetch_queue = Store(sim, name=f"r{reduce_id}.fetchq")
        self._merge_procs: list[Process] = []
        self._memory_merging = False
        self._merge_free = Event(sim)
        self._disk_merging = False
        self._run_seq = 0
        self.jitter = ctx.jitter(f"reduce-{reduce_id}")
        # -- flow control & memory pressure (inert with the knobs unset) ----
        conf = ctx.conf
        #: In-memory merge trigger; ``shuffle_spill_threshold`` overrides
        #: 0.20.2's shuffle.merge.percent when set.
        self._merge_trigger = (
            conf.shuffle_spill_threshold
            if conf.shuffle_spill_threshold > 0
            else conf.shuffle_merge_percent
        ) * self.capacity
        self._credit_gate = (
            CreditGate(ctx, f"reduce-{reduce_id}", conf.recv_credits)
            if conf.recv_credits > 0
            else None
        )
        self._mem_hwm = 0.0
        #: Fault recovery: copiers parked on a lost map output wait here
        #: for its replacement meta (map_id -> Event).
        self._replacement_events: dict[int, Event] = {}

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> Generator[Event, Any, None]:
        conf = self.ctx.conf
        self.ctx.board.add_replacement_listener(self._on_replacement)
        inbox = self.ctx.board.subscribe()
        feeder = self._spawn(self._feeder(inbox), name=f"r{self.reduce_id}-feeder")
        copiers = [
            self._spawn(self._copier(), name=f"r{self.reduce_id}-copier{i}")
            for i in range(conf.parallel_copies)
        ]
        try:
            yield self._gather_on([feeder, *copiers])
            # Flush whatever in-memory data remains if disk runs exist — 0.20.2
            # merges memory to disk when disk runs must be co-merged anyway.
            # Leftover memory segments otherwise feed the reduce directly.
            yield from self._merge_barrier()
            yield from self._final_merge_passes()
            yield from self._reduce_phase()
            if conf.backpressure_active:
                self.ctx.counters.peak(
                    "shuffle.mem.high_water_bytes", self._mem_hwm
                )
        finally:
            self.ctx.board.remove_replacement_listener(self._on_replacement)

    def _on_replacement(self, meta: MapOutputMeta) -> None:
        ev = self._replacement_events.pop(meta.map_id, None)
        if ev is not None and not ev.triggered:
            ev.succeed(meta)

    # -- shuffle --------------------------------------------------------------

    def _feeder(self, inbox: Store) -> Generator[Event, Any, None]:
        """Map-completion events -> fetch queue (the Map Completion Fetcher)."""
        remaining = self.ctx.n_maps
        while remaining > 0:
            meta: MapOutputMeta = yield inbox.get()
            self.fetch_queue.put(meta)
            remaining -= 1
        for _ in range(self.ctx.conf.parallel_copies):
            self.fetch_queue.put(None)  # copier shutdown sentinels

    def _copier(self) -> Generator[Event, Any, None]:
        conf = self.ctx.conf
        while True:
            meta = yield self.fetch_queue.get()
            if meta is None:
                return
            seg_bytes, _pairs = meta.segment(self.reduce_id)
            if seg_bytes <= 0:
                continue
            if seg_bytes > conf.max_single_shuffle_fraction * self.capacity:
                # Too large for memory: stream straight to a disk run.
                t0 = self.ctx.sim.now
                yield from self._fetch_segment(meta)
                self.shuffled_bytes += seg_bytes
                run = self._new_run_file(f"seg-m{meta.map_id}")
                yield from self.node.fs.write(
                    run, seg_bytes, stream_id=f"shufspill-r{self.reduce_id}"
                )
                self._add_disk_run(run, seg_bytes)
                self.ctx.counters.add("reduce.disk_shuffle_bytes", seg_bytes)
                self.ctx.tracer.record(
                    f"reduce-{self.reduce_id}",
                    "shuffle",
                    t0,
                    self.ctx.sim.now,
                    seg_bytes,
                )
            else:
                # 0.20.2's ShuffleRamManager: while the in-memory merge is
                # draining the buffer, copiers must not start new in-memory
                # fetches — this fetch/merge serialization is a large part
                # of why the vanilla shuffle cannot pipeline (Figure 3 top).
                while self._memory_merging:
                    yield self._merge_free
                if self._credit_gate is not None:
                    yield from self._credit_gate.acquire()
                try:
                    yield self.mem.get(seg_bytes)  # reserve buffer space
                    used = self.capacity - self.mem.level
                    if used > self._mem_hwm:
                        self._mem_hwm = used
                    t0 = self.ctx.sim.now
                    yield from self._fetch_segment(meta)
                    self.shuffled_bytes += seg_bytes
                finally:
                    if self._credit_gate is not None:
                        self._credit_gate.release()
                self.mem_segments.append(seg_bytes)
                self.mem_bytes += seg_bytes
                self.ctx.tracer.record(
                    f"reduce-{self.reduce_id}",
                    "shuffle",
                    t0,
                    self.ctx.sim.now,
                    seg_bytes,
                )
                if self.mem_bytes >= self._merge_trigger:
                    self._start_memory_merge()

    def _fetch_segment(self, meta: MapOutputMeta) -> Generator[Event, Any, float]:
        """One segment fetch with the full recovery loop.

        Retries with back-off / penalty box on transient failures; after
        ``fetch_retry_limit`` consecutive failures the output is reported
        lost and the copier parks until the re-executed map's replacement
        meta arrives, then fetches from the new host.
        """
        ctx = self.ctx
        conf = ctx.conf
        faults = ctx.faults
        failures = 0
        while True:
            if faults.node_dead(self.node.name):
                raise TaskFailure(f"reduce-{self.reduce_id}", self.attempt)
            # Always chase the *current* copy of the output: a replacement
            # may have been committed while this copier was backing off.
            current = ctx.map_outputs.get(meta.map_id)
            if current is not None:
                meta = current
            host = meta.host
            wait = self._penalty_remaining(host)
            if wait > 0:
                yield ctx.sim.timeout(wait)
                continue
            provider = ctx.trackers[host].provider
            try:
                got = yield from provider.serve(
                    self.node, meta.map_id, self.reduce_id
                )
            except FaultError as exc:
                if exc.kind == "corrupt":
                    # Rotten on-disk output: retrying re-reads the same bad
                    # bytes.  Report for condemnation and park for the
                    # re-executed map's replacement.
                    meta = yield from self._await_replacement(meta)
                    failures = 0
                    continue
                t0 = ctx.sim.now
                failures += 1
                delay = self._fetch_backoff(host)
                if failures >= conf.fetch_retry_limit:
                    meta = yield from self._await_replacement(meta)
                    failures = 0
                    continue
                yield ctx.sim.timeout(delay)
                ctx.tracer.record(
                    f"reduce-{self.reduce_id}", "retry", t0, ctx.sim.now, 0.0
                )
                continue
            if (
                ctx.integrity is not None
                and got > 0
                and ctx.integrity.wire_corrupted(
                    host,
                    self.node.name,
                    max(1.0, -(-got // 65536)),
                    (meta.map_id, self.reduce_id),
                )
            ):
                # Verify-on-receive failed: re-request the whole segment
                # (the HTTP copier has no partial-fetch resume).
                ctx.integrity.note_refetch()
                continue
            self._note_fetch_success(host)
            return got

    def _await_replacement(
        self, meta: MapOutputMeta
    ) -> Generator[Event, Any, MapOutputMeta]:
        """Report ``meta`` lost and wait for the re-executed replacement."""
        ctx = self.ctx
        current = ctx.map_outputs.get(meta.map_id)
        if current is not None and current is not meta:
            return current  # a replacement is already committed
        ev = self._replacement_events.get(meta.map_id)
        if ev is None:
            # Register the waiter *before* reporting so the republish
            # cannot race past us.
            ev = Event(ctx.sim)
            self._replacement_events[meta.map_id] = ev
        ctx.counters.add("shuffle.retry.reports", 1)
        ctx.report_fetch_failure(meta)
        new_meta = yield ev
        return new_meta

    # -- control-plane actuators (repro.control) --------------------------------

    def _apply_spill_threshold(self, fraction: float) -> bool:
        """Move the in-memory merge trigger (this engine's spill line)."""
        if self.capacity <= 0:
            return False
        new_trigger = fraction * self.capacity
        if abs(new_trigger - self._merge_trigger) < 1.0:
            return False
        self._merge_trigger = new_trigger
        if self.mem_bytes >= new_trigger:
            # A lowered line may already be crossed: merge now, not on the
            # next segment arrival.
            self._start_memory_merge()
        return True

    def control_signals(self) -> dict[str, float]:
        if self.capacity <= 0:
            return {}
        signals = {
            "mem_frac": (self.capacity - self.mem.level) / self.capacity,
            "spill_frac": self._merge_trigger / self.capacity,
        }
        if self._credit_gate is not None:
            signals["credits"] = float(self._credit_gate.credits)
            signals["gate_paused"] = 1.0 if self._credit_gate.paused else 0.0
        return signals

    # -- mergers ---------------------------------------------------------------

    def _new_run_file(self, tag: str) -> Any:
        self._run_seq += 1
        return self.node.fs.create(
            f"shuffle/r{self.reduce_id}a{self.attempt}/{self._run_seq}-{tag}"
        )

    def _add_disk_run(self, run: Any, nbytes: float) -> None:
        run.size = max(run.size, nbytes)
        self.disk_runs.append(run)
        self._maybe_start_disk_merge()

    def _start_memory_merge(self) -> None:
        if self._memory_merging or not self.mem_segments:
            return
        self._memory_merging = True
        if self._credit_gate is not None:
            # The merge is draining the buffer: stop re-granting credits
            # until it completes (receive-window flow control).
            self._credit_gate.pause()
        proc = self._spawn(self._memory_merge(), name=f"r{self.reduce_id}-memmerge")
        self._merge_procs.append(proc)

    def _memory_merge(self) -> Generator[Event, Any, None]:
        """In-Memory Merger: merge buffered segments, write one disk run."""
        sim = self.ctx.sim
        cost = self.ctx.conf.costs
        taken = self.mem_segments[:]
        self.mem_segments.clear()
        total = sum(taken)
        self.mem_bytes -= total
        run = self._new_run_file("memmerge")
        cpu = sim.process(
            self.node.compute(cost.cpu_seconds("merge", total) * self.jitter)
        )
        wr = sim.process(
            self.node.fs.write(run, total, stream_id=f"memmerge-r{self.reduce_id}")
        )
        yield sim.all_of([cpu, wr])
        self.mem.put(total)  # release the buffer space
        self.ctx.counters.add("reduce.memmerge_bytes", total)
        self._memory_merging = False
        if self._credit_gate is not None:
            self._credit_gate.resume()
        free, self._merge_free = self._merge_free, Event(sim)
        free.succeed()
        self._add_disk_run(run, total)

    def _maybe_start_disk_merge(self) -> None:
        factor = self.ctx.conf.effective_merge_factor
        if self._disk_merging or len(self.disk_runs) < 2 * factor - 1:
            return
        self._disk_merging = True
        proc = self._spawn(self._disk_merge(), name=f"r{self.reduce_id}-diskmerge")
        self._merge_procs.append(proc)

    def _disk_merge(self) -> Generator[Event, Any, None]:
        """Local FS Merger: merge the io.sort.factor smallest disk runs."""
        factor = self.ctx.conf.effective_merge_factor
        self.disk_runs.sort(key=lambda f: f.size)
        victims = self.disk_runs[:factor]
        self.disk_runs = self.disk_runs[factor:]
        yield from self._merge_runs_to_disk(victims, tag="fsmerge")
        self._disk_merging = False
        self._maybe_start_disk_merge()

    def _merge_runs_to_disk(
        self, runs: list[Any], tag: str
    ) -> Generator[Event, Any, None]:
        sim = self.ctx.sim
        cost = self.ctx.conf.costs
        total = sum(f.size for f in runs)
        out = self._new_run_file(tag)
        read = sim.process(self._read_runs(runs))
        cpu = sim.process(
            self.node.compute(cost.cpu_seconds("merge", total) * self.jitter)
        )
        wr = sim.process(
            self.node.fs.write(out, total, stream_id=f"{tag}-w-r{self.reduce_id}")
        )
        yield sim.all_of([read, cpu, wr])
        for f in runs:
            self.node.fs.delete(f.name)
        self.ctx.counters.add("reduce.fsmerge_bytes", total)
        self._add_disk_run(out, total)

    def _read_runs(self, runs: list[Any]) -> Generator[Event, Any, None]:
        for f in runs:
            yield from self.node.fs.read(
                f, stream_id=f"fsmerge-r-r{self.reduce_id}"
            )

    def _merge_barrier(self) -> Generator[Event, Any, None]:
        """Wait until every background merge (and any it spawned) is done."""
        seen = 0
        while seen < len(self._merge_procs):
            batch = self._merge_procs[seen:]
            seen = len(self._merge_procs)
            yield self._gather_on(batch)

    def _final_merge_passes(self) -> Generator[Event, Any, None]:
        """Reduce the number of disk runs to io.sort.factor before reduce."""
        factor = self.ctx.conf.effective_merge_factor
        while len(self.disk_runs) > factor:
            self.disk_runs.sort(key=lambda f: f.size)
            count = min(factor, len(self.disk_runs) - factor + 1)
            victims = self.disk_runs[:count]
            self.disk_runs = self.disk_runs[count:]
            yield from self._merge_runs_to_disk(victims, tag="finalpass")
            self.ctx.counters.add("reduce.final_merge_passes", 1)

    # -- reduce -----------------------------------------------------------------

    def _reduce_phase(self) -> Generator[Event, Any, None]:
        """Consume the final merged stream: disk runs + leftover memory."""
        sim = self.ctx.sim
        conf = self.ctx.conf
        cost = conf.costs
        disk_total = sum(f.size for f in self.disk_runs)
        mem_total = self.mem_bytes
        total = disk_total + mem_total
        if total <= 0:
            return
        disk_fraction = disk_total / total
        remaining = total
        while remaining > 0:
            part = min(conf.reduce_flush_bytes, remaining)
            disk_part = part * disk_fraction
            if disk_part > 0:
                # Feed the merge from disk (one interleaved read stream).
                yield from self._read_part(disk_part)
            yield from self.node.compute(
                cost.cpu_seconds("merge", part) * self.jitter
            )
            yield from self.reduce_and_write(part, self.jitter)
            remaining -= part
        # Release leftover memory reservation.
        if mem_total > 0:
            self.mem.put(mem_total)
            self.mem_bytes = 0.0
        # reduce.completed is counted by the JobTracker at commit time
        # (commit-once: a losing speculative attempt that finishes its
        # pipeline must not count).

    def _read_part(self, nbytes: float) -> Generator[Event, Any, None]:
        """Read ``nbytes`` of merged input spread across the disk runs."""
        if not self.disk_runs:
            return
        f = self.disk_runs[0]
        yield from self.node.fs.read(
            f, nbytes, stream_id=f"redfeed-r{self.reduce_id}"
        )
