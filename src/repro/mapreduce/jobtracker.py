"""The JobTracker: task scheduling and job lifecycle (§II-A).

Scheduling reproduces 0.20.2 behaviour at the fidelity the experiments
need: fixed map/reduce slots per TaskTracker, locality-preferring greedy
map assignment (with 3-way replicated input, locality is near-total),
reducers launched once ``mapred.reduce.slowstart.completed.maps`` of the
maps have finished, and speculative execution off unless a
``speculative_*`` knob asks for it (the paper's tuned setup).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.hdfs.block import Block
from repro.mapreduce.context import JobContext
from repro.mapreduce.job import JobResult
from repro.mapreduce.maptask import (
    TaskFailure,
    map_output_file_name,
    run_map_task,
)
from repro.mapreduce.shuffle.base import engine_by_name
from repro.mapreduce.speculation import pick_straggler
from repro.mapreduce.tasktracker import TaskTracker
from repro.sim.core import Event

__all__ = ["JobTracker"]


class JobTracker:
    """Runs one job to completion on the context's cluster."""

    def __init__(self, ctx: JobContext):
        self.ctx = ctx
        self.sim = ctx.sim
        self.pending_maps: list[tuple[int, Block]] = []
        self._slowstart_event = Event(self.sim)
        self._slowstart_target = 0
        self._reduce_done_times: list[float] = []
        # Master resilience (repro.mapreduce.journal): the incarnation's
        # fencing epoch (stamped on every journal append/commit), the full
        # input block list (recovery reschedules uncommitted maps from it),
        # and this incarnation's scheduling processes so a fail-over can
        # halt the brain and abandon the workers.  All inert without a
        # journal: epoch stays 0 and the proc lists are never consulted.
        self.epoch = 0
        self.start_time = 0.0
        self._blocks: list[Block] = []
        self._map_loop_procs: list[Any] = []
        self._watcher_procs: list[Any] = []
        self._reduce_wrapper_procs: list[Any] = []
        self._control_proc: Any = None
        # Speculative execution bookkeeping: live attempts per map task.
        self._attempts: dict[int, list[Any]] = {}
        self._attempt_meta: dict[int, tuple[float, str, Block]] = {}
        self._speculated: set[int] = set()
        # Reduce-side speculation: commit-once registry, per-reduce attempt
        # id allocator (ids stay unique across concurrent racing wrappers),
        # and the live attempts' lose events, which a committing winner
        # fires (wrappers park on a race and are never interrupted for it).
        self._reduce_committed: set[int] = set()
        self._reduce_speculated: set[int] = set()
        self._reduce_attempt_seq: dict[int, int] = {}
        self._reduce_lose: dict[int, list[Event]] = {}
        self._spec_reduce_procs: list[Any] = []
        self._consumer_cls: type | None = None
        # Fault recovery: maps with a re-execution in flight, and the
        # re-execution driver processes (drained before job cleanup).
        self._reexec_pending: set[int] = set()
        self._reexec_procs: list[Any] = []

    # -- lifecycle -----------------------------------------------------------

    def run(self) -> Generator[Event, Any, JobResult]:
        """The plain (journal-free) driver: one incarnation, start to end.

        ``yield from`` is transparent to the event kernel, so this path
        is event-for-event identical to the pre-split monolithic run().
        Under master supervision (``ctx.journal``) the MasterSupervisor
        calls setup()/execute()/finish() itself, re-running execute()
        across incarnations.
        """
        yield from self.setup()
        yield from self.execute()
        return self.finish()

    def setup(self) -> Generator[Event, Any, None]:
        ctx = self.ctx
        conf = ctx.conf
        provider_cls, consumer_cls = engine_by_name(conf.shuffle_engine)
        self._consumer_cls = consumer_cls

        # Input already resides in HDFS (TeraGen/RandomWriter ran earlier).
        blocks = ctx.dfs.provision_file(
            f"{conf.job_id}/input",
            conf.data_bytes,
            conf.block_bytes,
            replication=conf.input_replication,
        )
        self._blocks = list(blocks)
        self.pending_maps = list(enumerate(blocks))
        self._slowstart_target = max(
            1, int(-(-conf.reduce_slowstart * len(blocks) // 1))
        )

        # Bring up TaskTrackers with the chosen engine's provider.
        for node in ctx.cluster.nodes:
            tt = TaskTracker(ctx, node)
            tt.provider = provider_cls(ctx, tt)
            ctx.trackers[node.name] = tt
            for disk in node.fs.disks:
                ctx.metrics.register(f"disk.{disk.name}", disk)

        # Fetch-failure reports flow back here, and a node crash kills
        # the attempts running on it.
        ctx.fetch_failure_handler = self.report_fetch_failure
        ctx.faults.on_crash(self._on_node_crash)

        if ctx.integrity is not None:
            # A quarantined TaskTracker sheds engine state whose integrity
            # is now suspect (the OSU-IB PrefetchCache drops everything).
            def _shed(node_name: str) -> None:
                quarantined = ctx.trackers.get(node_name)
                if quarantined is not None and quarantined.provider is not None:
                    quarantined.provider.on_quarantine()

            ctx.integrity.on_quarantine(_shed)

        if ctx.control is not None:
            # The closed-loop controller ticks for the duration of the job
            # (the timer pending when the job's done event stops the sim is
            # simply never processed).
            self._control_proc = self.sim.process(
                ctx.control.run(), name="control-plane"
            )

        # Job setup (setup task, InputFormat split computation, ...).
        yield self.sim.timeout(conf.costs.job_overhead / 2.0)
        self.start_time = self.sim.now

    def execute(self) -> Generator[Event, Any, bool]:
        """One scheduling incarnation: map loops, slow-start, reducers.

        Returns True when the job ran to completion, False when a master
        crash interrupted this incarnation mid-flight (the supervisor
        fails over and launches a fresh execute() on recovered state).
        """
        from repro.sim.core import Interrupted

        ctx = self.ctx
        conf = ctx.conf
        try:
            trackers = list(ctx.trackers.values())
            self._map_loop_procs = [
                self.sim.process(self._tt_map_loop(tt), name=f"{tt.name}-maploop")
                for tt in trackers
            ]
            # Track slow-start via the (delayed) completion board.
            self._watcher_procs = [
                self.sim.process(self._slowstart_watch(), name="slowstart")
            ]
            if conf.speculation_active:
                self._watcher_procs.append(
                    self.sim.process(self._speculation_watcher(), name="speculator")
                )

            # Launch reducers once slow-start is reached.
            yield self._slowstart_event
            reducers = []
            for reduce_id in range(conf.n_reduces):
                if reduce_id in self._reduce_committed:
                    continue  # journaled as committed by a prior incarnation
                tt = trackers[reduce_id % len(trackers)]
                reducers.append(
                    self.sim.process(
                        self._reduce_wrapper(tt, reduce_id, self._consumer_cls),
                        name=f"reduce-{reduce_id}",
                    )
                )
            self._reduce_wrapper_procs = reducers

            yield self.sim.all_of(self._map_loop_procs + reducers)
            # Re-execution drivers normally finish before the reducers
            # that wait on their output; drain stragglers so nothing leaks.
            live = [p for p in self._reexec_procs if p.is_alive]
            if live:
                yield self.sim.all_of(live)
            if self._spec_reduce_procs:
                # A speculative backup may still be the winner mid-flight
                # when every original wrapper has returned (its original
                # was killed) — or a loser may still be unwinding its
                # teardown.  The job is done only when the racers are.
                live = [p for p in self._spec_reduce_procs if p.is_alive]
                if live:
                    yield self.sim.all_of(live)
            # Job cleanup.
            yield self.sim.timeout(conf.costs.job_overhead / 2.0)
            return True
        except Interrupted:
            # Master crash: the scheduler brain halts right here.  Worker
            # attempts keep running (real tasks outlive their JobTracker)
            # until abandon() reaps them at lease expiry.
            self._halt_brain()
            return False

    def finish(self) -> JobResult:
        ctx = self.ctx
        conf = ctx.conf
        start_time = self.start_time
        counters = ctx.counters.as_dict()
        if ctx.faults.active:
            # Make the recovery story legible in one place: every fault /
            # retry / degradation tally lands in the job counters (these
            # keys exist only when a plan was active, keeping fault-free
            # BENCH exports bit-identical).
            for key in (
                "shuffle.retry.attempts",
                "shuffle.retry.backoff_seconds",
                "shuffle.retry.penalty_boxed",
                "shuffle.retry.penalty_cleared",
                "shuffle.retry.reports",
                "map.reexecuted",
                "map.lost_outputs",
                "reduce.node_lost",
            ):
                counters.setdefault(key, 0.0)
            counters["ucr.teardowns"] = float(ctx.ucr.teardowns)
            counters["ucr.reconnects"] = float(ctx.ucr.reconnects)
            counters["ucr.downgrades"] = float(ctx.ucr.downgrades)
            for key, value in ctx.faults.counters.as_dict().items():
                counters[f"faults.{key}"] = value
        if ctx.integrity is not None:
            # Full integrity tally (key set pre-seeded, so corruption-free
            # verified runs export the same keys as corrupted ones).
            for key, value in ctx.integrity.counters.as_dict().items():
                counters[f"integrity.{key}"] = value
        if ctx.control is not None:
            # Controller decision tally (key set pre-seeded; 0 = the policy
            # never had cause to act).  Present only when the plane ran.
            for key, value in ctx.control.counters.as_dict().items():
                counters[f"control.{key}"] = value
            counters.setdefault("reduce.migrated", 0.0)
        if ctx.speculation is not None:
            # LATE speculator tally (key set pre-seeded; 0 = it never had
            # cause to act).  Present only when a speculative knob is set.
            for key, value in ctx.speculation.counters.as_dict().items():
                counters[f"speculation.{key}"] = value
        if ctx.journal is not None:
            # Master-resilience tally (key set pre-seeded; epoch 1 with
            # zero fenced appends = the master never went down).  Present
            # only when the journal ran, keeping knob-free exports
            # bit-identical.
            for key in (
                "reduce.commit_rejected",
                "reduce.master_lost",
                "master.tt_parked",
            ):
                counters.setdefault(key, 0.0)
            for key, value in ctx.journal.counters.as_dict().items():
                counters[f"journal.{key}"] = value
            counters["master.epochs"] = float(ctx.journal.epoch + 1)
        if conf.backpressure_active:
            # Stable backpressure/spill key set when any flow-control knob
            # is on (0 = the pressure never materialised); absent on
            # knob-free runs so their BENCH exports stay bit-identical.
            for key in (
                "shuffle.backpressure.credit_waits",
                "shuffle.backpressure.credit_wait_seconds",
                "shuffle.backpressure.credits_withheld",
                "shuffle.backpressure.deferred_requests",
                "shuffle.backpressure.mem_stalls",
                "shuffle.backpressure.mem_stall_seconds",
                "shuffle.spill.runs",
                "shuffle.spill.bytes",
                "shuffle.spill.merge_passes",
                "shuffle.spill.merge_bytes",
                "shuffle.mem.high_water_bytes",
            ):
                counters.setdefault(key, 0.0)
        if conf.ucr_tracing:
            # Endpoint queue-depth gauge feeding the backpressure view.
            counters["shuffle.backpressure.max_endpoint_depth"] = float(
                ctx.ucr.max_endpoint_depth
            )
        # Always present so BENCH exports can compare designs: 0 means every
        # serve was a cache hit (no TaskTracker-side disk read).
        counters.setdefault("shuffle.tt_disk_read_bytes", 0.0)
        hits = counters.get("cache.hits", 0.0)
        misses = counters.get("cache.misses", 0.0)
        if hits + misses > 0:
            counters["cache.hit_rate"] = hits / (hits + misses)
        counters["disk.bytes_read"] = ctx.cluster.total_disk_bytes_read()
        counters["disk.bytes_written"] = ctx.cluster.total_disk_bytes_written()
        counters["net.bytes"] = ctx.cluster.fabric.flows.total_bytes

        from repro.obs.phases import overlap_report

        phase_report = overlap_report(ctx.tracer.spans)
        if ctx.integrity is not None:
            phase_report["integrity"] = ctx.integrity.report()
        if ctx.control is not None:
            phase_report["control"] = ctx.control.report()
        if ctx.speculation is not None:
            phase_report["speculation"] = ctx.speculation.report()
        if ctx.journal is not None:
            phase_report["recovery"] = ctx.journal.report()

        return JobResult(
            conf=conf,
            transport=ctx.cluster.spec.transport.name,
            n_nodes=ctx.cluster.n_nodes,
            # now - start_time already includes the cleanup half of the
            # overhead; add back only the setup half spent before start_time.
            execution_time=self.sim.now - start_time + conf.costs.job_overhead / 2.0,
            first_map_start=ctx.first_map_start or start_time,
            last_map_end=ctx.last_map_end,
            # None (not sim.now) when no reduce completed: a map-only or
            # failed run must not claim a completion timestamp.
            first_reduce_done=(
                min(self._reduce_done_times) if self._reduce_done_times else None
            ),
            last_reduce_done=(
                max(self._reduce_done_times) if self._reduce_done_times else None
            ),
            counters=counters,
            task_spans=list(ctx.spans),
            metrics=ctx.metrics.collect(),
            phase_spans=list(ctx.tracer.spans),
            phase_report=phase_report,
        )

    # -- master resilience (journal-armed runs only) -----------------------------

    def _halt_brain(self) -> None:
        """Stop every scheduler-side process of this incarnation.

        Worker attempts are deliberately NOT touched here: real map/reduce
        tasks outlive a JobTracker crash and are only reaped by abandon()
        once the lease expires.
        """
        me = self.sim.active_process
        for proc in self._map_loop_procs + self._watcher_procs:
            if proc is not me and proc.is_alive:
                proc.interrupt("master-crash")
        self._map_loop_procs = []
        self._watcher_procs = []
        if self._control_proc is not None and self._control_proc.is_alive:
            self._control_proc.interrupt("master-crash")
        self._control_proc = None

    def abandon(self, cause: str) -> list[Any]:
        """Interrupt every live worker-side process; return those still live.

        Called by the supervisor after the lease expires: attempts that ran
        headless during the down window are torn down so the next
        incarnation starts from journaled + TT-storage truth only.
        """
        me = self.sim.active_process
        procs: dict[int, Any] = {}
        for plist in self._attempts.values():
            for proc in plist:
                procs[id(proc)] = proc
        for proc in self._reexec_procs:
            procs[id(proc)] = proc
        for proc in self._reduce_wrapper_procs:
            procs[id(proc)] = proc
        for proc in self._spec_reduce_procs:
            procs[id(proc)] = proc
        live = []
        for proc in procs.values():
            if proc is me or not proc.is_alive:
                continue
            proc.interrupt(cause)
            live.append(proc)
        return live

    def recover(self, recovery: Any) -> None:
        """Rebuild scheduler state for a fresh execute() incarnation.

        ``recovery`` is the journal's RecoveryState; TT-side truth
        (surviving map outputs) has already been re-registered into
        ctx.map_outputs by the supervisor's rebuild pass.
        """
        from repro.sim.core import Event

        ctx = self.ctx
        self.epoch = ctx.journal.epoch
        self._reduce_committed = set(recovery.committed_reduces)
        self._reduce_done_times = sorted(
            t for _a, _b, t in recovery.committed_reduces.values()
        )
        # Attempt numbering must never restart: journaled floor vs. what
        # this incarnation saw in memory (down-window allocations were
        # fenced out of the journal, so the in-memory view can be ahead).
        for reduce_id, seq in recovery.reduce_attempt_seq.items():
            self._reduce_attempt_seq[reduce_id] = max(
                self._reduce_attempt_seq.get(reduce_id, 0), seq
            )
        # Only maps without a surviving registered output are rescheduled.
        self.pending_maps = [
            (i, b) for i, b in enumerate(self._blocks) if i not in ctx.map_outputs
        ]
        # Survivors keep attempt metadata so fetch-failure condemnation and
        # re-execution still know where the output lives.
        for map_id, meta in ctx.map_outputs.items():
            old = self._attempt_meta.get(map_id)
            started = old[0] if old is not None else 0.0
            self._attempt_meta[map_id] = (started, meta.host, self._blocks[map_id])
        self._attempts = {}
        self._speculated = set()
        self._reduce_speculated = set()
        self._reduce_lose = {}
        self._spec_reduce_procs = []
        self._reexec_pending = set()
        self._reexec_procs = []
        self._map_loop_procs = []
        self._watcher_procs = []
        self._reduce_wrapper_procs = []
        self._slowstart_target = max(
            1,
            int(-(-ctx.conf.reduce_slowstart * len(self._blocks) // 1)),
        )
        self._slowstart_event = Event(self.sim)
        if ctx.control is not None:
            self._control_proc = self.sim.process(
                ctx.control.run(), name=f"control-plane-e{self.epoch}"
            )

    # -- map scheduling ----------------------------------------------------------

    def _pick_map(self, tt: TaskTracker) -> tuple[int, Block] | None:
        """Prefer a map whose block has a replica on this TaskTracker."""
        if not self.pending_maps:
            return None
        for i, (map_id, block) in enumerate(self.pending_maps):
            if block.is_local_to(tt.node.name):
                return self.pending_maps.pop(i)
        self.ctx.counters.add("map.non_local", 1)
        return self.pending_maps.pop(0)

    def _tt_map_loop(self, tt: TaskTracker) -> Generator[Event, Any, None]:
        from repro.sim.core import Interrupted

        launched: list[Event] = []
        while self.pending_maps:
            slot = tt.map_slots.request()
            try:
                yield slot
            except Interrupted:
                # Master crash while queued for a slot: withdraw quietly.
                slot.cancel()
                return
            if self.ctx.faults.node_dead(tt.name):
                # This TaskTracker is gone; leave remaining maps to the
                # healthy loops (and the re-execution path).
                tt.map_slots.release(slot)
                break
            task = self._pick_map(tt)
            if task is None:
                tt.map_slots.release(slot)
                break
            proc = self.sim.process(
                self._map_wrapper(tt, task, slot), name=f"map-{task[0]}"
            )
            self._attempts.setdefault(task[0], []).append(proc)
            self._attempt_meta[task[0]] = (self.sim.now, tt.name, task[1])
            launched.append(proc)
        if launched:
            try:
                yield self.sim.all_of(launched)
            except Interrupted:
                # Master crash: stop tracking, leave attempts to abandon().
                return

    def _map_wrapper(
        self, tt: TaskTracker, task: tuple[int, Block], slot: Any
    ) -> Generator[Event, Any, None]:
        """Run one map task, retrying failed attempts on this TaskTracker.

        (0.20.2 prefers re-running on a different node; at simulation
        fidelity the re-execution *cost* is what matters, and input blocks
        are replicated so locality is equivalent.)
        """
        from repro.sim.core import Interrupted
        from repro.tools.timeline import TaskSpan

        map_id, block = task
        spec = self.ctx.speculation
        try:
            for attempt in range(self.ctx.conf.max_task_attempts):
                started = self.sim.now
                if spec is not None:
                    spec.track("map", map_id, attempt, tt.name)
                try:
                    yield from run_map_task(self.ctx, tt, map_id, block, attempt)
                    self.ctx.spans.append(
                        TaskSpan("map", map_id, attempt, tt.name, started, self.sim.now)
                    )
                    if spec is not None and map_id in self._speculated:
                        spec.note_win("map", map_id, tt.name)
                    self._kill_losing_attempts(map_id)
                    return
                except TaskFailure:
                    self.ctx.spans.append(
                        TaskSpan(
                            "map", map_id, attempt, tt.name, started, self.sim.now, ok=False
                        )
                    )
                    continue
                except Interrupted as exc:
                    # A sibling speculative attempt committed first, or the
                    # node died under this attempt.  Killed, not failed:
                    # neither outcome burns the task's attempt budget.
                    self.ctx.spans.append(
                        TaskSpan(
                            "map", map_id, attempt, tt.name, started, self.sim.now,
                            ok=False, killed=True,
                        )
                    )
                    if spec is not None and exc.cause == "lost speculative race":
                        spec.note_loser("map", map_id, tt.name, 0.0)
                    if (
                        exc.cause == "node-crash"
                        and map_id not in self.ctx.map_outputs
                    ):
                        self._relaunch_lost_map(map_id, block)
                    return
                finally:
                    if spec is not None:
                        spec.untrack("map", map_id, attempt, tt.name)
            raise RuntimeError(
                f"map {map_id} exceeded {self.ctx.conf.max_task_attempts} attempts"
            )
        finally:
            tt.map_slots.release(slot)

    def _kill_losing_attempts(self, map_id: int) -> None:
        """Interrupt still-running sibling attempts after a commit."""
        me = self.sim.active_process
        for proc in self._attempts.get(map_id, []):
            if proc is not me and proc.is_alive:
                proc.interrupt("lost speculative race")

    # -- fault recovery ---------------------------------------------------------

    def _on_node_crash(self, name: str) -> None:
        """FaultInjector hook: kill map attempts running on a dead node."""
        ctx = self.ctx
        for map_id, (_started, tt_name, _block) in list(self._attempt_meta.items()):
            if tt_name != name or map_id in ctx.map_outputs:
                continue
            for proc in self._attempts.get(map_id, []):
                if proc.is_alive:
                    proc.interrupt("node-crash")

    def report_fetch_failure(self, meta: Any) -> None:
        """A reducer condemned ``meta`` after repeated fetch failures.

        Mirrors 0.20.2's JobTracker handling of TaskTracker fetch-failure
        notifications: the map output is declared lost, its TaskTracker
        drops it, and the map is re-executed on a healthy node.  Stale
        reports (against an output that was already replaced) and
        duplicate reports (re-execution already pending) are ignored.
        """
        ctx = self.ctx
        if ctx.journal is not None and ctx.journal.master_down:
            # Nobody is listening: real TaskTrackers queue fetch-failure
            # notifications for a heartbeat that never comes.  The reducer
            # retries against surviving replicas; condemnation waits for
            # the next incarnation.
            ctx.journal.counters.add("reports_dropped", 1)
            return
        map_id = meta.map_id
        cur = ctx.map_outputs.get(map_id)
        if cur is not None and cur is not meta:
            return  # a replacement already committed; report is stale
        if cur is None:
            # Already invalidated by an earlier report; make sure a
            # re-execution is actually in flight.
            if map_id not in self._reexec_pending:
                self._relaunch_lost_map(map_id, self._attempt_meta[map_id][2])
            return
        ctx.counters.add("map.lost_outputs", 1)
        if ctx.journal is not None:
            ctx.journal.append("map_condemned", map_id=map_id, host=cur.host)
        del ctx.map_outputs[map_id]
        if ctx.integrity is not None:
            # Re-execution is the recovery for a rotten on-disk output:
            # settle every open detection against the condemned artifact.
            ctx.integrity.note_condemned(cur.host, map_output_file_name(map_id))
        old_tt = ctx.trackers.get(cur.host)
        if old_tt is not None:
            old_tt.invalidate_map_output(map_id)
        self._relaunch_lost_map(map_id, self._attempt_meta[map_id][2])

    def _relaunch_lost_map(self, map_id: int, block: Block) -> None:
        if map_id in self._reexec_pending:
            return
        self._reexec_pending.add(map_id)
        proc = self.sim.process(
            self._reexecute(map_id, block), name=f"reexec-m{map_id}"
        )
        self._reexec_procs.append(proc)
        self._attempts.setdefault(map_id, []).append(proc)

    def _reexecute(self, map_id: int, block: Block) -> Generator[Event, Any, None]:
        """Re-run a lost map on a healthy TaskTracker; republish its meta."""
        from repro.sim.core import Interrupted

        ctx = self.ctx
        tt = None
        slot = None
        try:
            ctx.counters.add("map.reexecuted", 1)
            tt = self._pick_healthy_tracker(block)
            slot = tt.map_slots.request()
            yield slot
            if ctx.faults.node_dead(tt.name):
                # The chosen node crashed while we queued for its slot.
                slot.cancel()
                slot = None
                self._reexec_pending.discard(map_id)
                self._relaunch_lost_map(map_id, block)
                return
            if map_id in ctx.map_outputs:
                # A racing attempt (e.g. speculation) committed meanwhile.
                slot.cancel()
                slot = None
                self._reexec_pending.discard(map_id)
                return
            self._attempt_meta[map_id] = (self.sim.now, tt.name, block)
            yield from self._map_wrapper(tt, (map_id, block), slot)
            slot = None  # _map_wrapper released it
        except Interrupted as exc:
            # The re-execution host crashed too (or a speculative sibling
            # won while we waited for a slot).
            if slot is not None:
                slot.cancel()  # safe whether or not the slot was granted
                slot = None
            self._reexec_pending.discard(map_id)
            if exc.cause == "master-crash":
                # No relaunch from a dead master: the next incarnation
                # reschedules this map from journaled/TT-storage truth.
                return
            if map_id not in ctx.map_outputs:
                self._relaunch_lost_map(map_id, block)
            return
        self._reexec_pending.discard(map_id)

    def _pick_healthy_tracker(self, block: Block) -> TaskTracker:
        """Least-loaded live TaskTracker, preferring live input replicas."""
        ctx = self.ctx
        healthy = [
            tt for tt in ctx.trackers.values() if not ctx.faults.node_dead(tt.name)
        ]
        if not healthy:
            raise RuntimeError("no healthy TaskTrackers left to re-execute on")
        if ctx.integrity is not None:
            # Prefer non-quarantined trackers (re-running a condemned map
            # on the disk that rotted it would just rot it again).
            fit = [tt for tt in healthy if not ctx.integrity.quarantined(tt.name)]
            if not fit:
                # Every live tracker is quarantined.  Fall back — but
                # loudly, and to the *least-degraded* one (lowest EWMA
                # score), not to whatever locality/load order happens to
                # yield.  Least-degraded outranks locality here: a local
                # read from the most-rotten disk is the worst option.
                choice = min(
                    healthy,
                    key=lambda t: (
                        ctx.integrity.health_score(t.name),
                        t.map_slots.count,
                        t.name,
                    ),
                )
                ctx.integrity.note_quarantine_fallback(choice.name)
                return choice
            healthy = fit
        local = [tt for tt in healthy if block.is_local_to(tt.name)]
        pool = local or healthy
        return min(pool, key=lambda t: (t.map_slots.count, t.name))

    # -- speculative execution -------------------------------------------------

    def _speculation_watcher(self) -> Generator[Event, Any, None]:
        """The LATE scan loop (Zaharia et al., OSDI'08).

        Every ``speculative_interval`` seconds the speculator ranks live
        attempts by progress *rate*: an attempt whose projected total
        runtime (``age / progress``) exceeds ``speculative_threshold`` x
        the completed-task median is a straggler, and the slowest-rate
        straggler gets one backup attempt per scan — subject to the
        per-job ``speculative_cap`` and a free-slot healthy-tracker
        placement that reuses the scheduler's quarantine/steering rules.
        First attempt to finish commits; the loser is killed, not failed.
        """
        from repro.sim.core import Interrupted

        ctx = self.ctx
        conf = ctx.conf
        spec = ctx.speculation
        try:
            while True:
                yield self.sim.timeout(conf.speculative_interval)
                spec.counters.add("scans", 1)
                if conf.speculative_execution:
                    yield from self._speculate_maps()
                if conf.speculative_reduces:
                    self._speculate_reduces()
        except Interrupted:
            # Master crash: the scan loop dies with its incarnation.
            return

    def _speculate_maps(self) -> Generator[Event, Any, None]:
        """One LATE map scan: back up the slowest-rate lagging attempt."""
        from repro.sim.core import Interrupted

        ctx = self.ctx
        conf = ctx.conf
        spec = ctx.speculation
        if self.pending_maps or ctx.completed_maps >= ctx.n_maps:
            # Backups only make sense in the tail: while pending work
            # remains, a free slot is better spent on a fresh task.
            return
        durations = sorted(s.duration for s in ctx.spans if s.kind == "map" and s.ok)
        if not durations:
            return
        median = durations[len(durations) // 2]
        exclude = self._speculated | set(ctx.map_outputs)
        pick = pick_straggler(
            spec.estimates("map", exclude),
            self.sim.now,
            median,
            conf.speculative_threshold,
        )
        if pick is None:
            return
        if spec.cap_reached():
            spec.note_capped("map", pick.task_id)
            return
        backup_tt = self._pick_backup_tracker("map", pick.node)
        if backup_tt is None:
            spec.note_no_slot("map", pick.task_id)
            return
        map_id = pick.task_id
        block = self._attempt_meta[map_id][2]
        self._speculated.add(map_id)
        slot = backup_tt.map_slots.request()
        try:
            yield slot
        except Interrupted:
            # Master crash while queued: withdraw, let the watcher unwind.
            slot.cancel()
            raise
        if map_id in ctx.map_outputs:
            # The original committed while we waited for a slot.
            backup_tt.map_slots.release(slot)
            return
        ctx.counters.add("map.speculative_launched", 1)
        spec.note_backup(
            "map", map_id, pick.node, backup_tt.name, pick.est_total(self.sim.now)
        )
        if ctx.journal is not None:
            ctx.journal.append(
                "speculation", task_kind="map", task_id=map_id, backup=backup_tt.name
            )
        proc = self.sim.process(
            self._map_wrapper(backup_tt, (map_id, block), slot),
            name=f"map-{map_id}-backup",
        )
        self._attempts.setdefault(map_id, []).append(proc)

    def _speculate_reduces(self) -> None:
        """One LATE reduce scan: spawn a racing backup wrapper.

        The backup goes through the ordinary reduce wrapper (acquiring its
        own slot), races the original, and whichever attempt commits first
        wins; ``_commit_reduce`` fires the loser's lose event.
        """
        ctx = self.ctx
        conf = ctx.conf
        spec = ctx.speculation
        durations = sorted(s.duration for s in ctx.spans if s.kind == "reduce" and s.ok)
        if not durations:
            return
        median = durations[len(durations) // 2]
        exclude = self._reduce_speculated | self._reduce_committed
        pick = pick_straggler(
            spec.estimates("reduce", exclude),
            self.sim.now,
            median,
            conf.speculative_threshold,
        )
        if pick is None:
            return
        if spec.cap_reached():
            spec.note_capped("reduce", pick.task_id)
            return
        backup_tt = self._pick_backup_tracker("reduce", pick.node)
        if backup_tt is None:
            spec.note_no_slot("reduce", pick.task_id)
            return
        reduce_id = pick.task_id
        self._reduce_speculated.add(reduce_id)
        ctx.counters.add("reduce.speculative_launched", 1)
        spec.note_backup(
            "reduce", reduce_id, pick.node, backup_tt.name, pick.est_total(self.sim.now)
        )
        if ctx.journal is not None:
            ctx.journal.append(
                "speculation",
                task_kind="reduce",
                task_id=reduce_id,
                backup=backup_tt.name,
            )
        proc = self.sim.process(
            self._reduce_wrapper(backup_tt, reduce_id, self._consumer_cls),
            name=f"reduce-{reduce_id}-backup",
        )
        self._spec_reduce_procs.append(proc)

    def _pick_backup_tracker(self, kind: str, straggler_node: str):
        """Free-slot healthy placement for a backup attempt, or None.

        Reuses the scheduler's robustness machinery: dead trackers are
        out, quarantined trackers are skipped (a backup on a rotten disk
        defeats the purpose — and unlike a relaunch, *not* placing a
        backup is always safe), and under the control plane the choice is
        steered away from deep-queue/degraded trackers.
        """
        ctx = self.ctx
        pool = []
        for tt in ctx.trackers.values():
            if tt.name == straggler_node:
                continue
            if ctx.faults.node_dead(tt.name):
                continue
            if ctx.integrity is not None and ctx.integrity.quarantined(tt.name):
                continue
            slots = tt.map_slots if kind == "map" else tt.reduce_slots
            if slots.count >= slots.capacity:
                continue
            pool.append(tt)
        if not pool:
            return None

        def load(t: TaskTracker) -> tuple:
            slots = t.map_slots if kind == "map" else t.reduce_slots
            return (slots.count + slots.queue_len, t.name)

        if ctx.control is not None:
            return ctx.control.pick(pool, load)
        return min(pool, key=load)

    def _slowstart_watch(self) -> Generator[Event, Any, None]:
        from repro.sim.core import Interrupted

        inbox = self.ctx.board.subscribe()
        seen = 0
        try:
            while seen < self._slowstart_target:
                yield inbox.get()
                seen += 1
        except Interrupted:
            # Master crash: the fresh incarnation starts its own watch.
            return
        self._slowstart_event.succeed()

    # -- reducers -------------------------------------------------------------------

    def _alloc_reduce_attempt(self, reduce_id: int) -> int:
        """Next attempt id for this reduce.

        A shared allocator (instead of each wrapper's loop index) keeps
        attempt ids — and therefore RNG stream names and attempt-scoped
        output files — unique when an original and a speculative backup
        wrapper race.  With a single wrapper it degenerates to 0, 1, 2 ...
        exactly as before.
        """
        n = self._reduce_attempt_seq.get(reduce_id, 0)
        self._reduce_attempt_seq[reduce_id] = n + 1
        if self.ctx.journal is not None:
            # Journaled so replay restores the allocator floor: a recovered
            # master must never reuse an attempt id (output files and RNG
            # stream names are attempt-scoped).
            self.ctx.journal.append(
                "reduce_attempt_started", reduce_id=reduce_id, attempt=n
            )
        return n

    def _reduce_span(
        self, tt: TaskTracker, reduce_id: int, attempt: int, started: float,
        **status: bool,
    ) -> None:
        """Record one reduce attempt's task span, ending now."""
        from repro.tools.timeline import TaskSpan

        self.ctx.spans.append(
            TaskSpan(
                "reduce", reduce_id, attempt, tt.name, started, self.sim.now,
                **status,
            )
        )

    def _commit_reduce(
        self, consumer: Any, tt: TaskTracker, reduce_id: int, attempt: int,
        started: float,
    ) -> None:
        """Commit-once for reduce output: first finisher wins.

        Records the span, counters and completion timestamp for the
        winning attempt and kills any racing siblings; a finisher that
        arrives second is torn down as a loser instead.
        """
        ctx = self.ctx
        if reduce_id in self._reduce_committed:
            self._teardown_losing_reduce(consumer, tt, reduce_id, attempt, started)
            return
        if ctx.journal is not None and not ctx.journal.commit_reduce(
            self.epoch, reduce_id, attempt, consumer.bytes_reduced, tt.name
        ):
            # Fenced (zombie epoch / master down) or already durably
            # committed by an earlier incarnation: the journal is the
            # commit authority, so this finisher is torn down as a loser.
            ctx.counters.add("reduce.commit_rejected", 1)
            self._teardown_losing_reduce(consumer, tt, reduce_id, attempt, started)
            return
        self._reduce_committed.add(reduce_id)
        self._reduce_span(tt, reduce_id, attempt, started)
        ctx.counters.add("reduce.completed", 1)
        if ctx.faults.active or ctx.conf.speculative_reduces:
            # Bytes that made it into the *committed* output — unlike
            # reduce.output_bytes this never includes a loser's partials,
            # so chaos runs can assert byte-identical results against it.
            ctx.counters.add(
                "reduce.committed_output_bytes", consumer.bytes_reduced
            )
        if ctx.speculation is not None and reduce_id in self._reduce_speculated:
            ctx.speculation.note_win("reduce", reduce_id, tt.name)
        self._kill_losing_reduce_attempts(reduce_id)
        self._reduce_done_times.append(self.sim.now)

    def _kill_losing_reduce_attempts(self, reduce_id: int) -> None:
        """Signal every racing sibling attempt that the race is over.

        Each live attempt races its consumer against its own lose event;
        firing it lets the sibling unwind itself as a killed loser.
        """
        for ev in self._reduce_lose.get(reduce_id, []):
            if not ev.triggered:
                ev.succeed("lost speculative race")

    def _teardown_losing_reduce(
        self, consumer: Any, tt: TaskTracker, reduce_id: int, attempt: int,
        started: float,
    ) -> None:
        """Unwind a losing speculative attempt: killed, not failed.

        The attempt's span is recorded as killed (it doesn't burn the
        attempt budget), its partial attempt-scoped output is unlinked
        from HDFS, and the wasted bytes are settled against the
        speculation ledger.
        """
        ctx = self.ctx
        self._reduce_span(tt, reduce_id, attempt, started, ok=False, killed=True)
        if consumer is None:
            # Killed before the consumer existed: nothing was written.
            if ctx.speculation is not None:
                ctx.speculation.note_loser("reduce", reduce_id, tt.name, 0.0)
            return
        if not consumer.aborted:
            consumer.cancel("lost speculative race")
        wasted = consumer.bytes_reduced
        # Attempt-scoped output names (Hadoop's _temporary dirs) make the
        # unlink safe: the winner's committed file is untouched.
        ctx.dfs.delete_file(consumer.output_file)
        if ctx.integrity is not None:
            # Settle the abandoned attempt's in-flight wire exchanges and
            # staged artifacts so open detections don't dangle.
            ctx.integrity.note_migrated(tt.name, reduce_id)
        if ctx.speculation is not None:
            ctx.speculation.note_loser("reduce", reduce_id, tt.name, wasted)

    def _teardown_orphaned_reduce(
        self, consumer: Any, run_proc: Any, race_ev: Any, tt: TaskTracker,
        reduce_id: int, attempt: int | None, started: float,
    ) -> Generator[Event, Any, None]:
        """Unwind a reduce attempt orphaned by a master crash.

        Killed, not failed — and unlike a speculative loser, nothing may
        be journaled: the attempt's partial output is discarded so the
        next incarnation restarts the reduce from scratch.
        """
        from repro.mapreduce.maptask import TaskFailure
        from repro.sim.core import Interrupted

        ctx = self.ctx
        if race_ev is not None:
            # Detach the abandoned race from its children: our interrupt
            # already detached the waiter, and a child failing into a
            # waiterless condition would crash the kernel.
            race_ev.defuse()
        if attempt is not None:
            self._reduce_span(tt, reduce_id, attempt, started, ok=False, killed=True)
        ctx.counters.add("reduce.master_lost", 1)
        if consumer is None:
            return
        if not consumer.aborted:
            consumer.cancel("master-crash")
        if run_proc is not None and run_proc.is_alive:
            run_proc.interrupt("master-crash")
            try:
                yield run_proc
            except (TaskFailure, Interrupted):
                pass
        # Attempt-scoped output names make the unlink safe: committed
        # winners live under different (journaled) file names.
        ctx.dfs.delete_file(consumer.output_file)
        if ctx.integrity is not None:
            # Settle the abandoned attempt's in-flight wire exchanges and
            # staged artifacts so open detections don't dangle.
            ctx.integrity.note_migrated(tt.name, reduce_id)

    def _reduce_wrapper(
        self, tt: TaskTracker, reduce_id: int, consumer_cls: type
    ) -> Generator[Event, Any, None]:
        """The reduce-task lifecycle, for originals and speculative backups.

        The slot is taken per attempt, so an attempt whose node crashed
        moves to a healthy TaskTracker.  Each attempt races its consumer
        against the events that can end it early (the race arms): its
        node's crash event under a fault plan, a controller-fired migrate
        event (the tracker crossed the quarantine threshold mid-job), and,
        with speculative reduces, a per-attempt lose event that a
        committing sibling fires.  A crash, a migration or a lost race
        *kills* the attempt (Hadoop semantics: killed, not failed — it
        doesn't count toward max_task_attempts); a TaskFailure burns an
        attempt as usual.  With no arm the consumer runs inline.
        """
        from repro.mapreduce.maptask import TaskFailure
        from repro.sim.core import Interrupted

        ctx = self.ctx
        faults = ctx.faults
        spec = ctx.speculation
        speculating = spec is not None and ctx.conf.speculative_reduces
        failed_attempts = 0
        relocate = False
        while True:
            if reduce_id in self._reduce_committed:
                return  # a racing sibling committed while we relocated
            if ctx.journal is not None and ctx.journal.master_down:
                # Headless: a kill-path interrupt can be swallowed by the
                # inner drain below, so the loop re-checks before every
                # (re)launch.  The next incarnation reschedules this reduce.
                return
            if failed_attempts >= ctx.conf.max_task_attempts:
                raise RuntimeError(
                    f"reduce {reduce_id} exceeded "
                    f"{ctx.conf.max_task_attempts} attempts"
                )
            if relocate or faults.node_dead(tt.name):
                tt = self._pick_reduce_tracker(reduce_id)
                relocate = False
            slot = tt.reduce_slots.request()
            try:
                yield slot
            except Interrupted:
                # Master crash while queued: withdraw; nothing started.
                slot.cancel()
                return
            attempt = None
            consumer = None
            lose = None
            run_proc = None
            race_ev = None
            started = self.sim.now
            try:
                if faults.node_dead(tt.name):
                    continue  # crashed while we queued; move elsewhere
                if reduce_id in self._reduce_committed:
                    return  # a racing sibling committed while we queued
                attempt = self._alloc_reduce_attempt(reduce_id)
                if speculating:
                    lose = Event(self.sim)
                    self._reduce_lose.setdefault(reduce_id, []).append(lose)
                started = self.sim.now
                yield from tt.node.compute(
                    ctx.conf.costs.task_startup
                    * ctx.jitter(f"redstart-{reduce_id}-a{attempt}")
                )
                if lose is not None and lose.triggered:
                    # The sibling committed during our startup compute.
                    self._teardown_losing_reduce(
                        None, tt, reduce_id, attempt, started
                    )
                    return
                consumer = consumer_cls(ctx, tt, reduce_id, attempt)
                migrate = None
                if ctx.control is not None:
                    migrate = ctx.control.track_attempt(
                        reduce_id, tt.name, consumer
                    )
                if spec is not None:
                    spec.track(
                        "reduce", reduce_id, attempt, tt.name,
                        poll=consumer.progress,
                    )
                arms = [ev for ev in (migrate, lose) if ev is not None]
                try:
                    if not faults.active and not arms:
                        # Nothing can end the attempt early: run inline.
                        yield from consumer.run()
                    else:
                        run_proc = self.sim.process(
                            consumer.run(), name=f"r{reduce_id}-attempt{attempt}"
                        )
                        if faults.active:
                            arms.insert(0, faults.crash_event(tt.name))
                        race_ev = self.sim.any_of([run_proc, *arms])
                        yield race_ev
                except TaskFailure:
                    # The consumer died first (injected reduce failure or
                    # its own node lost mid-fetch).  Its fetchers may still
                    # be running: tear them down with the attempt.
                    consumer.cancel()
                    self._reduce_span(tt, reduce_id, attempt, started, ok=False)
                    failed_attempts += 1
                    continue
                if run_proc is not None and run_proc.is_alive:
                    # The node crashed mid-attempt, the controller
                    # evacuated this reducer off a freshly quarantined
                    # tracker — or a speculative sibling committed first.
                    # Either way the attempt is killed (not failed): tear
                    # the consumer down and wait for its processes to
                    # unwind.
                    lost_race = lose is not None and lose.triggered
                    migrated = (
                        not lost_race
                        and migrate is not None
                        and migrate.triggered
                        and not faults.node_dead(tt.name)
                    )
                    if lost_race:
                        cause = "lost speculative race"
                    else:
                        cause = "control-migrate" if migrated else "node-crash"
                    consumer.cancel(cause)
                    run_proc.interrupt(cause)
                    interrupted = False
                    try:
                        yield run_proc
                    except (TaskFailure, Interrupted):
                        interrupted = True
                    if interrupted:
                        if lost_race:
                            self._teardown_losing_reduce(
                                consumer, tt, reduce_id, attempt, started
                            )
                            return
                        if migrated:
                            ctx.counters.add("reduce.migrated", 1)
                            if ctx.integrity is not None:
                                # The abandoned attempt's in-flight wire
                                # exchanges and staged spill files are
                                # settled — the relaunch refetches from
                                # scratch under fresh verification.
                                ctx.integrity.note_migrated(tt.name, reduce_id)
                            relocate = True
                        else:
                            ctx.counters.add("reduce.node_lost", 1)
                        self._reduce_span(
                            tt, reduce_id, attempt, started, ok=False, killed=True
                        )
                        continue  # fresh attempt id, not a *failed* one
                elif run_proc is not None and not run_proc.ok:
                    # The consumer failed in the same timestamp the crash
                    # (or another event) fired; classify its exception.
                    exc = run_proc.value
                    consumer.cancel()
                    if isinstance(exc, TaskFailure):
                        self._reduce_span(tt, reduce_id, attempt, started, ok=False)
                        failed_attempts += 1
                        continue
                    if isinstance(exc, Interrupted):
                        self._reduce_span(
                            tt, reduce_id, attempt, started, ok=False, killed=True
                        )
                        ctx.counters.add("reduce.node_lost", 1)
                        continue
                    raise exc
                # A finisher that lost the race by a nose is torn down
                # as a loser inside.  Its own lose event goes first, so a
                # commit fires only its siblings'.
                self._drop_lose_event(reduce_id, lose)
                self._commit_reduce(consumer, tt, reduce_id, attempt, started)
                return
            except Interrupted:
                # Master crash mid-attempt (startup compute or parked on
                # the race): the brain is gone, so nothing may commit or
                # relaunch.  Tear the orphaned attempt down and park.
                yield from self._teardown_orphaned_reduce(
                    consumer, run_proc, race_ev, tt, reduce_id, attempt, started
                )
                return
            finally:
                if ctx.control is not None:
                    ctx.control.untrack_attempt(reduce_id)
                if spec is not None and consumer is not None:
                    spec.untrack("reduce", reduce_id, attempt, tt.name)
                self._drop_lose_event(reduce_id, lose)
                tt.reduce_slots.release(slot)

    def _drop_lose_event(self, reduce_id: int, lose: Event | None) -> None:
        """Stop tracking one attempt's lose event (it left the race)."""
        events = self._reduce_lose.get(reduce_id)
        if events is not None and lose in events:
            events.remove(lose)

    def _pick_reduce_tracker(self, reduce_id: int) -> TaskTracker:
        """Least-loaded live TaskTracker for a relocated reduce attempt.

        Under the control plane the choice additionally steers around
        trackers with deep responder backlogs or degraded health scores.
        """
        ctx = self.ctx
        healthy = [
            tt for tt in ctx.trackers.values() if not ctx.faults.node_dead(tt.name)
        ]
        if not healthy:
            raise RuntimeError("no healthy TaskTrackers left for reducers")

        def load(t: TaskTracker) -> tuple:
            return (t.reduce_slots.count + t.reduce_slots.queue_len, t.name)

        if ctx.integrity is not None:
            fit = [tt for tt in healthy if not ctx.integrity.quarantined(tt.name)]
            if not fit:
                # All quarantined: fall back loudly to the least-degraded
                # tracker by EWMA score (see _pick_healthy_tracker).
                choice = min(
                    healthy,
                    key=lambda t: (ctx.integrity.health_score(t.name),) + load(t),
                )
                ctx.integrity.note_quarantine_fallback(choice.name)
                return choice
            healthy = fit
        if ctx.control is not None:
            return ctx.control.pick(healthy, load)
        return min(healthy, key=load)
