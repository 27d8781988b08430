"""Job configuration and results.

:class:`JobConf` carries the Hadoop configuration surface the paper
exercises: the 0.20.2 buffer/merge knobs, the paper's tuned block sizes
and slot counts, plus the OSU-IB configuration parameters the paper calls
out in §III-C.3 (``mapred.rdma.enabled``, RDMA packet size,
``mapred.local.caching.enabled``, pairs per packet, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.faults import FaultPlan
from repro.mapreduce.costs import DEFAULT_COSTS, CostModel
from repro.workloads.records import RecordModel
from repro.workloads.randomwriter import RANDOMWRITER_RECORDS
from repro.workloads.teragen import TERASORT_RECORDS

__all__ = ["JobConf", "JobResult", "sort_job", "terasort_job"]

KB = 1024
MB = 1024 * 1024
GB = 1024 * MB

SHUFFLE_ENGINES = ("http", "hadoopa", "rdma")


@dataclass(frozen=True)
class JobConf:
    """Everything a job run needs besides the cluster itself."""

    job_id: str
    benchmark: str  # "terasort" | "sort" (labels the workload)
    data_bytes: float
    block_bytes: float
    n_reduces: int
    record_model: RecordModel
    #: Shuffle engine: "http" (vanilla), "hadoopa", or "rdma" (OSU-IB).
    #: "rdma" corresponds to mapred.rdma.enabled=true in the paper.
    shuffle_engine: str = "http"

    # -- slots & scheduling (paper §IV: 4 concurrent map and reduce tasks) --
    map_slots: int = 4
    reduce_slots: int = 4
    reduce_slowstart: float = 0.05

    # -- map side (0.20.2 defaults) -----------------------------------------
    io_sort_mb: float = 100 * MB
    io_sort_factor: int = 10
    sort_spill_percent: float = 0.80
    map_output_expansion: float = 1.0

    # -- vanilla reduce side -------------------------------------------------
    shuffle_input_buffer_percent: float = 0.70
    shuffle_merge_percent: float = 0.66
    max_single_shuffle_fraction: float = 0.25
    parallel_copies: int = 5
    http_server_threads: int = 40

    # -- OSU-IB engine (§III-C.3 configuration interface) ---------------------
    rdma_packet_bytes: int = 128 * KB
    rdma_wave_bytes: int = 2 * MB  # fetch-batch ceiling (packets aggregated)
    rdma_fetch_threads: int = 8
    rdma_responder_threads: int = 8
    #: mapred.local.caching.enabled
    caching_enabled: bool = True
    prefetch_threads: int = 2

    # -- observability (repro.obs) ---------------------------------------------
    #: Emit PhaseSpan records from tasks and shuffle engines.  Costs one
    #: small object per fetch wave / merge drain; disable for the very
    #: largest paper-scale sweeps if memory is tight.
    phase_tracing: bool = True

    # -- Hadoop-A engine -------------------------------------------------------
    hadoopa_pairs_per_packet: int = 1310
    hadoopa_fetch_threads: int = 4

    # -- I/O & HDFS -------------------------------------------------------------
    input_replication: int = 3
    #: dfs.replication for job output.  Benchmark practice of the era sets
    #: sort output replication to 1 (the TeraSort rules); replicated output
    #: mostly adds identical disk/network load to every design, so the
    #: comparisons are insensitive to it (see the ablation benchmark).
    output_replication: int = 1
    reduce_flush_bytes: float = 32 * MB

    # -- robustness (speculation + fault injection + recovery) --------------------
    # Everything that makes the job survive a misbehaving cluster lives in
    # this block.  All defaults keep the fault machinery fully idle: with
    # no fault_plan, runs are event-for-event identical to a build without
    # it (the existing benchmarks stay bit-identical).
    #
    #: mapred.map.tasks.speculative.execution: launch a backup attempt for
    #: map tasks running far beyond the completed-task median.
    speculative_execution: bool = False
    #: mapred.reduce.tasks.speculative.execution: LATE backup attempts for
    #: reduce tasks (commit-once; the losing attempt is killed, not failed).
    speculative_reduces: bool = False
    #: A running attempt is speculation-eligible beyond median * threshold.
    speculative_threshold: float = 1.2
    #: Upper bound on backup attempts launched per job (0 = unlimited).
    speculative_cap: int = 0
    #: Seconds between LATE speculator scans.
    speculative_interval: float = 2.0
    #: Attempts before the job aborts (mapred.map.max.attempts).
    max_task_attempts: int = 4
    #: Deterministic fault schedule (repro.faults): crashes, flaps, stalls,
    #: corruption, degradation, master faults and task/fetch failure
    #: rates.  None disables injection.
    fault_plan: FaultPlan | None = None
    #: Consecutive failed fetches of one map output before the reducer
    #: reports it lost to the JobTracker (which re-executes the map).
    fetch_retry_limit: int = 4
    #: First fetch-retry back-off, seconds; doubles per consecutive failure
    #: (with deterministic jitter), capped at fetch_backoff_max.
    fetch_backoff_base: float = 0.5
    fetch_backoff_max: float = 8.0
    #: Consecutive per-host failures before that host enters the penalty
    #: box, and how long it stays there (Hadoop's copier penalty box).
    penalty_box_after: int = 3
    penalty_box_secs: float = 10.0
    #: Consecutive verbs-level failures on one endpoint pair before UCR
    #: permanently downgrades that pair to the IPoIB socket transport.
    verbs_downgrade_after: int = 3

    # -- flow control & memory pressure (backpressure/spill knob block) -----------
    # Inert by default, same contract as the fault block above: with every
    # knob at its zero value no new events are scheduled, no new counters
    # appear, and runs stay event-for-event identical to a build without
    # this subsystem.
    #
    #: Fraction of the reduce-side shuffle buffer at which a levitated run
    #: that cannot be admitted is *demoted* to a disk spill (and the http
    #: engine additionally triggers its in-memory merge).  0 disables the
    #: memory budget enforcement entirely (the pre-spill unbounded model).
    shuffle_spill_threshold: float = 0.0
    #: Fan-in of intermediate spill-merge passes (Hadoop's io.sort.factor
    #: applied to shuffle spills); 0 means "use io_sort_factor".
    merge_factor: int = 0
    #: Credit-based receive window: outstanding in-memory fetches one
    #: reducer may have in flight (Liu et al., MPICH2-over-IB flow
    #: control).  A merge-stalled reducer withholds credit grants until it
    #: drains.  0 disables the window.
    recv_credits: int = 0
    #: TaskTracker-side admission control: DataRequests beyond this queue
    #: depth are parked (deferred) instead of flooding the responder pool;
    #: the http servlet applies the same bound to its accept backlog.
    #: 0 means unbounded (the pre-admission-control behaviour).
    responder_queue_limit: int = 0
    #: Deterministic reducer partition skew: partition r of every map
    #: output is weighted ~ (r+1)^-skew (0 = exactly even, the default).
    partition_skew: float = 0.0
    #: Per-send UCR tracing: endpoint send spans + queue-depth gauges
    #: (``ucr.net.*``) and per-fetch ``net-wait`` spans on the reducers.
    ucr_tracing: bool = False

    # -- closed-loop shuffle control plane (repro.control) -------------------------
    # Same inert-by-default contract as the blocks above: with
    # control_interval at its zero default the controller process is never
    # created, no control.* counters appear, and runs stay event-for-event
    # identical to a build without this subsystem.
    #
    #: Seconds between controller ticks; 0 disables the control plane.
    control_interval: float = 0.0
    #: Bounds for mid-job ``recv_credits`` retuning.  The controller only
    #: adjusts a gate that exists (``recv_credits > 0`` armed it); 0 for
    #: the max means "twice the static window".
    control_min_credits: int = 1
    control_max_credits: int = 0
    #: Bounds for mid-job ``shuffle_spill_threshold`` retuning (fractions
    #: of the shuffle buffer; the controller never leaves this band).
    control_spill_floor: float = 0.35
    control_spill_ceiling: float = 0.9
    #: Responder backlog depth at (or beyond) which a tracker draws a
    #: placement penalty when reduce attempts are (re)located.
    control_queue_depth: int = 8
    #: EWMA health score at (or beyond) which a tracker draws a placement
    #: penalty (integrity layer must be active for scores to exist).
    control_health_threshold: float = 0.3
    #: Migrate in-flight reducers off a tracker that crosses the
    #: quarantine threshold mid-job (killed-not-failed reschedule).
    control_migrate: bool = True

    # -- data integrity (checksums, corruption recovery, quarantine) --------------
    # Same inert-by-default contract: with integrity_checksums off and no
    # corruption entries in fault_plan, the repro.integrity manager is
    # never created and runs stay event-for-event identical.  With
    # checksums on but nothing corrupting, verification is free in
    # simulated time: integrity.* counters move, timing does not.
    #
    #: Verify checksums on every read/receive hop (disk, cache, HDFS,
    #: transport).  Forced on whenever the fault plan carries corruption.
    integrity_checksums: bool = False
    #: EWMA weight of one checksum failure in a node's health score.
    integrity_ewma_alpha: float = 0.25
    #: Health score at (or above) which a node is quarantined: excluded
    #: from replica preference and new task placement, cache dropped.
    quarantine_threshold: float = 0.6
    #: Minimum checksum failures before quarantine can trigger (so one
    #: unlucky flip on a healthy disk never quarantines a node).
    quarantine_min_failures: int = 4

    # -- master resilience (write-ahead journal + lease-fenced recovery) -----------
    # Same inert-by-default contract as every robustness block above: with
    # master_journal off and no master entries in fault_plan, no journal is
    # created, no master.* counters appear, and runs stay event-for-event
    # identical to a build without this subsystem.
    #
    #: Write the job journal even without planned master faults (lets a
    #: run be crash-recoverable "just in case", at the cost of the
    #: journal flush I/O).  Forced on whenever the fault plan carries
    #: master entries.
    master_journal: bool = False
    #: Seconds of master silence before TaskTrackers park (stop
    #: reporting completions upward) and the supervisor declares the
    #: incarnation dead.  A MasterStall shorter than this is survived.
    master_lease_timeout: float = 1.5
    #: Seconds between JobTracker heartbeats to the lease layer.
    master_heartbeat_interval: float = 0.5
    #: Seconds between master death being declared and the replacement
    #: JobTracker starting journal replay (process restart + init cost).
    master_restart_delay: float = 1.0
    #: Seconds between journal group-commit flushes to HDFS.  Appends
    #: between flushes are buffered (group commit); a crash loses none of
    #: the *decisions* — replay is reconstructed from the journal object,
    #: which models the durable tail — but the flush cadence sets the
    #: recurring I/O charge the journal adds to the run.
    master_journal_flush: float = 0.5

    # -- costs -------------------------------------------------------------------
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)

    def __post_init__(self) -> None:
        if self.shuffle_engine not in SHUFFLE_ENGINES:
            raise ValueError(
                f"unknown shuffle engine {self.shuffle_engine!r}; "
                f"choose from {SHUFFLE_ENGINES}"
            )
        if self.data_bytes <= 0 or self.block_bytes <= 0:
            raise ValueError("data_bytes and block_bytes must be positive")
        if self.n_reduces < 1:
            raise ValueError("need at least one reducer")
        if not 0.0 <= self.shuffle_spill_threshold <= 1.0:
            raise ValueError(
                f"shuffle_spill_threshold must be in [0, 1], "
                f"got {self.shuffle_spill_threshold}"
            )
        if self.merge_factor < 0 or self.recv_credits < 0:
            raise ValueError("merge_factor and recv_credits must be >= 0")
        if self.responder_queue_limit < 0:
            raise ValueError("responder_queue_limit must be >= 0")
        if self.partition_skew < 0:
            raise ValueError("partition_skew must be >= 0")
        if not 0.0 < self.integrity_ewma_alpha <= 1.0:
            raise ValueError(
                f"integrity_ewma_alpha must be in (0, 1], "
                f"got {self.integrity_ewma_alpha}"
            )
        if not 0.0 < self.quarantine_threshold <= 1.0:
            raise ValueError(
                f"quarantine_threshold must be in (0, 1], "
                f"got {self.quarantine_threshold}"
            )
        if self.quarantine_min_failures < 1:
            raise ValueError("quarantine_min_failures must be >= 1")
        if self.control_interval < 0:
            raise ValueError("control_interval must be >= 0")
        if self.control_interval > 0:
            if self.control_min_credits < 1:
                raise ValueError("control_min_credits must be >= 1")
            if self.control_max_credits < 0:
                raise ValueError("control_max_credits must be >= 0")
            if (
                0 < self.control_max_credits < self.control_min_credits
            ):
                raise ValueError(
                    "control_max_credits must be >= control_min_credits"
                )
            if not 0.0 < self.control_spill_floor <= 1.0:
                raise ValueError(
                    f"control_spill_floor must be in (0, 1], "
                    f"got {self.control_spill_floor}"
                )
            if not self.control_spill_floor <= self.control_spill_ceiling <= 1.0:
                raise ValueError(
                    "control_spill_ceiling must be in "
                    "[control_spill_floor, 1]"
                )
            if self.control_queue_depth < 1:
                raise ValueError("control_queue_depth must be >= 1")
            if not 0.0 < self.control_health_threshold <= 1.0:
                raise ValueError(
                    f"control_health_threshold must be in (0, 1], "
                    f"got {self.control_health_threshold}"
                )
        if self.speculative_cap < 0:
            raise ValueError("speculative_cap must be >= 0")
        if self.master_active:
            if self.master_heartbeat_interval <= 0:
                raise ValueError("master_heartbeat_interval must be positive")
            if self.master_lease_timeout <= self.master_heartbeat_interval:
                # A lease no longer than one heartbeat would expire
                # between beats on a perfectly healthy master.
                raise ValueError(
                    "master_lease_timeout must exceed master_heartbeat_interval"
                )
            if self.master_restart_delay <= 0:
                raise ValueError("master_restart_delay must be positive")
            if self.master_journal_flush <= 0:
                raise ValueError("master_journal_flush must be positive")
        if self.speculation_active:
            if self.speculative_threshold <= 1.0:
                # LATE's lag bar: at threshold <= 1 every on-pace attempt
                # counts as a straggler and backups churn pointlessly.
                raise ValueError(
                    f"speculative_threshold must be > 1, "
                    f"got {self.speculative_threshold}"
                )
            if self.speculative_interval <= 0:
                raise ValueError("speculative_interval must be positive")

    @property
    def speculation_active(self) -> bool:
        """Whether the LATE speculator runs (either task kind armed)."""
        return self.speculative_execution or self.speculative_reduces

    @property
    def integrity_active(self) -> bool:
        """Whether the integrity layer runs: checksums on, or corruption planned."""
        return self.integrity_checksums or (
            self.fault_plan is not None and self.fault_plan.has_corruption
        )

    @property
    def backpressure_active(self) -> bool:
        """Whether any flow-control/spill knob departs from its inert zero."""
        return (
            self.shuffle_spill_threshold > 0
            or self.recv_credits > 0
            or self.responder_queue_limit > 0
        )

    @property
    def control_active(self) -> bool:
        """Whether the closed-loop shuffle control plane runs."""
        return self.control_interval > 0

    @property
    def master_active(self) -> bool:
        """Whether the job journal + master supervision layer runs."""
        return self.master_journal or (
            self.fault_plan is not None and self.fault_plan.has_master_faults
        )

    @property
    def effective_merge_factor(self) -> int:
        """Spill-merge fan-in: ``merge_factor``, or io.sort.factor when unset."""
        return self.merge_factor if self.merge_factor > 0 else self.io_sort_factor

    @property
    def n_maps(self) -> int:
        return max(1, int(-(-self.data_bytes // self.block_bytes)))

    def scaled(self, **overrides: Any) -> "JobConf":
        return replace(self, **overrides)


def terasort_job(
    data_bytes: float,
    n_nodes: int,
    shuffle_engine: str,
    block_bytes: float | None = None,
    **overrides: Any,
) -> JobConf:
    """The paper's TeraSort configuration (§IV-B).

    Optimal block size was 256 MB for 10GigE/IPoIB/OSU-IB and 128 MB for
    Hadoop-A; reducers fill all reduce slots (4 per node).
    """
    if block_bytes is None:
        block_bytes = 128 * MB if shuffle_engine == "hadoopa" else 256 * MB
    conf = JobConf(
        job_id=f"terasort-{int(data_bytes / GB)}g-{shuffle_engine}",
        benchmark="terasort",
        data_bytes=data_bytes,
        block_bytes=block_bytes,
        n_reduces=4 * n_nodes,
        record_model=TERASORT_RECORDS,
        shuffle_engine=shuffle_engine,
    )
    return conf.scaled(**overrides) if overrides else conf


def sort_job(
    data_bytes: float,
    n_nodes: int,
    shuffle_engine: str,
    block_bytes: float = 64 * MB,
    **overrides: Any,
) -> JobConf:
    """The paper's Sort configuration (§IV-C): 64 MB blocks, RandomWriter input."""
    conf = JobConf(
        job_id=f"sort-{int(data_bytes / GB)}g-{shuffle_engine}",
        benchmark="sort",
        data_bytes=data_bytes,
        block_bytes=block_bytes,
        n_reduces=4 * n_nodes,
        record_model=RANDOMWRITER_RECORDS,
        shuffle_engine=shuffle_engine,
    )
    return conf.scaled(**overrides) if overrides else conf


@dataclass
class JobResult:
    """Outcome of one simulated job."""

    conf: JobConf
    transport: str
    n_nodes: int
    execution_time: float
    #: Simulation timestamps of phase milestones.  The reduce milestones
    #: are None when no reduce attempt completed (a map-only or failed
    #: run): reporting ``sim.now`` there would silently claim completion
    #: at whatever the clock happened to read.
    first_map_start: float = 0.0
    last_map_end: float = 0.0
    first_reduce_done: float | None = None
    last_reduce_done: float | None = None
    counters: dict[str, float] = field(default_factory=dict)
    #: Task attempt spans (see :mod:`repro.tools.timeline`).
    task_spans: list[Any] = field(default_factory=list)
    #: Federated metrics tree snapshot (see :mod:`repro.obs.registry`).
    metrics: dict[str, float] = field(default_factory=dict)
    #: Phase spans (see :mod:`repro.obs.phases`), when tracing was enabled.
    phase_spans: list[Any] = field(default_factory=list)
    #: Figure-3 pipelining report derived from the phase spans.
    phase_report: dict[str, Any] = field(default_factory=dict)

    @property
    def map_phase_seconds(self) -> float:
        return self.last_map_end - self.first_map_start

    @property
    def reduce_tail_seconds(self) -> float:
        """Time from the last map finishing to job completion.

        NaN when no reduce completed (there is no tail to measure).
        """
        if self.last_reduce_done is None:
            return float("nan")
        return self.last_reduce_done - self.last_map_end

    def summary(self) -> str:
        c = self.counters
        tail = self.reduce_tail_seconds
        tail_txt = f"{tail:.0f}s" if tail == tail else "-"  # NaN: no reduces ran
        return (
            f"{self.conf.job_id} on {self.transport} x{self.n_nodes}: "
            f"{self.execution_time:.0f}s "
            f"(maps {self.map_phase_seconds:.0f}s, tail {tail_txt}, "
            f"cache hit {c.get('cache.hit_rate', 0.0):.0%})"
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot for the benchmark export.

        Phase spans are deliberately omitted (they can number in the
        tens of thousands at paper scale); the derived ``phase_report``
        carries the Figure-3 overlap quantities instead.
        """
        conf = self.conf
        return {
            "job_id": conf.job_id,
            "benchmark": conf.benchmark,
            "shuffle_engine": conf.shuffle_engine,
            "transport": self.transport,
            "n_nodes": self.n_nodes,
            "n_maps": conf.n_maps,
            "n_reduces": conf.n_reduces,
            "data_bytes": conf.data_bytes,
            "execution_time": self.execution_time,
            "map_phase_seconds": self.map_phase_seconds,
            "reduce_tail_seconds": self.reduce_tail_seconds,
            "first_map_start": self.first_map_start,
            "last_map_end": self.last_map_end,
            "first_reduce_done": self.first_reduce_done,
            "last_reduce_done": self.last_reduce_done,
            "counters": dict(self.counters),
            "metrics": dict(self.metrics),
            "phase_report": dict(self.phase_report),
        }
