"""The benchmark's three TeraSort workloads and the paper claims they check.

Each workload runs one job per shuffle engine on the IPoIB fabric:
``http`` (vanilla Hadoop over IPoIB), ``hadoopa`` (HadoopA-IB) and
``rdma`` (OSU-IB).  Sizes were chosen on a 2-CPU sandbox so that one
cycle of a workload takes roughly 15-30 s of host time: long enough to
average out timer noise and seed-to-seed variation, short enough that
the full measurement campaign (about 70 runs) fits in under an hour.
Jobs run serially in one process; ``nproc`` is 2, so fanning out would
only measure contention.

A cycle runs one round (one job per engine) for each of the workload's
``seeds_per_cycle`` derived seeds.  The run reports the median over
rounds, so one seed whose simulated work is unusually heavy, or one
burst of host noise, does not move the result.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

# run_job_on imports the journal lazily for master-fault runs; importing
# it here keeps that cost in set-up rather than in the first timed job.
import repro.mapreduce.journal  # noqa: F401
from repro.cluster import Cluster, build_cluster
from repro.cluster.presets import westmere_cluster
from repro.experiments.calibration import PAPER_CLAIMS
from repro.experiments.figures import ROW_HADOOPA, ROW_IPOIB, ROW_OSU
from repro.faults import (
    DiskCorruption,
    FaultPlan,
    MasterCrash,
    NodeCrash,
    NodeSlowdown,
    WireCorruption,
)
from repro.mapreduce.job import JobConf, terasort_job

GB = 1 << 30
MB = 1 << 20

#: Shuffle engines, in the order every cycle runs them.
ENGINES = ("http", "hadoopa", "rdma")
#: Fabric every job runs on; the verbs engines ride UCR on the same HCA.
FABRIC = "ipoib"

#: Backpressure knobs of ``benchmarks/test_skew_lowmem.py`` (spill line,
#: spill-merge fan-in, credit window, responder admission queue).
LOWMEM_KNOBS = dict(
    shuffle_spill_threshold=0.55,
    merge_factor=4,
    recv_credits=4,
    responder_queue_limit=16,
)

#: One fixed fault schedule with absolute simulated times.  The fault-free
#: ``http`` job takes ~110-125 s; under this plan it takes ~280-500 s.
ADVERSE_PLAN = FaultPlan(
    crashes=(NodeCrash(at=70.0, node="node03"),),
    master_crashes=(MasterCrash(at=45.0),),
    disk_corruptions=(DiskCorruption(node="node02", rate=0.1, rot_rate=0.1),),
    wire_corruptions=(WireCorruption(node="node00", rate=0.01),),
    slowdowns=(NodeSlowdown(at=10.0, node="node01", duration=60.0, factor=3.0),),
    name="adverse",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: cluster shape, job shape and checks."""

    name: str
    #: Why the workload exists (also the ``why`` in BENCHMARK.json).
    why: str
    n_nodes: int
    node_kind: str
    data_bytes: float
    #: Simulated seconds after which a job counts as failed.
    deadline_s: float
    #: Derived seeds one cycle runs (see the module docstring).
    seeds_per_cycle: int
    #: ``(figure, x, label suffix)`` selecting the PAPER_CLAIMS rows that
    #: ``paper_gap_pp`` compares against.
    claims: tuple[str, float, str]
    #: JobConf overrides on top of :func:`terasort_job`.
    overrides: tuple[tuple[str, Any], ...] = ()
    #: Reducer ``task_heap_bytes`` as a fraction of the default.
    heap_frac: float = 1.0

    def sub_seeds(self, seed: int) -> list[int]:
        """The cluster seeds one cycle runs for the driver's ``seed``."""
        return [seed * self.seeds_per_cycle + i for i in range(self.seeds_per_cycle)]

    def conf(self, engine: str) -> JobConf:
        """The job this workload runs on ``engine``."""
        conf = terasort_job(
            self.data_bytes, self.n_nodes, engine, **dict(self.overrides)
        )
        if self.heap_frac != 1.0:
            conf = dataclasses.replace(
                conf,
                costs=dataclasses.replace(
                    conf.costs,
                    task_heap_bytes=self.heap_frac * conf.costs.task_heap_bytes,
                ),
            )
        return conf

    def cluster(self, seed: int) -> Cluster:
        """A fresh cluster for one job, seeded with ``seed``."""
        nodes = westmere_cluster(self.n_nodes, n_disks=1, node_kind=self.node_kind)
        return build_cluster(nodes, FABRIC, seed=seed)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The fig4a point the paper tabulates claims for (30 GB, 1 HDD).
        # The 4-node shuffle keeps flow components small: the kernel,
        # resources, disk and levitated merge do most of the work and
        # network/flows.py takes only 7-16% of self time, so kernel and
        # merge optimisations show here and flow-network ones should not.
        # ~10 s of host time per seed.
        Workload(
            name="terasort-4n",
            why=(
                "fig4a point (30 GB, 4 nodes, 1 HDD): kernel, resources, disk "
                "and levitated merge dominate; flows take only 7-16% of self time"
            ),
            n_nodes=4,
            node_kind="compute",
            data_bytes=30 * GB,
            deadline_s=2400.0,
            seeds_per_cycle=2,
            claims=("fig4a", 30, "-1disk"),
        ),
        # The fig5 shape at 1/20 size (10 GB on 24 storage nodes, 1 disk).
        # The 24x24 all-to-all shuffle puts network/flows.py at about half
        # of rdma's self time while the storage nodes' 24 GB RAM keeps disk
        # light.  The full fig5 sweep takes ~1 h, so this is the
        # user-visible target, and where flow-network optimisations show.
        # Not 20 GB: there rdma falls into one of two flow-network regimes
        # depending on the seed (half the seeds re-rate ~6x more flows and
        # take 2.5x the host time), so no affordable number of seeds makes
        # a run's throughput steady; at 10 GB every seed tried is in one
        # regime.  ~7 s of host time per seed.
        Workload(
            name="wide-24n",
            why=(
                "fig5 shape at 1/20 size (10 GB, 24 storage nodes): the 24x24 "
                "shuffle makes network/flows.py the top layer for rdma"
            ),
            n_nodes=24,
            node_kind="storage",
            data_bytes=10 * GB,
            deadline_s=200.0,
            seeds_per_cycle=3,
            claims=("fig5", 100, ""),
        ),
        # The only workload where spill/admission, control, speculation,
        # integrity, faults and the master journal do any work; the shuffle
        # runs through its spill and credit path rather than in-memory
        # merge, so a change that speeds the common path but costs this one
        # shows.  The control plane stays on although it hangs hadoopa and
        # rdma (see NOTES.md): the hang must show as failed jobs.  ~3-5 s of
        # host time per seed, but on about one seed in six rdma does ~2x the
        # events (and ~4x the host time) before it hangs.
        Workload(
            name="adverse-4n",
            why=(
                "3 GB skewed, low-memory, faulted TeraSort with control and "
                "speculation on: the only load on the robustness planes"
            ),
            n_nodes=4,
            node_kind="compute",
            data_bytes=3 * GB,
            deadline_s=1200.0,
            seeds_per_cycle=5,
            claims=("fig4a", 30, "-1disk"),
            overrides=(
                ("block_bytes", 64 * MB),
                ("partition_skew", 1.2),
                *LOWMEM_KNOBS.items(),
                ("speculative_execution", True),
                ("speculative_reduces", True),
                ("control_interval", 1.0),
                ("fault_plan", ADVERSE_PLAN),
            ),
            heap_frac=0.25,
        ),
    )
}

#: Figure-series labels of the engines this benchmark runs on ``FABRIC``.
_ENGINE_BY_LABEL = {row[0]: row[2] for row in (ROW_IPOIB, ROW_HADOOPA, ROW_OSU)}


def paper_claims(workload: Workload) -> list[tuple[str, str, float]]:
    """``(ours, baseline, paper improvement)`` engine rows for ``workload``.

    Rows are picked from :data:`PAPER_CLAIMS` by figure, x and label, so
    the metric follows the table if the tabled claims change.  Rows whose
    series this benchmark does not run (10GigE, 2 disks) are skipped.
    """
    figure, x, suffix = workload.claims
    rows = []
    for cx, ours, base, paper in PAPER_CLAIMS[figure]:
        if cx != x or not (ours.endswith(suffix) and base.endswith(suffix)):
            continue
        ours_engine = _ENGINE_BY_LABEL.get(ours[: len(ours) - len(suffix)])
        base_engine = _ENGINE_BY_LABEL.get(base[: len(base) - len(suffix)])
        if ours_engine and base_engine:
            rows.append((ours_engine, base_engine, paper))
    return rows
