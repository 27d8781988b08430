"""Fault-plan injection and end-to-end recovery (the robustness layer).

Covers the :mod:`repro.faults` machinery proper: node crashes mid-job
(map re-execution + reduce attempt migration), link flaps (fetch retry /
back-off / penalty box, verbs->IPoIB downgrade), disk read errors, and
responder stalls.  The transparent-overhead invariant — a job with no
fault plan carries an inert injector, spawns no fault process and
exports no fault keys — is checked via key absence and determinism.

Rate-based injection (``FaultPlan.map_failure_rate`` etc.) is covered at
the end of this file: map attempts die partway and are rescheduled,
reduce attempts die and re-run their whole shuffle, fetches fail
transiently and back off.  Jobs still complete correctly, recovery costs
time, and the retry counters account for every injected fault.
"""

import pytest

from repro.cluster import build_cluster, westmere_cluster
from repro.faults import (
    FaultPlan,
    LinkFlap,
    NodeCrash,
    ResponderStall,
    standard_fault_plan,
)
from repro.mapreduce import run_job, terasort_job
from repro.mapreduce.driver import run_job_on
from repro.sim.core import Simulator

GB = 1024**3
MB = 1024**2

#: Recovery knobs scaled down to these ~1 GB test jobs.
FAST_KNOBS = dict(
    fetch_backoff_base=0.2, fetch_backoff_max=1.5, penalty_box_secs=1.5
)


def run(engine, n_nodes=3, size=1 * GB, seed=1, **overrides):
    conf = terasort_job(size, n_nodes, engine, block_bytes=64 * MB, **overrides)
    return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=seed)


def nodes(n):
    return [f"node{i:02d}" for i in range(n)]


def assert_same_output(clean, faulty):
    a = clean.counters["reduce.output_bytes"]
    b = faulty.counters["reduce.output_bytes"]
    assert b == pytest.approx(a, rel=1e-9), "faulty run lost output bytes"


# ---------------------------------------------------------------------------
# Node crash: map outputs lost, maps re-executed, reduces migrated
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_node_crash_recovered(engine):
    clean = run(engine)
    plan = FaultPlan(
        crashes=(NodeCrash(at=0.55 * clean.execution_time, node="node02"),),
        name="crash-only",
    )
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert faulty.execution_time > clean.execution_time
    c = faulty.counters
    assert c["faults.node_crashes"] == 1
    # The dead node held committed map outputs and running reduces.
    assert c["map.reexecuted"] > 0
    assert c["reduce.node_lost"] > 0
    assert c["reduce.completed"] == faulty.conf.n_reduces


def test_crash_before_any_work_still_completes():
    clean = run("rdma")
    plan = FaultPlan(crashes=(NodeCrash(at=0.01, node="node02"),), name="early")
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)


# ---------------------------------------------------------------------------
# Link flaps: retry/back-off, penalty box, verbs downgrade
# ---------------------------------------------------------------------------


def flap_plan(clean, node="node01", at=0.35, frac=0.25):
    return FaultPlan(
        flaps=(
            LinkFlap(
                at=at * clean.execution_time,
                node=node,
                duration=frac * clean.execution_time,
            ),
        ),
        name="flap-only",
    )


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_link_flap_retries_and_recovers(engine):
    clean = run(engine)
    faulty = run(engine, fault_plan=flap_plan(clean), **FAST_KNOBS)
    assert_same_output(clean, faulty)
    c = faulty.counters
    assert c["faults.link_flaps"] == 1
    assert c["shuffle.retry.attempts"] > 0
    assert c["shuffle.retry.backoff_seconds"] > 0


@pytest.mark.parametrize("engine", ["hadoopa", "rdma"])
def test_link_flap_downgrades_verbs_to_ipoib(engine):
    clean = run(engine)
    # Position the flap well into the shuffle so verbs endpoints exist to
    # tear down (hadoopa's copiers connect only once fetch waves start).
    faulty = run(
        engine,
        fault_plan=flap_plan(clean, at=0.6, frac=0.3),
        verbs_downgrade_after=1,
        **FAST_KNOBS,
    )
    assert_same_output(clean, faulty)
    c = faulty.counters
    assert c["ucr.teardowns"] > 0, "flap must tear down UCR endpoints"
    assert c["ucr.downgrades"] > 0, "repeated verbs failures must degrade to IPoIB"


def test_persistent_flap_hits_penalty_box():
    clean = run("http")
    faulty = run(
        "http",
        fault_plan=flap_plan(clean, frac=0.4),
        fetch_backoff_base=0.05,
        fetch_backoff_max=0.2,
        penalty_box_after=2,
        penalty_box_secs=1.0,
        fetch_retry_limit=50,  # keep retrying instead of condemning the output
    )
    assert_same_output(clean, faulty)
    assert faulty.counters["shuffle.retry.penalty_boxed"] > 0


# ---------------------------------------------------------------------------
# Disk errors and responder stalls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_disk_read_errors_retried(engine):
    clean = run(engine)
    plan = FaultPlan(disk_error_rate=0.25, name="disk-only")
    faulty = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    c = faulty.counters
    assert c["faults.disk_errors"] > 0
    assert c["shuffle.retry.attempts"] >= c["faults.disk_errors"]


def test_responder_stall_delays_but_completes():
    clean = run("rdma")
    plan = FaultPlan(
        stalls=(
            # A wide window: rdma's request waves are bursty, so a narrow
            # stall can fall entirely between them and never be observed.
            ResponderStall(
                at=0.2 * clean.execution_time,
                node="node01",
                duration=0.5 * clean.execution_time,
            ),
        ),
        name="stall-only",
    )
    faulty = run("rdma", fault_plan=plan, **FAST_KNOBS)
    assert_same_output(clean, faulty)
    assert faulty.counters["faults.responder_stalls"] > 0


# ---------------------------------------------------------------------------
# The standard chaos plan, and the no-fault transparency invariant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_standard_plan_deterministic(engine):
    clean = run(engine)
    plan = standard_fault_plan(nodes(3), clean.execution_time)
    a = run(engine, fault_plan=plan, **FAST_KNOBS)
    b = run(engine, fault_plan=plan, **FAST_KNOBS)
    assert a.counters == b.counters
    assert a.execution_time == b.execution_time


def test_no_plan_leaves_no_fault_footprint():
    result = run("rdma")
    fault_keys = [
        k
        for k in {**result.counters, **result.metrics}
        if k.startswith(("faults.", "shuffle.retry.", "ucr."))
        or k in ("map.reexecuted", "map.lost_outputs", "reduce.node_lost")
    ]
    assert fault_keys == [], f"fault-free run leaked fault keys: {fault_keys}"


@pytest.mark.parametrize("plan", [None, FaultPlan()])
def test_no_plan_injector_is_inert(monkeypatch, plan):
    spawned = []
    spawn = Simulator.process

    def recording(sim, gen, *args, **kwargs):
        proc = spawn(sim, gen, *args, **kwargs)
        spawned.append(proc.name)
        return proc

    monkeypatch.setattr(Simulator, "process", recording)
    cluster = build_cluster(westmere_cluster(3), "ipoib", seed=1)
    conf = terasort_job(1 * GB, 3, "rdma", block_bytes=64 * MB, fault_plan=plan)
    result = run_job_on(cluster, conf)
    assert spawned, "the recorder saw no process at all"
    assert cluster.faults.plan.empty
    assert not cluster.faults.active
    assert [n for n in spawned if n.startswith("fault-")] == []
    leaked = [
        k
        for k in {**result.counters, **result.metrics}
        if k.startswith(("faults.", "ucr."))
    ]
    assert leaked == []


def test_empty_plan_matches_no_plan():
    a = run("http")
    b = run("http", fault_plan=None)
    c = run("http", fault_plan=FaultPlan())
    assert a.counters == b.counters == c.counters
    assert a.execution_time == b.execution_time == c.execution_time


def test_plan_crashing_every_node_rejected():
    plan = FaultPlan(
        crashes=tuple(NodeCrash(at=1.0, node=n) for n in nodes(2)),
        name="doomed",
    )
    with pytest.raises(ValueError, match="crashes every node"):
        run("http", n_nodes=2, fault_plan=plan)


# ---------------------------------------------------------------------------
# Rate-based injection (FaultPlan map/reduce/fetch failure rates)
# ---------------------------------------------------------------------------

#: FaultPlan fields; every other keyword is a JobConf override.
RATES = (
    "map_failure_rate",
    "reduce_failure_rate",
    "fetch_failure_rate",
    "fetch_retry_delay",
)


def run_rated(engine, size=1 * GB, n_nodes=2, seed=0, **overrides):
    rates = {k: overrides.pop(k) for k in RATES if k in overrides}
    conf = terasort_job(
        size, n_nodes, engine, fault_plan=FaultPlan(**rates), **overrides
    )
    return run_job(westmere_cluster(n_nodes), "ipoib", conf, seed=seed)


def test_rate_validation():
    for field in ("map_failure_rate", "reduce_failure_rate"):
        FaultPlan(**{field: 1.0})  # a certain failure is a valid plan
        with pytest.raises(ValueError, match=rf"{field} -0.1 not in \[0, 1\]"):
            FaultPlan(**{field: -0.1})
        with pytest.raises(ValueError, match=rf"{field} 1.5 not in \[0, 1\]"):
            FaultPlan(**{field: 1.5})
    # A certain fetch failure would retry forever: rejected, never run.
    with pytest.raises(ValueError, match=r"fetch_failure_rate 1.0 not in \[0, 1\)"):
        FaultPlan(fetch_failure_rate=1.0)
    with pytest.raises(ValueError, match=r"fetch_failure_rate -0.5 not in"):
        FaultPlan(fetch_failure_rate=-0.5)
    for delay in (0.0, -1.0):
        with pytest.raises(ValueError, match="non-positive fetch_retry_delay"):
            FaultPlan(fetch_retry_delay=delay)


# ---------------------------------------------------------------------------
# Map failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "rdma"])
def test_map_failures_recovered(engine):
    result = run_rated(engine, size=2 * GB, map_failure_rate=0.3)
    assert result.counters.get("map.failed_attempts", 0) > 0
    # Every map still completed exactly once.
    assert result.counters["map.completed"] == result.conf.n_maps
    assert result.counters["reduce.completed"] == result.conf.n_reduces


def test_map_failures_cost_time():
    clean = run_rated("rdma", size=2 * GB)
    # Generous attempt budget: with rate 0.4 a 4-strikes-out is plausible.
    faulty = run_rated("rdma", size=2 * GB, map_failure_rate=0.4, max_task_attempts=10)
    assert faulty.execution_time > clean.execution_time


def test_map_failure_rate_zero_injects_nothing():
    result = run_rated("rdma", map_failure_rate=0.0)
    assert result.counters.get("map.failed_attempts", 0) == 0


def test_map_failures_deterministic():
    a = run_rated("rdma", size=2 * GB, map_failure_rate=0.3)
    b = run_rated("rdma", size=2 * GB, map_failure_rate=0.3)
    assert a.counters == b.counters
    assert a.execution_time == b.execution_time


def test_unrecoverable_map_aborts_job():
    with pytest.raises(RuntimeError, match="exceeded"):
        run_rated("rdma", map_failure_rate=1.0, max_task_attempts=2)


# ---------------------------------------------------------------------------
# Reduce failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_reduce_failures_recovered(engine):
    result = run_rated(engine, size=2 * GB, reduce_failure_rate=0.35, seed=3)
    assert result.counters.get("reduce.failed_attempts", 0) > 0
    assert result.counters["reduce.completed"] == result.conf.n_reduces
    # The successful attempts wrote at least the full dataset (failed
    # attempts may have written partial output on top).
    assert result.counters["reduce.output_bytes"] >= result.conf.data_bytes * 0.999


def test_reduce_failures_cost_time():
    clean = run_rated("rdma", size=2 * GB)
    faulty = run_rated("rdma", size=2 * GB, reduce_failure_rate=0.5, seed=5)
    assert faulty.counters.get("reduce.failed_attempts", 0) > 0
    assert faulty.execution_time > clean.execution_time


# ---------------------------------------------------------------------------
# Transient fetch failures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ["http", "hadoopa", "rdma"])
def test_fetch_retries_recovered(engine):
    result = run_rated(engine, size=2 * GB, fetch_failure_rate=0.05)
    assert result.counters.get("shuffle.fetch_retries", 0) > 0
    assert result.counters["shuffle.bytes"] == pytest.approx(
        result.counters["map.output_bytes"], rel=1e-6
    )


def test_fetch_retries_cost_time():
    clean = run_rated("http", size=2 * GB)
    flaky = run_rated(
        "http", size=2 * GB, fetch_failure_rate=0.10, fetch_retry_delay=10.0
    )
    assert flaky.execution_time > clean.execution_time


def test_combined_fault_storm_still_completes():
    result = run_rated(
        "rdma",
        size=2 * GB,
        map_failure_rate=0.2,
        reduce_failure_rate=0.2,
        fetch_failure_rate=0.03,
        seed=11,
    )
    assert result.counters["map.completed"] == result.conf.n_maps
    assert result.counters["reduce.completed"] == result.conf.n_reduces
