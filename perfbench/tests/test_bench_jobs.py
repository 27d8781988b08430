"""Self-tests of the job harness, the metrics and BENCHMARK.json."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

import bench_workloads
import pytest
import run
from bench_jobs import (
    GB,
    JobRecord,
    check_repeats,
    output_errors,
    paper_gap_pp,
    run_job,
    sorted_gb_per_min,
)
from bench_workloads import WORKLOADS, paper_claims
from repro.cluster import build_cluster
from repro.cluster.presets import westmere_cluster
from repro.mapreduce.job import terasort_job

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny_job(deadline_s: float) -> JobRecord:
    cluster = build_cluster(westmere_cluster(2), "ipoib", seed=0)
    conf = terasort_job(256 * (1 << 20), 2, "rdma")
    return run_job(cluster, conf, seed=0, deadline_s=deadline_s, budget_s=60.0)


def test_watchdog_fails_job_past_its_deadline():
    done = _tiny_job(deadline_s=1e6)
    assert done.ok and done.sim_s > 1.0 and not done.errors
    late = _tiny_job(deadline_s=done.sim_s / 2)
    assert late.status == "deadline"
    assert late.sim_s is None and late.result is None and late.host_s > 0


def test_watchdog_leaves_the_model_outputs_unchanged():
    from repro.mapreduce.driver import run_job as plain_run_job

    plain = plain_run_job(westmere_cluster(2), "ipoib", terasort_job(256 * (1 << 20), 2, "rdma"))
    watched = _tiny_job(deadline_s=1e6)
    assert watched.sim_s == plain.execution_time
    assert watched.result.counters == plain.counters


def _record(ok: bool, host_s: float, data_gb: float = 1.0) -> JobRecord:
    return JobRecord(
        engine="http", seed=0, data_bytes=data_gb * GB, host_s=host_s, status="ok" if ok else "deadline"
    )


def test_failed_job_adds_host_time_and_no_gigabytes():
    ok = _record(True, host_s=10.0)
    assert sorted_gb_per_min([ok]) == pytest.approx(6.0)
    assert sorted_gb_per_min([ok, _record(False, host_s=5.0)]) == pytest.approx(4.0)


def test_fingerprint_drift_fails_the_repeat():
    a, b = _record(True, 1.0), _record(True, 1.0)
    a.fingerprint, b.fingerprint = "aaaa", "bbbb"
    problems = check_repeats([a, b])
    assert len(problems) == 1 and a.ok and b.status == "check"


def test_output_checks_catch_lost_bytes():
    conf = terasort_job(GB, 2, "http")
    good = SimpleNamespace(counters={"reduce.output_bytes": float(GB), "map.output_bytes": float(GB), "shuffle.bytes": float(GB)})
    assert output_errors(conf, good) == []
    short = SimpleNamespace(counters={**good.counters, "reduce.output_bytes": GB - 100.0})
    unshuffled = SimpleNamespace(counters={**good.counters, "shuffle.bytes": GB / 2})
    assert len(output_errors(conf, short)) == 1
    assert len(output_errors(conf, unshuffled)) == 1
    # Backup reducers re-fetch what the losing attempt already fetched.
    assert output_errors(conf.scaled(speculative_reduces=True), unshuffled) == []


def test_paper_claims_are_read_from_the_table(monkeypatch):
    fig4a = paper_claims(WORKLOADS["terasort-4n"])
    assert fig4a == [("rdma", "hadoopa", 0.09), ("rdma", "http", 0.35)]
    monkeypatch.setitem(
        bench_workloads.PAPER_CLAIMS, "fig4a", [(30, "OSU-IB (32Gbps)-1disk", "IPoIB (32Gbps)-1disk", 0.5)]
    )
    assert paper_claims(WORKLOADS["terasort-4n"]) == [("rdma", "http", 0.5)]
    sim_s = {("rdma", 0): 50.0, ("http", 0): 100.0}
    assert paper_gap_pp(sim_s, [0], paper_claims(WORKLOADS["terasort-4n"])) == pytest.approx(0.0)


def test_every_workload_has_claims():
    for workload in WORKLOADS.values():
        assert paper_claims(workload), workload.name


def _emitted() -> dict[str, dict[str, str]]:
    return {"end_to_end": run.E2E_UNITS, "per_layer": run.LAYER_UNITS}


def test_metric_names_are_well_formed():
    for names in _emitted().values():
        for name in names:
            assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_matches_the_emitted_metrics_and_workloads():
    spec = json.loads(BENCHMARK_JSON.read_text())
    for section, emitted in _emitted().items():
        assert {m["name"]: m["unit"] for m in spec[section]} == emitted
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
