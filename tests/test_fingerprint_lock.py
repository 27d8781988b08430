"""Fingerprint lock: a fixed matrix of small jobs whose outcomes must not move.

Each row runs one TeraSort job (1 GB on 3 nodes, 64 MB blocks, seed 1) for
one shuffle engine under one robustness configuration, and compares it
against ``benchmarks/baselines/FINGERPRINTS.json``:

* gated: the job's status, its simulated ``execution_time`` and the
  perfbench fingerprint (a hash of the execution time and every counter);
* recorded, not gated: ``sim.events``, the kernel's event count, which a
  change to the process structure moves without moving any outcome.

A change that claims "same behaviour for less code" leaves every row
as it is.  A change that moves a row on purpose rewrites the file and says
in CHANGES.md which rows moved and why.  Regenerate the file with::

    PYTHONPATH=src python tests/test_fingerprint_lock.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.bench_jobs import fingerprint, output_errors  # noqa: E402
from repro.cluster import westmere_cluster  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultPlan,
    standard_corruption_plan,
    standard_fault_plan,
    standard_master_plan,
    standard_slowdown_plan,
)
from repro.mapreduce import run_job, terasort_job  # noqa: E402

LOCK_FILE = ROOT / "benchmarks" / "baselines" / "FINGERPRINTS.json"

GB = 1 << 30
MB = 1 << 20
N_NODES = 3
SEED = 1
ENGINES = ("http", "hadoopa", "rdma")
NODES = [f"node{i:02d}" for i in range(N_NODES)]

#: Row name -> JobConf overrides, given the engine's plan-free runtime
#: (the ``runtime_hint`` the standard plans scale their windows by).
ROWS: dict[str, Callable[[float], dict[str, Any]]] = {
    "no-plan": lambda hint: {},
    "checksums": lambda hint: {"integrity_checksums": True},
    "standard-faults": lambda hint: {
        "fault_plan": standard_fault_plan(NODES, hint)
    },
    "corruption": lambda hint: {"fault_plan": standard_corruption_plan(NODES)},
    "slowdown": lambda hint: {"fault_plan": standard_slowdown_plan(NODES, hint)},
    "master": lambda hint: {"fault_plan": standard_master_plan(NODES, hint)},
    "speculation": lambda hint: {
        "speculative_execution": True,
        "speculative_reduces": True,
    },
    "control-checksums": lambda hint: {
        "control_interval": 1.0,
        "integrity_checksums": True,
    },
    "map-failure-rate": lambda hint: {"fault_plan": FaultPlan(map_failure_rate=0.3)},
    "reduce-failure-rate": lambda hint: {
        "fault_plan": FaultPlan(reduce_failure_rate=0.35)
    },
    "fetch-failure-rate": lambda hint: {
        "fault_plan": FaultPlan(fetch_failure_rate=0.05)
    },
}


def run_row(engine: str, row: str) -> dict[str, Any]:
    """Run one matrix row and summarise it the way the lock file does."""
    overrides = ROWS[row](plan_free_runtime(engine))
    conf = terasort_job(1 * GB, N_NODES, engine, block_bytes=64 * MB, **overrides)
    try:
        result = run_job(westmere_cluster(N_NODES), "ipoib", conf, seed=SEED)
    except Exception as exc:  # a row may lock in a failure, too
        return {"status": f"error: {type(exc).__name__}: {exc}"}
    return {
        "status": "check" if output_errors(conf, result) else "ok",
        "execution_time": result.execution_time,
        "fingerprint": fingerprint(result),
        "events": result.metrics.get("sim.events"),
    }


@functools.lru_cache(maxsize=None)
def plan_free_runtime(engine: str) -> float:
    conf = terasort_job(1 * GB, N_NODES, engine, block_bytes=64 * MB)
    return run_job(westmere_cluster(N_NODES), "ipoib", conf, seed=SEED).execution_time


def row_ids() -> list[str]:
    return [f"{engine}/{row}" for engine in ENGINES for row in ROWS]


def load_lock() -> dict[str, dict[str, Any]]:
    return json.loads(LOCK_FILE.read_text())["rows"]


@pytest.mark.parametrize("row_id", row_ids())
def test_row_matches_lock(row_id):
    locked = load_lock()[row_id]
    engine, row = row_id.split("/", 1)
    got = run_row(engine, row)
    gated = ("status", "execution_time", "fingerprint")
    assert {k: got.get(k) for k in gated} == {k: locked.get(k) for k in gated}


def test_lock_covers_the_matrix():
    assert sorted(load_lock()) == sorted(row_ids())


def write_lock() -> None:
    rows = {}
    for row_id in row_ids():
        engine, row = row_id.split("/", 1)
        rows[row_id] = run_row(engine, row)
        print(row_id, rows[row_id])
    doc = {
        "about": (
            "Fingerprint lock of tests/test_fingerprint_lock.py: TeraSort, "
            "1 GB, 3 nodes, 64 MB blocks, seed 1.  Gated: status, "
            "execution_time, fingerprint.  Recorded only: events."
        ),
        "rows": rows,
    }
    LOCK_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_fingerprint_lock.py --write")
    write_lock()
