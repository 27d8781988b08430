"""Simulator benchmark: per-engine TeraSort host throughput on three workloads.

    python3 perfbench/run.py --workload terasort-4n --seed 0 --seconds 15 --trace 0

Runs the workload's jobs serially in this process (one job per shuffle
engine per derived seed, repeated in cycles until ``--seconds`` of host
time have passed), checks every job's output, prints one line per job
(simulated seconds and fingerprint are model outputs that a pure
speed-up must leave bit-identical) and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one ``cProfile``-traced round and reports the per-layer
metrics instead.  See NOTES.md for the workloads and metric definitions.
Exits 1 without a result line if the program source is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__" and not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: program source not found under {SRC}")
# The program under test is this checkout's source tree.
sys.path.insert(0, str(SRC))

from bench_jobs import (  # noqa: E402
    SpeedProbe,
    check_repeats,
    paper_gap_pp,
    run_job,
    sorted_gb_per_min,
)
from bench_layers import (  # noqa: E402
    COUNT_UNITS,
    LAYERS,
    LayerResolver,
    count_metrics,
    self_time_by_layer,
)
from bench_workloads import ENGINES, WORKLOADS, paper_claims  # noqa: E402

#: Host seconds after which no further job is started and a running one
#: is abandoned, so a run always ends well inside three minutes.
RUN_BUDGET_S = 150.0
#: Fresh-process set-up measurements per run (median reported).
SETUP_PROBES = 3

#: Per-layer metrics (``--trace 1``) and their units.
LAYER_UNITS = {**COUNT_UNITS, **{f"{layer}.self_s": "s" for layer in LAYERS}}
#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "sorted_gb_per_min": "GB/min",
    "job_success_ratio": "ratio",
    "paper_gap_pp": "pp",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup(workload: str, seed: int) -> float:
    """Median cold set-up time over :data:`SETUP_PROBES` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "bench_setup.py"), "--workload", workload, "--seed", str(seed)],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


class Runner:
    """Runs a workload's jobs under the run's host budget."""

    def __init__(self, workload, start: float):
        self.workload = workload
        self.start = start
        self.probe = SpeedProbe()

    def budget_left(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def job(self, engine: str, seed: int, profiler=None, keep_result: bool = False):
        """Run one job; drop its ``JobResult`` unless ``keep_result``."""
        w = self.workload
        # Free the previous job's simulation first, so that its garbage
        # cycles do not count towards this job's peak memory.
        gc.collect()
        self.probe.sample()
        record = run_job(
            w.cluster(seed), w.conf(engine), seed, w.deadline_s, self.budget_left(), profiler
        )
        print(record.describe(), flush=True)
        if not keep_result:
            record.result = None
        return record

    def round(self, seed: int, profile: bool = False, keep_results: bool = False):
        """One job per engine; with ``profile``, each under its own profiler."""
        out = []
        for engine in ENGINES:
            if self.budget_left() <= 0:
                break
            profiler = cProfile.Profile() if profile else None
            out.append((self.job(engine, seed, profiler, keep_results), profiler))
        return out


def end_to_end(args, runner: Runner) -> tuple[list, dict[str, float], list[str]]:
    w = runner.workload
    seeds = w.sub_seeds(args.seed)
    setup_s = measure_setup(w.name, args.seed)

    rounds: list[list] = []
    t0 = time.perf_counter()
    cycles = 0
    while runner.budget_left() > 0 and (cycles == 0 or time.perf_counter() - t0 < args.seconds):
        for seed in seeds:
            rounds.append([r for r, _ in runner.round(seed)])
        cycles += 1
    timed = [r for rnd in rounds for r in rnd]
    # A run of a single cycle repeats one job, untimed, so that every run
    # checks that fingerprints repeat; the engine rotates with the seed.
    repeat = []
    if cycles == 1 and runner.budget_left() > 0:
        repeat.append(runner.job(ENGINES[args.seed % len(ENGINES)], seeds[0]))
    problems = check_repeats(timed + repeat)
    scale = runner.probe.scale()

    # A job that missed its deadline (or never ran) is timed at the deadline.
    sim_s = dict.fromkeys(((e, s) for s in seeds for e in ENGINES), w.deadline_s)
    for r in timed[: len(seeds) * len(ENGINES)]:
        if r.sim_s is not None:
            sim_s[r.engine, r.seed] = r.sim_s
    def median_gb_per_min(scale: float) -> float:
        return statistics.median(sorted_gb_per_min(rnd, scale) for rnd in rounds if rnd)

    metrics = {
        "sorted_gb_per_min": median_gb_per_min(scale),
        "job_success_ratio": statistics.median(sum(r.ok for r in rnd) / len(rnd) for rnd in rounds if rnd),
        "paper_gap_pp": paper_gap_pp(sim_s, seeds, paper_claims(w)),
        "setup_s": scale * setup_s,
        "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in rnd) for rnd in rounds if rnd),
    }
    failed = sum(not r.ok for r in timed)
    print(
        f"cycles={cycles} timed_jobs={len(timed)} job_failure_ratio={failed / len(timed):.4f} "
        f"raw (not normalised): sorted_gb_per_min={median_gb_per_min(1.0):.4f} "
        f"over all jobs={sorted_gb_per_min(timed):.4f} setup_s={setup_s:.4f} "
        f"(median of {SETUP_PROBES} fresh processes); host-time scale={scale:.4f}",
        flush=True,
    )
    return timed + repeat, metrics, problems


def per_layer(args, runner: Runner) -> tuple[list, dict[str, float], list[str]]:
    seed = runner.workload.sub_seeds(args.seed)[0]
    plain = [r for r, _ in runner.round(seed, keep_results=True)]
    traced = runner.round(seed, profile=True)
    problems = check_repeats(plain + [r for r, _ in traced])
    scale = runner.probe.scale()
    print(f"host-time scale={scale:.4f}", flush=True)

    resolve = LayerResolver(SRC)
    totals = dict.fromkeys(LAYERS, 0.0)
    unattributed = 0.0
    for record, profiler in traced:
        by_layer, rest = self_time_by_layer(profiler.getstats(), resolve)
        for layer, secs in by_layer.items():
            totals[layer] += secs
        unattributed += rest
        top = sorted(by_layer.items(), key=lambda kv: -kv[1])[:8]
        print(
            f"self time {record.engine}: "
            + ", ".join(f"{k} {v:.2f}s" for k, v in top)
            + f", unattributed {rest:.2f}s",
            flush=True,
        )

    plain_host = sum(r.host_s for r in plain)
    metrics = count_metrics(plain)
    metrics["sim.events_per_s"] = metrics["sim.events"] / (scale * plain_host)
    for r in plain:
        metrics[f"job_host_s.{r.engine}"] = scale * r.host_s
    metrics["trace.overhead_ratio"] = sum(r.host_s for r, _ in traced) / plain_host
    traced_self = sum(totals.values()) + unattributed
    metrics["trace.unattributed_share"] = unattributed / traced_self if traced_self else 0.0
    for layer, secs in totals.items():
        metrics[f"{layer}.self_s"] = scale * secs
    return plain + [r for r, _ in traced], metrics, problems


def main(argv: list[str] | None = None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description="Simulator TeraSort benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(WORKLOADS[args.workload], start)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}", flush=True)
    if args.trace:
        records, metrics, problems = per_layer(args, runner)
        units = LAYER_UNITS
    else:
        records, metrics, problems = end_to_end(args, runner)
        units = E2E_UNITS
    for p in problems:
        print(f"check failed: {p}", flush=True)
    correct = not problems and all(r.status != "check" for r in records)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
