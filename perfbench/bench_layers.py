"""Layer map and per-layer metrics for the traced run.

A layer is named after the ``src/repro`` module (or package) it covers.
Self time comes from ``cProfile`` installed by the benchmark around each
job; no code under ``src/`` is touched.  Self time of a Python function
goes to the layer of its module.  Self time of a C builtin, or of code
with no source file (dataclass-generated ``__init__`` and friends), goes
to the layer of its caller, except ``heapq``, which keeps its own row.
Time that lands in no layer (the benchmark's own code, the profiler's
own calls, the unmeasured modules) is reported as unattributed.

Counts come from ``JobResult.metrics`` and ``JobResult.counters`` of the
jobs that completed, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import os
import sysconfig
from collections import defaultdict
from pathlib import Path

#: Module (or package) -> layer.  A module resolves to the entry for its
#: longest dotted prefix.  Packages are listed whole only where the whole
#: package is one layer; elsewhere every module is listed, so a new
#: module must be placed by hand (the self-test enforces it).
LAYER_OF_MODULE = {
    "repro.sim": "sim.core",
    "repro.sim.core": "sim.core",
    "repro.sim.rng": "sim.core",
    "repro.sim.resources": "sim.resources",
    "repro.sim.monitor": "sim.monitor",
    "repro.network": "network.flows",
    "repro.network.flows": "network.flows",
    "repro.network.transports": "network.transports",
    "repro.network.fabric": "network.transports",
    "repro.storage": "storage",
    "repro.hdfs": "hdfs",
    "repro.ucr": "ucr",
    "repro.cluster": "cluster",
    "repro.workloads": "workloads",
    "repro.core": "core.merge",
    "repro.core.merge": "core.merge",
    "repro.core.virtualmerge": "core.virtualmerge",
    "repro.core.packets": "core.packets",
    "repro.core.protocol": "core.packets",
    "repro.core.cache": "core.cache",
    "repro.mapreduce.shuffle": "shuffle.base",
    "repro.mapreduce.shuffle.base": "shuffle.base",
    "repro.mapreduce.shuffle.http": "shuffle.http",
    "repro.mapreduce.shuffle.levitated": "shuffle.levitated",
    "repro.mapreduce.shuffle.hadoopa": "shuffle.levitated",
    "repro.mapreduce.shuffle.rdma": "shuffle.levitated",
    "repro.mapreduce.shuffle.prefetch": "shuffle.prefetch",
    "repro.mapreduce": "mapreduce.tasks",
    "repro.mapreduce.job": "mapreduce.tasks",
    "repro.mapreduce.costs": "mapreduce.tasks",
    "repro.mapreduce.context": "mapreduce.tasks",
    "repro.mapreduce.tasktracker": "mapreduce.tasks",
    "repro.mapreduce.maptask": "mapreduce.tasks",
    "repro.mapreduce.jobtracker": "mapreduce.jobtracker",
    "repro.mapreduce.driver": "mapreduce.jobtracker",
    "repro.mapreduce.speculation": "mapreduce.speculation",
    "repro.mapreduce.journal": "mapreduce.journal",
    "repro.control": "control",
    "repro.integrity": "integrity",
    "repro.faults": "faults",
    "repro.obs": "obs",
}

#: Deliberately unmeasured: functional code no optimisation item
#: targets (the functional engine, experiment drivers, the sweep
#: executor and offline tools).  Their self time, like that of the empty
#: ``repro`` package marker, is reported as unattributed.
UNMEASURED = ("repro.engine", "repro.experiments", "repro.parallel", "repro.tools")

#: Layers outside ``src/repro``.
HEAPQ = "heapq"
STDLIB = "stdlib"  # the standard library plus third-party packages (numpy)

#: Every layer with a ``<layer>.self_s`` metric, in report order.
LAYERS = (
    "sim.core",
    "sim.resources",
    "sim.monitor",
    "network.flows",
    "network.transports",
    HEAPQ,
    STDLIB,
    "storage",
    "hdfs",
    "cluster",
    "workloads",
    "ucr",
    "shuffle.base",
    "shuffle.http",
    "shuffle.levitated",
    "shuffle.prefetch",
    "core.virtualmerge",
    "core.merge",
    "core.packets",
    "core.cache",
    "mapreduce.jobtracker",
    "mapreduce.tasks",
    "control",
    "mapreduce.speculation",
    "integrity",
    "faults",
    "mapreduce.journal",
    "obs",
)

#: Per-layer count metrics (besides ``<layer>.self_s``) and their units.
COUNT_UNITS = {
    "job_host_s.http": "s",
    "job_host_s.hadoopa": "s",
    "job_host_s.rdma": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "net.flows_started": "count",
    "net.rerates": "count",
    "net.rerate_touched_flows": "count",
    "net.touched_per_change": "ratio",
    "net.fastpath_share": "ratio",
    "net.dead_wakeups": "count",
    "disk.requests": "count",
    "disk.seeks": "count",
    "disk.busy_sim_s": "s",
    "shuffle.bytes": "bytes",
    "shuffle.spill.runs": "count",
    "shuffle.spill.bytes": "bytes",
    "shuffle.backpressure.mem_stalls": "count",
    "shuffle.backpressure.credit_waits": "count",
    "shuffle.mem.high_water_over_budget": "ratio",
    "cache.hit_ratio": "ratio",
    "task.attempts_per_task": "ratio",
    "control.retunes": "count",
    "speculation.win_ratio": "ratio",
    "integrity.recovered_ratio": "ratio",
    "master.epochs": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


def is_unmeasured(module: str) -> bool:
    """True for the package marker and modules under :data:`UNMEASURED`."""
    return module == "repro" or any(
        module == u or module.startswith(u + ".") for u in UNMEASURED
    )


def layer_of_module(module: str) -> str | None:
    """The layer of a dotted ``repro`` module, or None if unmeasured/unknown."""
    parts = module.split(".")
    for n in range(len(parts), 0, -1):
        prefix = ".".join(parts[:n])
        if prefix in LAYER_OF_MODULE:
            return LAYER_OF_MODULE[prefix]
    return None


class LayerResolver:
    """Maps a profiled code object's filename to a layer (cached)."""

    def __init__(self, src_root: Path):
        self._src = str(src_root.resolve()) + os.sep
        paths = sysconfig.get_paths()
        self._libs = tuple(
            str(Path(paths[k]).resolve()) + os.sep for k in ("stdlib", "purelib", "platlib")
        )
        self._cache: dict[str, str | None] = {}

    def __call__(self, filename: str) -> str | None:
        try:
            return self._cache[filename]
        except KeyError:
            layer = self._cache[filename] = self._resolve(filename)
            return layer

    def _resolve(self, filename: str) -> str | None:
        if filename.startswith("<frozen"):
            return STDLIB
        path = str(Path(filename).resolve())
        if path.startswith(self._src):
            module = path[len(self._src) : -len(".py")].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            return layer_of_module(module)
        if os.path.basename(path) == "heapq.py":
            return HEAPQ
        if path.startswith(self._libs):
            return STDLIB
        return None


def _is_callee_charged(code) -> bool:
    """Builtins and source-less code are charged to their caller."""
    return isinstance(code, str) or (
        code.co_filename.startswith("<") and not code.co_filename.startswith("<frozen")
    )


def self_time_by_layer(stats, resolve: LayerResolver) -> tuple[dict[str, float], float]:
    """Group ``cProfile.Profile.getstats()`` self time by layer.

    Returns ``(seconds per layer, unattributed seconds)``.
    """
    # callee code -> [(caller code, self time spent while called from it)]
    callers: dict[object, list[tuple[object, float]]] = defaultdict(list)
    for entry in stats:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.inlinetime))

    owner_memo: dict[object, dict[str | None, float]] = {}

    def owners(code, seen=()) -> dict[str | None, float]:
        """Layer shares of whoever ``code``'s time is charged to."""
        if code in owner_memo:
            return owner_memo[code]
        if not _is_callee_charged(code):
            share = {resolve(code.co_filename): 1.0}
        elif code in seen:
            share = {None: 1.0}
        else:
            weights: dict[str | None, float] = defaultdict(float)
            for caller, t in callers.get(code, ()):
                for layer, frac in owners(caller, seen + (code,)).items():
                    weights[layer] += t * frac
            total = sum(weights.values())
            share = {k: v / total for k, v in weights.items()} if total > 0 else {None: 1.0}
        owner_memo[code] = share
        return share

    by_layer: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for entry in stats:
        code = entry.code
        if isinstance(code, str) and "_heapq." in code:
            by_layer[HEAPQ] += entry.inlinetime
            continue
        for layer, frac in owners(code).items():
            if layer is None:
                unattributed += entry.inlinetime * frac
            else:
                by_layer[layer] += entry.inlinetime * frac
    return dict(by_layer), unattributed


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def count_metrics(records) -> dict[str, float]:
    """Per-layer counts summed over the completed jobs of one round.

    ``sim.events`` covers every job, failed ones too (the simulator's
    own counter); every other count needs a ``JobResult``.
    """
    results = [r.result for r in records if r.result is not None]
    counters = [res.counters for res in results]
    metrics = [res.metrics for res in results]

    def csum(key: str) -> float:
        return sum(c.get(key, 0.0) for c in counters)

    def msum(key: str) -> float:
        return sum(m.get(key, 0.0) for m in metrics)

    def disk_sum(suffix: str) -> float:
        """Sum of a per-disk metric (``disk.<node>.<disk>.<suffix>``)."""
        return sum(v for m in metrics for k, v in m.items() if k.startswith("disk.") and k.endswith(suffix))

    hits, misses = csum("cache.hits"), csum("cache.misses")
    attempts = sum(len(res.task_spans) for res in results)
    tasks = sum(res.conf.n_maps + res.conf.n_reduces for res in results)
    over_budget = max(
        (
            res.counters.get("shuffle.mem.high_water_bytes", 0.0)
            / (res.conf.costs.task_heap_bytes * res.conf.shuffle_input_buffer_percent)
            for res in results
        ),
        default=0.0,
    )
    backups = csum("speculation.map_backups") + csum("speculation.reduce_backups")
    return {
        "sim.events": float(sum(r.events for r in records)),
        "net.flows_started": msum("net.flows_started"),
        "net.rerates": msum("net.rerates"),
        "net.rerate_touched_flows": msum("net.rerate_touched_flows"),
        "net.touched_per_change": _ratio(msum("net.rerate_touched_flows"), msum("net.changes")),
        "net.fastpath_share": _ratio(msum("net.fastpath_rerates"), msum("net.rerates")),
        "net.dead_wakeups": msum("net.dead_wakeups"),
        "disk.requests": disk_sum(".requests"),
        "disk.seeks": disk_sum(".seeks"),
        "disk.busy_sim_s": disk_sum(".busy_seconds"),
        "shuffle.bytes": csum("shuffle.bytes"),
        "shuffle.spill.runs": csum("shuffle.spill.runs"),
        "shuffle.spill.bytes": csum("shuffle.spill.bytes"),
        "shuffle.backpressure.mem_stalls": csum("shuffle.backpressure.mem_stalls"),
        "shuffle.backpressure.credit_waits": csum("shuffle.backpressure.credit_waits"),
        "shuffle.mem.high_water_over_budget": over_budget,
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "task.attempts_per_task": _ratio(attempts, tasks),
        "control.retunes": csum("control.retunes"),
        "speculation.win_ratio": _ratio(csum("speculation.wins"), backups),
        "integrity.recovered_ratio": _ratio(
            csum("integrity.recovered"), csum("integrity.detected")
        ),
        "master.epochs": csum("master.epochs"),
    }
