"""Map task execution (read split -> map -> sort -> spill -> merge).

Reproduces the 0.20.2 map side: the split is consumed in ``io.sort.mb *
sort.spill.percent`` units; each unit is read from HDFS (short-circuit
local in the common case), mapped, sorted, and spilled to a local spill
file.  Multi-spill maps pay a final merge pass (read every spill, merge,
write the final partitioned output file) — for the paper's tuning
(256 MB blocks, 100 MB sort buffer) that pass exists and matters, which
is exactly why the multi-disk configurations help the map phase too.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.core.protocol import MapOutputMeta
from repro.hdfs.block import Block
from repro.mapreduce.context import JobContext
from repro.mapreduce.tasktracker import TaskTracker
from repro.sim.core import Event, Interrupted

__all__ = ["TaskFailure", "run_map_task"]


class TaskFailure(Exception):
    """A task attempt died (simulated fault injection).

    The JobTracker catches this and reschedules the attempt, reproducing
    Hadoop's retry-up-to-``mapred.map.max.attempts`` recovery — the
    failure-handling extension the paper lists as future work (§VI).
    """

    def __init__(self, task: str, attempt: int):
        super().__init__(f"{task} attempt {attempt} failed")
        self.task = task
        self.attempt = attempt


def map_output_file_name(map_id: int) -> str:
    return f"mapout/m{map_id}"


def _partition_sizes(
    total_bytes: float, avg_pair: float, n_reduces: int, skew: float = 0.0
) -> tuple[tuple[float, int], ...]:
    """Partitioning of a map's output across reducers.

    Hash partitioning of uniformly random keys is balanced in expectation;
    we keep it exactly balanced for determinism (per-partition jitter is
    dwarfed by per-node totals at the evaluated scales).  With
    ``partition_skew`` set, partition ``i`` instead gets a Zipf-like
    weight ``(i + 1) ** -skew`` — the adversarial hot-reducer shape the
    backpressure/spill machinery is stress-tested against.
    """
    if skew > 0 and n_reduces > 1 and total_bytes > 0:
        weights = [(i + 1.0) ** -skew for i in range(n_reduces)]
        norm = total_bytes / sum(weights)
        out = []
        for w in weights:
            size = w * norm
            out.append((size, max(1, int(round(size / avg_pair)))))
        return tuple(out)
    per = total_bytes / n_reduces
    pairs = max(1, int(round(per / avg_pair))) if per > 0 else 0
    return tuple((per, pairs) for _ in range(n_reduces))


def run_map_task(
    ctx: JobContext, tt: TaskTracker, map_id: int, block: Block, attempt: int = 0
) -> Generator[Event, Any, MapOutputMeta]:
    """The full lifecycle of one MapTask attempt on ``tt``'s node.

    Raises :class:`TaskFailure` when fault injection kills this attempt
    (after the work done up to the failure point has been spent).
    """
    sim = ctx.sim
    node = tt.node
    conf = ctx.conf
    cost = conf.costs
    jitter = ctx.jitter(f"map-{map_id}-a{attempt}")

    # Fault injection: decide up front whether (and where) this attempt dies.
    fail_at = ctx.faults.task_fail_point("map", map_id, attempt, block.nbytes)

    if ctx.first_map_start is None:
        ctx.first_map_start = sim.now
    task_name = f"map-{map_id}"
    attempt_start = sim.now

    # JVM launch + task init (holds a core: classloading is CPU work).
    yield from node.compute(cost.task_startup * jitter)

    spill_unit = conf.io_sort_mb * conf.sort_spill_percent
    expansion = conf.map_output_expansion
    read_so_far = 0.0
    spills: list[Any] = []
    spill_index = 0

    def cleanup_spills() -> None:
        for spill in spills:
            node.fs.delete(spill.name)

    try:
        while read_so_far < block.nbytes:
            if read_so_far >= fail_at:
                cleanup_spills()
                ctx.counters.add("map.failed_attempts", 1)
                raise TaskFailure(f"map-{map_id}", attempt)
            unit = min(spill_unit, block.nbytes - read_so_far)
            # Read this slice of the split from HDFS.
            yield from ctx.dfs.read_block(
                node, block, stream_id=f"split-m{map_id}", nbytes=unit
            )
            read_so_far += unit
            # Map + collect, then buffer sort, on one core.
            yield from node.compute(cost.cpu_seconds("map", unit) * jitter)
            yield from node.compute(cost.cpu_seconds("sort", unit) * jitter)
            # Spill the sorted buffer to a local spill file.
            out_unit = unit * expansion
            spill = node.fs.create(f"spill/m{map_id}/{spill_index}")
            spill_index += 1
            # Track the spill *before* the write: an interrupt landing
            # mid-write must still find it in cleanup_spills(), or the
            # orphan collides with a later attempt on this node.
            spills.append(spill)
            yield from node.fs.write(
                spill, out_unit, stream_id=f"mapspill-m{map_id}"
            )
            ctx.counters.add("map.spill_bytes", out_unit)
            if ctx.speculation is not None:
                # Map progress = fraction of the split consumed (LATE).
                ctx.speculation.update(
                    "map", map_id, attempt, tt.name, read_so_far / block.nbytes
                )

        total_out = block.nbytes * expansion
        ctx.tracer.record(task_name, "map", attempt_start, sim.now, total_out)

        if node.fs.exists(map_output_file_name(map_id)):
            # A condemned earlier attempt ran on this node and its output
            # file was left in place for in-flight readers; unlink it so
            # the re-execution can publish (readers keep their handle).
            node.fs.delete(map_output_file_name(map_id))

        if len(spills) > 1:
            merge_start = sim.now
            final = node.fs.create(map_output_file_name(map_id))
            # Final on-disk merge of the spills: read all spilled bytes,
            # merge on CPU, and write the single partitioned output — the
            # three run concurrently (streaming merge).
            read_proc = sim.process(
                _read_spills(ctx, node, spills, map_id), name=f"m{map_id}-mergerd"
            )
            cpu_proc = sim.process(
                node.compute(cost.cpu_seconds("merge", total_out) * jitter),
                name=f"m{map_id}-mergecpu",
            )
            write_proc = sim.process(
                node.fs.write(final, total_out, stream_id=f"mapmerge-w-m{map_id}"),
                name=f"m{map_id}-mergewr",
            )
            yield sim.all_of([read_proc, cpu_proc, write_proc])
            for spill in spills:
                node.fs.delete(spill.name)
            ctx.counters.add("map.merge_bytes", total_out)
            ctx.tracer.record(task_name, "map-merge", merge_start, sim.now, total_out)
        else:
            # Single spill: the spill file *is* the output (rename, no I/O).
            final = node.fs.rename(spills[0].name, map_output_file_name(map_id))
    except Interrupted:
        # Cancelled (lost a speculative race): clean up attempt files.
        cleanup_spills()
        if node.fs.exists(map_output_file_name(map_id)):
            node.fs.delete(map_output_file_name(map_id))
        raise

    if ctx.integrity is not None:
        # Stamp the committed output with its digest; the write itself may
        # rot it (silent, discovered only by a later verified read).
        ctx.integrity.stamp_artifact(node.name, final)
    meta = MapOutputMeta(
        job_id=conf.job_id,
        map_id=map_id,
        host=node.name,
        partitions=_partition_sizes(
            total_out,
            conf.record_model.avg_pair_bytes,
            conf.n_reduces,
            skew=conf.partition_skew,
        ),
    )
    if tt.register_map_output(meta, final):
        ctx.counters.add("map.completed", 1)
        ctx.counters.add("map.output_bytes", total_out)
    return meta


def _read_spills(
    ctx: JobContext, node: Any, spills: list[Any], map_id: int
) -> Generator[Event, Any, None]:
    for spill in spills:
        yield from node.fs.read(spill, stream_id=f"mapmerge-r-m{map_id}")
