"""Timed job execution, output checks and the end-to-end metrics.

Host time is taken from outside the program, around
``repro.mapreduce.driver.run_job_on``.  Each job gets a sim-time
deadline enforced by a watchdog process the benchmark spawns on the
job's simulator, and the whole run gets a host-time budget, so a job
that never finishes is recorded as failed and the run continues.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import re
import signal
import time
import traceback
from collections.abc import Generator, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.mapreduce.driver import run_job_on
from repro.mapreduce.job import JobConf, JobResult

GB = 1 << 30

#: Relative tolerance of the byte-conservation checks.  Byte counters
#: are float sums over thousands of packets, so exact equality is too
#: strict; a lost or duplicated record is many orders larger.
BYTES_RTOL = 1e-9


#: Host seconds one :func:`reference_slice` takes on the 2-CPU sandbox
#: (Xeon @ 2.1 GHz) at its typical speed.  Normalised host time is raw
#: host time times ``REF_NOMINAL_S / mean measured slice``.
REF_NOMINAL_S = 0.080


def reference_slice(steps: int = 80_000) -> float:
    """A fixed pure-Python event loop: heap calendar, generator resumes, dicts.

    It does the kind of work the simulator's hot path does, but runs none
    of the program's code, so its host time measures only the machine.
    """

    def process(period: float):
        now = 0.0
        while True:
            now = yield now + period

    procs = [process(1.0 + (i % 7) * 0.5) for i in range(200)]
    queue = []
    for i, proc in enumerate(procs):
        next(proc)
        heapq.heappush(queue, (float(i), i, i))
    totals: dict[int, float] = {}
    for seq in range(steps):
        now, _, i = heapq.heappop(queue)
        due = procs[i].send(now)
        heapq.heappush(queue, (due, len(procs) + seq, i))
        totals[i % 64] = totals.get(i % 64, 0.0) + due
    return sum(totals.values())


class SpeedProbe:
    """Tracks the machine's speed by timing :func:`reference_slice` between jobs.

    The sandbox shares its cores with other tenants, and its speed drifts
    by 10-30% over minutes.  Across runs of the same work, a run's mean
    slice time tracked its throughput with correlation 0.8-0.9, and
    scaling host times by it cut the spread of ``sorted_gb_per_min``
    across seeds from 0.13 to 0.04 (terasort-4n) and from 0.17 to 0.09
    (adverse-4n).  A change to the program still moves normalised times
    in full, since the slice runs none of the program's code.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_slice()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor from raw to normalised host seconds (1.0 before any sample)."""
        if not self.samples:
            return 1.0
        return REF_NOMINAL_S * len(self.samples) / sum(self.samples)


class DeadlineExceeded(Exception):
    """The job's simulated clock passed its deadline."""


class HostBudgetExceeded(BaseException):
    """The run's host-time budget ran out during a job.

    A ``BaseException`` so that the job's own ``except Exception``
    recovery paths cannot swallow it.
    """


def watchdog(cluster: Cluster, deadline_s: float) -> Generator:
    """Sim process: fail the simulation once ``deadline_s`` is reached.

    Nobody waits on the process, so its failure re-raises from
    ``Simulator.run`` and unwinds ``run_job_on``.  A job that finishes
    first leaves the timeout pending and the simulation is discarded;
    the extra process shifts no other event's order.
    """
    yield cluster.sim.timeout(deadline_s)
    raise DeadlineExceeded(f"job still running at sim t={deadline_s:g}s")


def _on_alarm(signum, frame):
    raise HostBudgetExceeded("host-time budget exhausted")


@contextmanager
def host_budget(seconds: float) -> Iterator[None]:
    """Raise :class:`HostBudgetExceeded` if the block runs past ``seconds``.

    The alarm repeats every half second until the block exits, in case
    the simulation routes the first one into a process that handles it.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3), 0.5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (Linux ``clear_refs``).

    Where the kernel refuses, the mark keeps the process's lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident-set high-water mark since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as f:
        match = re.search(r"^VmHWM:\s+(\d+) kB", f.read(), re.MULTILINE)
    return int(match.group(1)) / 1024.0


def fingerprint(result: JobResult) -> str:
    """Hash of the simulated job time and every counter, bit-exact."""
    payload = repr((result.execution_time, sorted(result.counters.items())))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def output_errors(conf: JobConf, result: JobResult) -> list[str]:
    """Byte-conservation problems in a completed job's output.

    * Committed reduce output equals the input (TeraSort is an identity
      sort).  Runs with faults or reduce speculation count only the
      committed attempts, never a loser's partial output.
    * Map output equals shuffled bytes.  Skipped under a fault plan or
      speculation, where re-executed maps, integrity re-fetches and
      backup reducers legitimately move the same bytes more than once.
    """
    c = result.counters
    errors = []
    committed = c.get("reduce.committed_output_bytes", c.get("reduce.output_bytes", 0.0))
    if not math.isclose(committed, conf.data_bytes, rel_tol=BYTES_RTOL):
        errors.append(f"committed output {committed!r} B != input {conf.data_bytes!r} B")
    if conf.fault_plan is None and not conf.speculation_active:
        mapped, shuffled = c.get("map.output_bytes", 0.0), c.get("shuffle.bytes", 0.0)
        if not math.isclose(mapped, shuffled, rel_tol=BYTES_RTOL):
            errors.append(f"map output {mapped!r} B != shuffled {shuffled!r} B")
    return errors


@dataclass
class JobRecord:
    """One attempted job: what ran, how long it took, and how it ended."""

    engine: str
    seed: int
    data_bytes: float
    host_s: float
    #: "ok", "deadline", "host-budget", "raised" or "check".
    status: str
    sim_s: float | None = None
    events: int = 0
    peak_rss_mb: float = 0.0
    fingerprint: str = ""
    errors: list[str] = field(default_factory=list)
    result: JobResult | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def describe(self) -> str:
        sim = "-" if self.sim_s is None else repr(self.sim_s)
        text = (
            f"job engine={self.engine} seed={self.seed} status={self.status} "
            f"sim_s={sim} fingerprint={self.fingerprint or '-'} "
            f"host_s={self.host_s:.3f} events={self.events}"
        )
        return text + "".join(f"\n  error: {e}" for e in self.errors)


def run_job(
    cluster: Cluster,
    conf: JobConf,
    seed: int,
    deadline_s: float,
    budget_s: float,
    profiler=None,
) -> JobRecord:
    """Run ``conf`` on ``cluster`` under a deadline and time it.

    ``profiler`` (a ``cProfile.Profile``) is enabled around the job only.
    """
    cluster.sim.process(watchdog(cluster, deadline_s), name="perfbench-watchdog")
    status, result, errors = "ok", None, []
    reset_peak_rss()
    start = time.perf_counter()
    try:
        with host_budget(budget_s):
            if profiler is not None:
                profiler.enable()
            try:
                result = run_job_on(cluster, conf)
            finally:
                if profiler is not None:
                    profiler.disable()
    except DeadlineExceeded:
        status = "deadline"
    except HostBudgetExceeded:
        status = "host-budget"
    except Exception as exc:  # the job itself failed; record and go on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        status = "raised"
        errors = [f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"]
    host_s = time.perf_counter() - start
    record = JobRecord(
        engine=conf.shuffle_engine,
        seed=seed,
        data_bytes=conf.data_bytes,
        host_s=host_s,
        status=status,
        events=cluster.sim.event_count,
        peak_rss_mb=peak_rss_mb(),
        errors=errors,
        result=result,
    )
    if result is not None:
        record.sim_s = result.execution_time
        record.fingerprint = fingerprint(result)
        record.errors = output_errors(conf, result)
        if record.errors:
            record.status = "check"
    return record


def check_repeats(records: list[JobRecord]) -> list[str]:
    """Fingerprint drift between repeated runs of the same (engine, seed).

    Marks every drifting repeat as failed and returns the problems.
    """
    first: dict[tuple[str, int], JobRecord] = {}
    problems = []
    for r in records:
        if not r.fingerprint:
            continue
        ref = first.setdefault((r.engine, r.seed), r)
        if r.fingerprint != ref.fingerprint:
            r.status = "check"
            msg = (
                f"fingerprint drift for {r.engine} seed {r.seed}: "
                f"{ref.fingerprint} then {r.fingerprint}"
            )
            r.errors.append(msg)
            problems.append(msg)
    return problems


def sorted_gb_per_min(records: list[JobRecord], scale: float = 1.0) -> float:
    """Input GB of jobs that completed with verified output, per host minute.

    Every timed job's host time counts, so a failed job costs its host
    time and adds no GB.  ``scale`` normalises host time (see
    :class:`SpeedProbe`).
    """
    host_min = scale * sum(r.host_s for r in records) / 60.0
    gb = sum(r.data_bytes for r in records if r.ok) / GB
    return gb / host_min if host_min > 0 else 0.0


def improvement(ours_s: float, base_s: float) -> float:
    """OSU-style improvement ``1 - ours/base``, clipped to [-1, 1].

    The clip keeps a job that missed its deadline (timed at the
    deadline, a lower bound on its true time) from dominating a mean.
    """
    return max(-1.0, min(1.0, 1.0 - ours_s / base_s))


def paper_gap_pp(
    sim_s: dict[tuple[str, int], float],
    seeds: list[int],
    claims: list[tuple[str, str, float]],
) -> float:
    """Mean absolute gap, in percentage points, to the paper's claims.

    ``sim_s`` maps ``(engine, seed)`` to simulated job seconds (the
    deadline for a job that missed it).  The gap is averaged over every
    claim row and every seed of the cycle.
    """
    gaps = [
        abs(improvement(sim_s[ours, s], sim_s[base, s]) - paper) * 100.0
        for s in seeds
        for ours, base, paper in claims
    ]
    return sum(gaps) / len(gaps)
