"""Tests for disk devices and the multi-disk local filesystem."""

import pytest

from repro.sim import Simulator
from repro.sim.core import NORMAL, URGENT
from repro.storage import (
    HDD_160GB,
    SSD_SATA,
    DiskDevice,
    LocalFileSystem,
    disk_by_name,
)

MB = 1e6


def drive(sim, gen):
    return sim.run(sim.process(gen))


def test_disk_by_name_and_aliases():
    assert disk_by_name("hdd-160gb") is HDD_160GB
    assert disk_by_name("ssd") is SSD_SATA
    with pytest.raises(KeyError):
        disk_by_name("floppy")


def test_single_read_time():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    done = disk.read(110 * MB, stream_id="s")
    sim.run(done)
    # seek + overhead + 1 second of sequential read
    expected = HDD_160GB.seek_time + HDD_160GB.per_request_overhead + 1.0
    assert sim.now == pytest.approx(expected, rel=1e-6)


def test_same_stream_no_second_seek():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)

    def io(sim, disk):
        yield disk.read(1 * MB, "a")
        yield disk.read(1 * MB, "a")

    drive(sim, io(sim, disk))
    assert disk.seeks == 1


def test_stream_switch_costs_seek():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)

    def io(sim, disk):
        yield disk.read(1 * MB, "a")
        yield disk.read(1 * MB, "b")
        yield disk.read(1 * MB, "a")

    drive(sim, io(sim, disk))
    assert disk.seeks == 3


def test_ssd_switch_is_cheap():
    sim = Simulator()
    hdd = DiskDevice(sim, HDD_160GB, name="h")
    ssd = DiskDevice(sim, SSD_SATA, name="s")
    assert SSD_SATA.seek_time < HDD_160GB.seek_time / 50


def test_writes_slower_than_reads():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)

    def io(sim, disk):
        t0 = sim.now
        yield disk.read(95 * MB, "r")
        read_time = sim.now - t0
        t1 = sim.now
        yield disk.write(95 * MB, "w")
        return read_time, sim.now - t1

    times = drive(sim, io(sim, disk))
    assert times[1] > times[0]


def test_priority_orders_queue():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    order = []

    def submit(sim, disk):
        # Occupy the disk, then queue low- and high-priority requests.
        first = disk.read(10 * MB, "x", priority=0)
        low = disk.read(1 * MB, "low", priority=5)
        high = disk.read(1 * MB, "high", priority=0)
        low.add_callback(lambda e: order.append("low"))
        high.add_callback(lambda e: order.append("high"))
        yield first
        yield sim.all_of([low, high])

    drive(sim, submit(sim, disk))
    assert order == ["high", "low"]


def test_disk_accounting():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)

    def io(sim, disk):
        yield disk.read(3 * MB, "a")
        yield disk.write(2 * MB, "a")

    drive(sim, io(sim, disk))
    assert disk.bytes_read == 3 * MB
    assert disk.bytes_written == 2 * MB
    assert disk.requests == 2
    assert 0 < disk.utilization.utilization() <= 1


def _service(spec, kind, nbytes, seek):
    bw = spec.read_bw if kind == "read" else spec.write_bw
    t = spec.per_request_overhead + nbytes / bw
    return t + spec.seek_time if seek else t


def test_disk_is_not_a_process():
    sim = Simulator()
    DiskDevice(sim, HDD_160GB)
    assert sim.queue_size == 0
    sim.run()
    assert sim.event_count == 0


def test_equal_priorities_are_served_fifo():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    order = []
    for name in ["a", "b", "c", "d"]:
        disk.read(1 * MB, name).add_callback(lambda e, n=name: order.append(n))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_requests_submitted_before_run_are_served():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    done = [disk.write(2 * MB, f"s{i}", priority=i % 2) for i in range(5)]
    sim.run()
    assert all(d.processed and d.value == 2 * MB for d in done)
    assert disk.requests == 5 and disk.bytes_written == 10 * MB


def test_idle_submit_starts_after_queued_urgent_work():
    """Service begins on an URGENT event queued at submission time."""
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    seen = []

    def probe(label, priority):
        evt = sim.event()
        evt.callbacks.append(lambda e: seen.append((label, disk.seeks)))
        evt.succeed(priority=priority)

    def at_one(_event):
        probe("normal-before", NORMAL)
        probe("urgent-before", URGENT)
        disk.read(1 * MB, "s")
        probe("urgent-after", URGENT)

    sim.timeout(1.0).callbacks.append(at_one)
    sim.run()
    assert seen == [
        ("urgent-before", 0),
        ("urgent-after", 1),
        ("normal-before", 1),
    ]


def test_queue_depth_excludes_request_in_service():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    first = disk.read(1 * MB, "a")
    assert disk.queue_depth == 0
    disk.read(1 * MB, "b")
    disk.read(1 * MB, "c")
    assert disk.queue_depth == 2
    sim.run(first)
    assert disk.queue_depth == 1
    sim.run()
    assert disk.queue_depth == 0


def test_disk_accounting_and_timing_are_exact():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    plan = [("read", 3 * MB, "a"), ("write", 2 * MB, "b"), ("read", 1 * MB, "b")]
    finish = []
    for kind, nbytes, stream in plan:
        disk.submit(kind, nbytes, stream).add_callback(
            lambda e: finish.append(sim.now)
        )
    sim.run()
    expected, t = [], 0.0
    for (kind, nbytes, _), seek in zip(plan, [True, True, False]):
        t += _service(HDD_160GB, kind, nbytes, seek)
        expected.append(t)
    assert finish == expected
    assert (disk.requests, disk.seeks) == (3, 2)
    assert (disk.bytes_read, disk.bytes_written) == (4 * MB, 2 * MB)
    assert disk.utilization.busy_time == pytest.approx(expected[-1])


def test_invalid_requests():
    sim = Simulator()
    disk = DiskDevice(sim, HDD_160GB)
    with pytest.raises(ValueError):
        disk.submit("append", 1, "s")
    with pytest.raises(ValueError):
        disk.read(-1, "s")


# ---------------------------------------------------------------------------
# LocalFileSystem
# ---------------------------------------------------------------------------


def test_fs_requires_disk():
    sim = Simulator()
    with pytest.raises(ValueError):
        LocalFileSystem(sim, [], node_name="n")


def test_fs_round_robin_placement():
    sim = Simulator()
    fs = LocalFileSystem(sim, [HDD_160GB, HDD_160GB], node_name="n")
    files = [fs.create(f"f{i}") for i in range(4)]
    assert files[0].disk is not files[1].disk
    assert files[0].disk is files[2].disk


def test_fs_namespace():
    sim = Simulator()
    fs = LocalFileSystem(sim, [HDD_160GB])
    fs.create("a")
    assert fs.exists("a")
    with pytest.raises(FileExistsError):
        fs.create("a")
    with pytest.raises(FileNotFoundError):
        fs.open("missing")
    fs.delete("a")
    assert not fs.exists("a")


def test_fs_rename_keeps_disk_and_size():
    sim = Simulator()
    fs = LocalFileSystem(sim, [HDD_160GB, HDD_160GB])
    f = fs.create("old")
    f.size = 123.0
    disk = f.disk
    renamed = fs.rename("old", "new")
    assert renamed.size == 123.0 and renamed.disk is disk
    assert fs.exists("new") and not fs.exists("old")


def test_fs_write_then_read_roundtrip_time():
    sim = Simulator()
    fs = LocalFileSystem(sim, [HDD_160GB])

    def io(sim, fs):
        f = fs.create("data")
        yield from fs.write(f, 20 * MB, stream_id="w")
        assert f.size == 20 * MB
        t = yield from fs.read(f, stream_id="r")
        return t

    elapsed = drive(sim, io(sim, fs))
    assert elapsed > 0
    assert fs.bytes_written() == 20 * MB
    assert fs.bytes_read() == 20 * MB


def test_fs_two_disks_double_throughput():
    """Two concurrent streams finish ~2x faster with two disks."""

    def run(n_disks):
        sim = Simulator()
        fs = LocalFileSystem(sim, [HDD_160GB] * n_disks)

        def writer(sim, fs, name):
            f = fs.create(name)
            yield from fs.write(f, 100 * MB, stream_id=name)

        procs = [sim.process(writer(sim, fs, f"f{i}")) for i in range(2)]
        sim.run(sim.all_of(procs))
        return sim.now

    assert run(2) < run(1) * 0.62


def test_fs_chunking_interleaves_streams():
    """Concurrent chunked I/O on one HDD pays stream-switch seeks."""
    sim = Simulator()
    fs = LocalFileSystem(sim, [HDD_160GB], chunk_bytes=1_000_000)

    def writer(sim, fs, name):
        f = fs.create(name)
        yield from fs.write(f, 10 * MB, stream_id=name)

    procs = [sim.process(writer(sim, fs, f"f{i}")) for i in range(2)]
    sim.run(sim.all_of(procs))
    assert fs.disks[0].seeks > 10  # ping-pong between the two streams
