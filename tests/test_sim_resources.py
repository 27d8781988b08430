"""Unit tests for Resource, Container, and the Stores."""

import pytest

from repro.sim import Container, PriorityStore, Resource, Simulator, Store
from repro.sim.core import SimulationError


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_serializes_users():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(sim, res, name):
        with res.request() as req:
            yield req
            log.append((sim.now, name, "in"))
            yield sim.timeout(2)
        log.append((sim.now, name, "out"))

    sim.process(worker(sim, res, "a"))
    sim.process(worker(sim, res, "b"))
    sim.run()
    assert log == [(0, "a", "in"), (2, "a", "out"), (2, "b", "in"), (4, "b", "out")]


def test_resource_parallel_within_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def worker(sim, res, name):
        with res.request() as req:
            yield req
            yield sim.timeout(1)
            done.append((sim.now, name))

    for name in "abc":
        sim.process(worker(sim, res, name))
    sim.run()
    assert done == [(1, "a"), (1, "b"), (2, "c")]


def test_resource_count_and_queue_len():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    sim.run()
    assert res.count == 1
    assert res.queue_len == 1
    res.release(r1)
    sim.run()
    assert r2.processed


def test_resource_release_unheld_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    other = Resource(sim, capacity=1)
    req = other.request()
    sim.run()
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    sim.run()
    r2.cancel()  # withdraw from queue
    res.release(r1)
    sim.run()
    assert res.count == 0 and res.queue_len == 0


# ---------------------------------------------------------------------------
# Container
# ---------------------------------------------------------------------------


def test_container_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Container(sim, capacity=0)
    with pytest.raises(ValueError):
        Container(sim, capacity=5, init=9)


def test_container_get_blocks_until_put():
    sim = Simulator()
    c = Container(sim, capacity=100)
    times = []

    def getter(sim, c):
        yield c.get(10)
        times.append(sim.now)

    def putter(sim, c):
        yield sim.timeout(4)
        yield c.put(10)

    sim.process(getter(sim, c))
    sim.process(putter(sim, c))
    sim.run()
    assert times == [4]
    assert c.level == 0


def test_container_put_blocks_when_full():
    sim = Simulator()
    c = Container(sim, capacity=10, init=10)
    times = []

    def putter(sim, c):
        yield c.put(5)
        times.append(sim.now)

    def getter(sim, c):
        yield sim.timeout(3)
        yield c.get(5)

    sim.process(putter(sim, c))
    sim.process(getter(sim, c))
    sim.run()
    assert times == [3]


def test_container_try_get():
    sim = Simulator()
    c = Container(sim, capacity=10, init=4)
    assert c.try_get(3)
    assert c.level == 1
    assert not c.try_get(2)
    assert c.level == 1


def test_container_negative_amounts_rejected():
    sim = Simulator()
    c = Container(sim, capacity=10)
    with pytest.raises(ValueError):
        c.put(-1)
    with pytest.raises(ValueError):
        c.get(-1)


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------


def test_store_fifo_order():
    sim = Simulator()
    st = Store(sim)
    out = []

    def consumer(sim, st):
        for _ in range(3):
            item = yield st.get()
            out.append(item)

    for item in [1, 2, 3]:
        st.put(item)
    sim.process(consumer(sim, st))
    sim.run()
    assert out == [1, 2, 3]


def test_store_get_blocks_until_put():
    sim = Simulator()
    st = Store(sim)
    out = []

    def consumer(sim, st):
        item = yield st.get()
        out.append((sim.now, item))

    def producer(sim, st):
        yield sim.timeout(2)
        yield st.put("x")

    sim.process(consumer(sim, st))
    sim.process(producer(sim, st))
    sim.run()
    assert out == [(2, "x")]


def test_store_capacity_blocks_put():
    sim = Simulator()
    st = Store(sim, capacity=1)
    log = []

    def producer(sim, st):
        yield st.put(1)
        log.append(("put1", sim.now))
        yield st.put(2)
        log.append(("put2", sim.now))

    def consumer(sim, st):
        yield sim.timeout(5)
        yield st.get()

    sim.process(producer(sim, st))
    sim.process(consumer(sim, st))
    sim.run()
    assert log == [("put1", 0), ("put2", 5)]


def test_priority_store_orders_items():
    sim = Simulator()
    st = PriorityStore(sim)
    out = []

    def consumer(sim, st):
        for _ in range(3):
            item = yield st.get()
            out.append(item)

    st.put((3, "c"))
    st.put((1, "a"))
    st.put((2, "b"))
    sim.process(consumer(sim, st))
    sim.run()
    assert out == [(1, "a"), (2, "b"), (3, "c")]


def test_priority_store_fifo_among_equal_priorities():
    sim = Simulator()
    st = PriorityStore(sim)
    out = []

    def consumer(sim, st):
        for _ in range(3):
            item = yield st.get()
            out.append(item[1])

    st.put((1, "first"))
    st.put((1, "second"))
    st.put((1, "third"))
    sim.process(consumer(sim, st))
    sim.run()
    assert out == ["first", "second", "third"]
