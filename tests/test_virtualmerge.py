"""Tests for the aggregate VirtualMerger, including cross-validation
against the record-level KWayMerger on uniform data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.merge import KWayMerger
from repro.core.virtualmerge import VirtualMerger


def test_basic_drain():
    vm = VirtualMerger()
    vm.add_run("a", 100.0)
    vm.add_run("b", 100.0)
    vm.feed("a", 50.0)
    assert vm.drainable_bytes() == 0  # b has nothing yet
    vm.feed("b", 50.0)
    # frontier = 0.5 -> half of the 200 total is extractable
    assert vm.drainable_bytes() == pytest.approx(100.0)
    assert vm.drain() == pytest.approx(100.0)
    assert vm.drainable_bytes() == 0.0


def test_extraction_blocked_until_all_declared():
    vm = VirtualMerger(expected_runs=2)
    vm.add_run("a", 100.0)
    vm.feed("a", 100.0)
    assert vm.frontier() == 0.0
    assert vm.drainable_bytes() == 0.0
    vm.add_run("b", 100.0)
    vm.feed("b", 100.0)
    assert vm.drainable_bytes() == pytest.approx(200.0)


def test_empty_run_counts_as_complete():
    vm = VirtualMerger(expected_runs=2)
    vm.add_run("a", 100.0)
    vm.add_run("empty", 0.0)
    vm.feed("a", 100.0)
    assert vm.drain() == pytest.approx(100.0)
    assert vm.exhausted


def test_partial_drain():
    vm = VirtualMerger()
    vm.add_run("a", 100.0)
    vm.feed("a", 100.0)
    assert vm.drain(max_bytes=30.0) == pytest.approx(30.0)
    assert vm.drainable_bytes() == pytest.approx(70.0)


def test_bottlenecks_identify_lowest_coverage():
    vm = VirtualMerger()
    vm.add_run("slow", 100.0)
    vm.add_run("fast", 100.0)
    vm.feed("fast", 90.0)
    vm.feed("slow", 10.0)
    assert vm.bottlenecks(1) == ["slow"]
    assert set(vm.bottlenecks(2)) == {"slow", "fast"}


def test_bottlenecks_skip_finished_runs():
    vm = VirtualMerger()
    vm.add_run("done", 50.0)
    vm.add_run("pending", 50.0)
    vm.feed("done", 50.0)
    assert vm.bottlenecks(2) == ["pending"]


def test_buffered_bytes_tracks_delivery_minus_extraction():
    vm = VirtualMerger()
    vm.add_run("a", 100.0)
    vm.add_run("b", 100.0)
    vm.feed("a", 60.0)
    vm.feed("b", 20.0)
    assert vm.buffered_bytes() == pytest.approx(80.0)
    vm.drain()  # frontier 0.2 -> 40 bytes out
    assert vm.buffered_bytes() == pytest.approx(40.0)


def test_exhausted_lifecycle():
    vm = VirtualMerger(expected_runs=1)
    vm.add_run("a", 10.0)
    assert not vm.exhausted
    vm.feed("a", 10.0)
    assert not vm.exhausted  # data still buffered
    vm.drain()
    assert vm.exhausted


def test_duplicate_and_invalid():
    vm = VirtualMerger()
    vm.add_run("a", 10.0)
    with pytest.raises(ValueError):
        vm.add_run("a", 10.0)
    with pytest.raises(ValueError):
        vm.feed("a", -1.0)


def test_overdelivery_is_clamped():
    vm = VirtualMerger()
    vm.add_run("a", 10.0)
    vm.feed("a", 25.0)
    assert vm.remaining("a") == 0.0
    assert vm.drain() == pytest.approx(10.0)


@given(
    totals=st.lists(st.floats(min_value=1, max_value=1e6), min_size=1, max_size=10),
    feeds=st.lists(st.tuples(st.integers(0, 9), st.floats(0, 2e5)), max_size=60),
)
@settings(max_examples=100, deadline=None)
def test_conservation_property(totals, feeds):
    """Emitted bytes never exceed delivered bytes, and full delivery +
    drain empties the merger exactly."""
    vm = VirtualMerger(expected_runs=len(totals))
    for i, t in enumerate(totals):
        vm.add_run(i, t)
    delivered = dict.fromkeys(range(len(totals)), 0.0)
    for run, amount in feeds:
        if run < len(totals):
            vm.feed(run, amount)
            delivered[run] = min(totals[run], delivered[run] + amount)
        vm.drain()
        assert vm.emitted_bytes <= sum(delivered.values()) + 1e-6
    for i, t in enumerate(totals):
        vm.feed(i, t)
    vm.drain()
    assert vm.emitted_bytes == pytest.approx(sum(totals), rel=1e-9)
    assert vm.exhausted


def test_cross_validation_against_kway_merger():
    """The quantile model matches the real merger on uniform random runs.

    Feed both mergers the same packet schedule; after each round, the
    VirtualMerger's drainable byte count must approximate the number of
    records the KWayMerger can actually extract (scaled by record size).
    """
    rng = np.random.default_rng(11)
    n_runs, per_run, packet = 8, 400, 50
    rec_size = 10.0
    runs = {
        r: sorted(float(x) for x in rng.random(per_run)) for r in range(n_runs)
    }
    km = KWayMerger(key=lambda rec: rec)
    vm = VirtualMerger(expected_runs=n_runs)
    for r in runs:
        km.add_run(r)
        vm.add_run(r, per_run * rec_size)
    cursor = dict.fromkeys(runs, 0)
    total_km = 0
    total_vm = 0.0
    rounds = per_run // packet
    errors = []
    for round_no in range(1, rounds + 1):
        for r in runs:
            chunk = runs[r][cursor[r] : cursor[r] + packet]
            eof = cursor[r] + packet >= per_run
            km.feed(r, chunk, eof=eof)
            vm.feed(r, len(chunk) * rec_size)
            cursor[r] += packet
        total_km += len(km.drain_ready())
        total_vm += vm.drain()
        expected = total_km * rec_size
        errors.append(abs(total_vm - expected) / max(expected, 1.0))
        # The quantile model is the expectation; the true frontier is the
        # *min* over runs of per-run coverage, so the aggregate runs a bit
        # optimistic early and converges as packets accumulate
        # (order-statistic fluctuation ~ 1/sqrt(delivered packets)).
        assert errors[-1] <= 1.2 / (round_no**0.5)
    assert total_km == n_runs * per_run
    assert total_vm == pytest.approx(total_km * rec_size)
    # Converged: the last rounds track ground truth tightly.
    assert errors[-1] <= 0.02
    assert errors[-2] <= 0.10


class _UnmemoisedMerger(VirtualMerger):
    """Recomputes :meth:`bottlenecks` on every call (the memo's oracle)."""

    def bottlenecks(self, k: int = 1):
        self._bottlenecks_memo = None
        return super().bottlenecks(k)


_merger_op = st.one_of(
    st.tuples(
        st.just("feed"),
        st.integers(0, 5),
        # Sub-_EPS coverage steps (1e-7 of 1e3 bytes), ordinary ones, and
        # whole-run deliveries.
        st.sampled_from((0.0, 1e-7, 5e-7, 1.0, 37.5, 250.0, 1e3)),
    ),
    st.tuples(st.just("bottlenecks"), st.integers(1, 4)),
    st.tuples(st.just("bottlenecks"), st.integers(1, 4)),
    st.tuples(st.just("frontier")),
    st.tuples(st.just("drain"), st.sampled_from((None, 10.0, 1e3))),
)


@given(
    totals=st.lists(st.sampled_from((0.0, 1e3, 2.5e2)), min_size=1, max_size=6),
    declare_at=st.integers(0, 6),
    ops=st.lists(_merger_op, max_size=60),
)
@settings(max_examples=200, deadline=None)
def test_memoised_bottlenecks_match_recomputation(totals, declare_at, ops):
    mergers = [VirtualMerger(expected_runs=len(totals)), _UnmemoisedMerger(len(totals))]
    pending = list(enumerate(totals))
    for step, op in enumerate(ops):
        if pending and step >= declare_at:
            run_id, total = pending.pop(0)
            for vm in mergers:
                vm.add_run(run_id, total)
        results = []
        for vm in mergers:
            kind = op[0]
            if kind == "feed":
                run_id = op[1] % len(totals)
                if run_id not in vm._runs:
                    results.append(None)
                    continue
                vm.feed(run_id, op[2])
                results.append(vm.coverage(run_id))
            elif kind == "bottlenecks":
                out = vm.bottlenecks(op[1])
                results.append(list(out))
                out.append("caller-owned")  # must not leak into the memo
            elif kind == "frontier":
                results.append(vm.frontier())
            else:
                results.append(vm.drain(op[1]))
        assert results[0] == results[1], (step, op)
    memo, plain = mergers
    assert memo.bottlenecks(6) == plain.bottlenecks(6)
    assert memo.frontier() == plain.frontier()
    assert memo.emitted_bytes == plain.emitted_bytes
