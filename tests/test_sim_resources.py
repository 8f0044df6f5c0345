"""Tests for Resource, Store and BandwidthChannel."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthChannel, Resource, Simulator, Store


class TestResource:
    def test_grants_up_to_capacity_immediately(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        done = []

        def holder(tag):
            yield res.request()
            try:
                yield sim.timeout(1.0)
                done.append((tag, sim.now))
            finally:
                res.release()

        for tag in range(4):
            sim.process(holder(tag))
        sim.run()
        assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]

    def test_fifo_ordering(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def holder(tag):
            yield res.request()
            try:
                order.append(tag)
                yield sim.timeout(1.0)
            finally:
                res.release()

        for tag in range(5):
            sim.process(holder(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_utilization_tracks_busy_time(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)

        def holder():
            yield from res.acquire(1.0)

        sim.process(holder())
        sim.run()
        sim.run(until=2.0)
        # One of two units busy for 1s out of 2s: 25% of capacity.
        assert res.utilization() == pytest.approx(0.25)

    def test_a_negative_hold_time_still_releases_the_unit(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        held = sim.process(res.acquire(-1.0))
        with pytest.raises(SimulationError, match="non-negative"):
            sim.run_until_complete(held)
        assert res.in_use == 0  # released by the throw at the bad yield
        sim.run_until_complete(sim.process(res.acquire(2.0)))
        assert sim.now == 2.0

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder():
            yield from res.acquire(5.0)

        sim.process(holder())
        sim.process(holder())
        sim.process(holder())
        sim.run(until=1.0)
        assert res.queue_length == 2


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")

        def getter():
            first = yield store.get()
            second = yield store.get()
            return [first, second]

        assert sim.run_until_complete(sim.process(getter())) == ["a", "b"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append((item, sim.now))

        def putter():
            yield sim.timeout(3.0)
            store.put("x")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert got == [("x", 3.0)]

    def test_each_item_delivered_once(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter():
            item = yield store.get()
            got.append(item)

        sim.process(getter())
        sim.process(getter())
        store.put(1)
        store.put(2)
        sim.run()
        assert sorted(got) == [1, 2]

    def test_len_counts_queued_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestBandwidthChannel:
    def test_transfer_time_is_size_over_rate_plus_overhead(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0,
                                   per_message_overhead_s=0.5)

        def proc():
            yield from channel.transfer(1000)

        sim.run_until_complete(sim.process(proc()))
        assert sim.now == pytest.approx(1.5)

    def test_transfers_serialize_fifo(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)
        done = []

        def proc(tag):
            yield from channel.transfer(1000)
            done.append((tag, sim.now))

        for tag in range(3):
            sim.process(proc(tag))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_counters(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)

        def proc():
            yield from channel.transfer(100)
            yield from channel.transfer(200)

        sim.run_until_complete(sim.process(proc()))
        assert channel.snapshot() == (300, 2)

    def test_reserve_with_earliest_bound(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)
        done = channel.reserve(1000, earliest=5.0)
        assert done == pytest.approx(6.0)
        # Next reservation queues behind the first.
        assert channel.reserve(1000) == pytest.approx(7.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)
        with pytest.raises(SimulationError):
            channel.reserve(-1)

    def test_idle_gap_does_not_backlog(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)

        def proc():
            yield from channel.transfer(1000)
            yield sim.timeout(10.0)
            yield from channel.transfer(1000)

        sim.run_until_complete(sim.process(proc()))
        # Second transfer starts fresh at t=11, not queued behind history.
        assert sim.now == pytest.approx(12.0)
