"""Tests for Store and BandwidthChannel."""

import pytest

from repro.errors import SimulationError
from repro.sim import BandwidthChannel, Simulator, Store


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
        channel = BandwidthChannel(Simulator(), rate_bytes_per_s=1000.0,
                                   per_message_overhead_s=0.5)
        assert channel.reserve(1000) == pytest.approx(1.5)

    def test_transfers_serialize_fifo(self):
        sim = Simulator()
        channel = BandwidthChannel(sim, rate_bytes_per_s=1000.0)
        done = []

        def proc(tag):
            yield channel.reserve(1000) - sim.now
            done.append((tag, sim.now))

        for tag in range(3):
            sim.process(proc(tag))
        sim.run()
        assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]

    def test_counters(self):
        channel = BandwidthChannel(Simulator(), rate_bytes_per_s=1000.0)
        channel.reserve(100)
        channel.reserve(200)
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
        assert channel.reserve(1000) == pytest.approx(1.0)
        sim.run(until=11.0)
        # The second transfer starts fresh at t=11, not queued behind history.
        assert channel.reserve(1000) == pytest.approx(12.0)
