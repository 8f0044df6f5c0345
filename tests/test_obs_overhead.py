"""The hub's surcharge as an exact count: a gate that cannot flake.

The same seeded fine-grained point workload runs hub-off and hub-on under
``cProfile``; the simulated outcome must be identical, and the function
calls (Python + C) the hub adds inside ``runner.run`` must stay under
``SURCHARGE_BOUND`` per operation. A call count repeats to the last digit
on any host, so this is the tight gate on "cheap enough to leave on"
(ROADMAP north star 4). Host time itself is measured by nambench
(``fg_point_uniform_traced`` against its hub-off twin).

The surcharge is gated as a difference, not as the hub-on / hub-off ratio
it used to be: a cheaper kernel shrinks the denominator and fails a ratio
although the hub did not move (PR 19: 1.236 -> 1.372 at an unchanged 62
calls/op). The old bound of 1.27 was 71.2 calls/op on these inputs. The
hub-off count has a ceiling of its own, ``HUB_OFF_CEILING``, so what the
kernel gained cannot erode silently either.

Numbers, on this test's inputs (8 clients x 50 ops, seed 7), calls per
operation hub-off / surcharge / ratio:

* eager span trees (377182d):              272.6 / 150.1 / 1.551   (169 041 / 109 021 calls)
* flat per-op event log (PR 15):            272.6 /  65.1 / 1.2389  (135 071 / 109 021 calls)
* the tracer reads the hub, no ``_trace``
  frame, no forwarding generators (PR 18):  263.5 /  62.1 / 1.2357  (130 255 / 105 413 calls)
* a sleep is a heap entry, not a pooled
  ``Timeout``; one frame fewer per root
  descent (PR 19):                          166.9 /  62.1 / 1.3720  ( 91 615 /  66 773 calls)
* one decode memo per cluster, one read
  site in the descent with no
  ``_read_unlocked`` frame (PR 21):         149.4 /  62.1 / 1.4157  ( 84 606 /  59 764 calls)

and on nambench's ``fg_point_uniform`` inputs (120 x 100, seed 1):
1.553 (419.64 / 270.21), 1.226 (331.27 / 270.23), 1.222 (319.25 / 261.22),
1.352 (222.95 / 164.92), 1.400 (202.97 / 144.94). Both bounds sit a few
percent above the current numbers: a hook that adds one call per verb is
+3 calls/op; three of those trip either. (Counted on CPython 3.11; other
versions count a few builtins differently on both sides.)

The second gate is PR 21's, on the same run: the decode memo is the
cluster's, so the eight clients together call ``Node.from_bytes`` once per
page *image* they touch — on a read-only workload once per page touched
(283 decodes for 1 200 page reads here; 483 when each client kept a memo
of its own) — whatever the number of clients. Also an exact count.

The third is PR 23's, the RPC path's: heap entries per coarse-grained point
lookup, counted from inside the calling process on a quiet cluster. Fault-
free it is the eight things the model has happen — request leg, SRQ
hand-off, fixed cost, three node slices, serialisation slice, reply — where
the reply alone used to be four (a process's start hop, its leg's sleep,
``reply.succeed`` and a completion fired at nobody: 11 entries, 202.1 ->
180.1 calls/op on the run above, ``CG_HUB_OFF_CEILING``). With an injector
attached it is ten (PR 24; 13 before): the wait for the reply is bounded, one
deadline entry, and the reply is delivered by a carrier event when its leg
ends — *untriggered* until then, and it has to be: ``QueuePair.call`` asks
``reply.triggered`` at the deadline, and a reply still on the wire must not
read as delivered — ``test_a_reply_in_flight_at_the_timeout_is_retried``
fails if that arm is ever moved onto the fault-free arm's scheduled form.

The fourth is PR 24's: what *attaching* a plan that injects nothing costs one
hybrid lookup (an RPC plus a READ, both through their attempt loops), as
heap entries and calls per operation with the plan minus without —
``NOOP_PLAN_ENTRIES`` and ``NOOP_PLAN_CEILING``. A possible fault should
cost a test, not a process.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro import Cluster, ClusterConfig, FaultPlan
from repro.config import ObservabilityConfig
from repro.experiments.common import build_index
from repro.nam.rpc import AckResponse, PointLookupRequest
from repro.obs import attribute_span
from repro.obs.spans import LEG, VERB
from repro.workloads import WorkloadRunner, generate_dataset, workload_a

#: Calls per operation the hub may add, and the hub-off run may make
#: (fine-grained; coarse-grained, whose every operation is one RPC).
SURCHARGE_BOUND = 70
HUB_OFF_CEILING = 155
CG_HUB_OFF_CEILING = 186
#: What a no-op ``FaultPlan`` adds to one hybrid point lookup: heap entries
#: (the carrier and the deadline, exactly; 5 at the parent of PR 24) and
#: calls (46.0 now, 97.8 at that parent).
NOOP_PLAN_ENTRIES = 2
NOOP_PLAN_CEILING = 50


def profiled_run(hub: bool, design: str = "fine-grained", faults: bool = False):
    """One seeded run; returns its simulated outcome, the number of calls
    made inside ``runner.run``, the run's result, and the decode census
    ``(Node.from_bytes calls, pages in the cluster's decode memo)``."""
    cluster = Cluster(
        ClusterConfig(seed=7, observability=ObservabilityConfig(enabled=hub))
    )
    dataset = generate_dataset(20_000, gap=8)
    index = build_index(cluster, design, dataset)
    if faults:
        cluster.attach_faults(FaultPlan())
    runner = WorkloadRunner(cluster, dataset)
    profiler = cProfile.Profile()
    result = profiler.runcall(
        runner.run, index, workload_a(), num_clients=8, ops_per_client=50, seed=7
    )
    stats = pstats.Stats(profiler).stats
    calls = sum(row[1] for row in stats.values())
    outcome = (
        result.window_s,
        result.op_counts,
        result.latencies,
        result.network,
        cluster.sim.events_scheduled,
    )
    decodes = sum(
        row[1]
        for (path, _line, name), row in stats.items()
        if name == "from_bytes" and path.endswith("node.py")
    )
    return outcome, calls, result, (decodes, len(cluster.decode_memo))


def test_hub_on_call_ratio_stays_under_the_bound():
    off_outcome, off_calls, off, (decodes, memoized) = profiled_run(hub=False)
    on_outcome, on_calls, on, _ = profiled_run(hub=True)
    assert off.total_ops == on.total_ops == 400
    assert off.observability is None and on.observability["ops_observed"] == 400
    assert on_outcome == off_outcome, "the hub moved the simulation"
    surcharge = (on_calls - off_calls) / 400
    assert 0 < surcharge < SURCHARGE_BOUND, (
        f"hub-on makes {on_calls} calls for hub-off's {off_calls}: "
        f"{surcharge:.1f} more per operation, bound {SURCHARGE_BOUND}"
    )
    assert off_calls / 400 <= HUB_OFF_CEILING, (
        f"hub-off makes {off_calls / 400:.1f} calls per operation, "
        f"ceiling {HUB_OFF_CEILING}"
    )
    # Read-only, so every page has one image, and the memo is keyed by page:
    # each is decoded once per cluster, not once per client that reads it.
    assert 0 < decodes == memoized, (decodes, memoized)


# -- the RPC path: heap entries per coarse-grained lookup ----------------------


def test_coarse_grained_hub_off_calls_stay_under_the_ceiling():
    _, calls, result, _ = profiled_run(hub=False, design="coarse-grained")
    assert result.total_ops == 400
    assert calls / 400 <= CG_HUB_OFF_CEILING, (
        f"hub-off makes {calls / 400:.1f} calls per coarse-grained "
        f"operation, ceiling {CG_HUB_OFF_CEILING}"
    )


def entries_per_lookup(colocated: bool = False, hub: bool = False, faults: bool = False):
    """Heap entries each of four point lookups queues, one per partition of
    a three-level coarse-grained tree, counted inside the calling process
    (so its own start hop and completion are not among them)."""
    cluster = Cluster(
        ClusterConfig(
            seed=7,
            colocated=colocated,
            observability=ObservabilityConfig(enabled=hub),
        )
    )
    dataset = generate_dataset(20_000, gap=8)
    index = build_index(cluster, "coarse-grained", dataset)
    if faults:
        cluster.attach_faults(FaultPlan())
    session = index.session(cluster.new_compute_server())
    sim = cluster.sim

    def probe(ordinal):
        before = sim.events_scheduled
        assert (yield from session.lookup(dataset.key_at(ordinal))) == [ordinal]
        return sim.events_scheduled - before

    return [cluster.execute(probe(ordinal)) for ordinal in (9, 6_000, 12_000, 19_000)]


def test_a_fault_free_lookup_by_rpc_queues_eight_entries():
    # Request leg, SRQ hand-off, fixed cost, three node slices,
    # serialisation slice, reply: the reply is one entry, hub on or off.
    assert entries_per_lookup() == [8, 8, 8, 8]
    assert entries_per_lookup(hub=True) == [8, 8, 8, 8]
    # Co-located, the two partitions on the client's machine are read in
    # place — no RPC: the local handle's seven slices — and the other two
    # are the eight above.
    assert entries_per_lookup(colocated=True) == [7, 7, 8, 8]


def test_under_an_injector_a_lookup_by_rpc_queues_ten_entries():
    # Request leg, SRQ hand-off, fixed cost, three node slices, serialisation
    # slice; the carrier whose firing delivers and the reply it then
    # triggers; the bounded wait's deadline, which pops 50 us later and
    # wakes nobody. Ten, not eight: a calm plan still takes the attempt loop.
    assert entries_per_lookup(faults=True) == [10, 10, 10, 10]


def test_a_noop_plan_costs_a_hybrid_lookup_two_entries_and_few_calls():
    calm_outcome, calm_calls, calm, _ = profiled_run(False, "hybrid", faults=True)
    bare_outcome, bare_calls, bare, _ = profiled_run(False, "hybrid")
    assert calm.total_ops == bare.total_ops == 400 and not calm.errors
    assert calm_outcome[-1] - bare_outcome[-1] == NOOP_PLAN_ENTRIES * 400
    surcharge = (calm_calls - bare_calls) / 400
    assert 0 < surcharge <= NOOP_PLAN_CEILING, (
        f"a no-op plan adds {surcharge:.1f} calls per hybrid lookup, "
        f"ceiling {NOOP_PLAN_CEILING}"
    )


def rpc_setup(colocated: bool = False, faults: bool = False, hub: bool = False):
    """A cluster whose first memory server reachable by *local* queue pair
    (or server 0) answers ``PointLookupRequest`` with a counting handler."""
    cluster = Cluster(
        ClusterConfig(
            seed=7, colocated=colocated, observability=ObservabilityConfig(enabled=hub)
        )
    )
    compute = cluster.new_compute_server()
    server = next(
        server
        for server in cluster.memory_servers
        if not colocated or server.machine is compute.machine
    )
    runs = []

    def handler(srv, msg):
        runs.append(cluster.now)
        yield srv.cpu(1e-6)
        response = AckResponse()
        return response, response.wire_bytes

    server.register_handler(PointLookupRequest, handler)
    if faults:
        cluster.attach_faults(FaultPlan())
    return cluster, compute.qp(server.server_id), server, runs


@pytest.mark.parametrize("colocated", [False, True], ids=["wire", "co-located"])
def test_a_fault_free_reply_is_one_entry_triggered_when_posted(colocated):
    cluster, qp, _server, _runs = rpc_setup(colocated)
    assert qp.is_local is colocated
    sim = cluster.sim
    reply = sim.event()
    landed = []
    reply.add_callback(lambda _event: landed.append(sim.now))
    before = sim.events_scheduled
    qp._spawn_reply(reply, "pong", 64)
    assert sim.events_scheduled - before == 1
    assert reply.triggered and reply.value == "pong" and not landed
    sim.run()
    network = cluster.config.network
    floor = network.local_access_latency_s if colocated else network.one_way_latency_s
    assert landed == [sim.now] and sim.now > floor
    # And the whole call: request leg (or local copy), hand-off, fixed
    # cost, the handler's one slice, serialisation slice, reply.
    request = PointLookupRequest("idx", 1)

    def probe():
        before = sim.events_scheduled
        yield from qp.call(request, request.wire_bytes)
        return sim.events_scheduled - before

    assert cluster.execute(probe()) == 6


def test_under_an_injector_a_reply_on_the_wire_is_not_triggered():
    cluster, qp, _server, _runs = rpc_setup(faults=True)
    sim = cluster.sim
    reply = sim.event()
    qp._spawn_reply(reply, "pong", 64)
    sim.run(until=sim.now + 0.5 * cluster.config.network.one_way_latency_s)
    assert not reply.triggered
    sim.run()
    assert reply.triggered and reply.value == "pong"


def test_a_reply_in_flight_at_the_timeout_is_retried():
    # The response leg queues behind 100 us of other traffic on the server's
    # TX line, so it ends long after ``timeout_s`` (50 us) and the backoff:
    # the reply must read untriggered at both, the request is re-sent, and
    # the retransmit is answered from the dedup cache — the handler ran once.
    cluster, qp, server, runs = rpc_setup(faults=True)
    port = cluster.config.network.port_bandwidth_bytes_per_s
    server.port.tx.reserve(int(100e-6 * port))
    request = PointLookupRequest("idx", 1)
    started = cluster.now
    assert cluster.execute(qp.call(request, request.wire_bytes)).ok
    assert cluster.now - started > 100e-6
    assert len(runs) == 1
    stats = cluster.fault_injector.stats
    assert stats["retries"] == 1 and stats["rpc_replays"] == 1


def test_a_replay_that_overtakes_a_delayed_original_completes_the_call_first(monkeypatch):
    # The first response is held back 200 us — past ``timeout_s`` and the
    # backoff — so the request is re-sent and answered from the dedup cache;
    # that replay is not delayed and lands first: the call completes at its
    # arrival, and the original, arriving later, finds nothing to do. With
    # the hub on, so that both late legs are seen stamped onto the issuing op:
    # the replay's by the worker that posts it, the original's by its process.
    cluster, qp, _server, runs = rpc_setup(faults=True, hub=True)
    delays = iter([0.0, 200e-6])  # the request's draw, the first response's
    monkeypatch.setattr(
        cluster.fault_injector, "extra_delay", lambda verb, server: next(delays, 0.0)
    )
    request = PointLookupRequest("idx", 1)

    def op():
        span = cluster.obs.begin_op("point")
        response = yield from qp.call(request, request.wire_bytes)
        cluster.obs.end_op(span)
        return response, span

    started = cluster.now
    response, span = cluster.execute(op())
    assert response.ok
    assert cluster.config.retry.timeout_s < cluster.now - started < 200e-6
    stats = cluster.fault_injector.stats
    assert len(runs) == 1 and stats["retries"] == 1 and stats["rpc_replays"] == 1
    # Two requests and the replay, then the original as well.
    assert sum(event[0] == LEG for event in span.events) == 3
    cluster.sim.run()  # the original lands on a triggered reply and leaves it be
    assert cluster.now - started > 200e-6
    assert sum(event[0] == LEG for event in span.events) == 4


def test_a_delayed_response_leg_is_stamped_onto_the_op_that_waits_for_it():
    # Hub on, a plan that delays every other message and drops none: each
    # lookup is one attempt — a request leg and a response leg in its event
    # log, the response leg ending when the SEND completes, delayed or not —
    # and its segments add up to its latency.
    cluster = Cluster(
        ClusterConfig(
            seed=7, observability=ObservabilityConfig(enabled=True, sample_every=1)
        )
    )
    dataset = generate_dataset(20_000, gap=8)
    index = build_index(cluster, "coarse-grained", dataset)
    injector = cluster.attach_faults(
        FaultPlan(seed=3, delay_probability=0.5, delay_s=5e-6)
    )
    result = WorkloadRunner(cluster, dataset).run(
        index, workload_a(), num_clients=4, ops_per_client=25, seed=7
    )
    assert result.total_ops == 100 and not result.errors and not result.retries
    assert injector.stats["delays"] > 20
    spans = list(cluster.obs.sampled_spans)
    assert len(spans) == 100
    for span in spans:
        legs = [event for event in span.events if event[0] == LEG]
        [send] = [event for event in span.events if event[0] == VERB]
        assert len(legs) == 2, "a leg of this op was stamped elsewhere, or nowhere"
        assert legs[1][5] == send[6]  # the leg ends when the call completes
        attribution = attribute_span(span)
        assert sum(attribution.values()) == pytest.approx(
            span.finished_at - span.started_at, rel=1e-9
        )
        assert attribution["network_flight"] + attribution["nic_queue"] > 0.0
