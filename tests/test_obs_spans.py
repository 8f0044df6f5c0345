"""Span trees and the observability hub's lifecycle, on a real simulator.

The span-attribution contract is process-based: ``begin_op`` pins the
root span onto the executing :class:`~repro.sim.core.Process`, child
processes inherit it at spawn, and every ``verb_completed`` call lands on
the deepest open span of whichever process is running. These tests drive
that machinery through actual simulator processes rather than mocks.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro import Cluster, ClusterConfig
from repro.experiments.common import build_index
from repro.obs import Observability, ObservabilityConfig
from repro.obs.hub import MAX_SAMPLED_SPANS
from repro.obs.spans import ENTER, EXIT, LEG, STAMP, VERB, OpSpan
from repro.sim.core import Simulator
from repro.workloads import generate_dataset


def make_obs(sim, **kwargs):
    kwargs.setdefault("enabled", True)
    return Observability(sim, ObservabilityConfig(**kwargs))


def nodes(tree):
    """A rendered span tree's nodes, pre-order."""
    yield tree
    for child in tree["children"]:
        yield from nodes(child)


def count_verbs(tree, remote_only=False):
    """``{verb: count}`` over a rendered span tree. With ``remote_only``
    the co-located fast path's verbs are left out: they post no work-queue
    entry, so the remote-only counts reconcile with NIC WQE counters."""
    return dict(Counter(
        event["verb"]
        for node in nodes(tree)
        for event in node["verbs"]
        if not (remote_only and event["local"])
    ))


def verb(step, name, started_at, finished_at, local=False, batch_id=None):
    """A hand-written VERB tuple: 64 bytes on server 0."""
    return (VERB, step, name, 0, 64, started_at, finished_at, local, batch_id)


def record(*events, finished_at=None):
    """An operation record of op 7, client 3, begun at t=0, with *events*
    as its log."""
    span = OpSpan(7, "point", 0.0, client_id=3)
    span.events.extend(events)
    span.finished_at = finished_at
    return span


class TestOpSpan:
    def test_child_inherits_identity(self):
        tree = record(
            (ENTER, 1, 0, "descend", "level_2", 0.5),
            (ENTER, 2, 1, "move_right", "level_2", 0.75),
        ).as_dict()
        assert [(n["op_id"], n["client_id"]) for n in nodes(tree)] == [(7, 3)] * 3
        assert [n["kind"] for n in nodes(tree)] == ["op", "descend", "move_right"]

    def test_finish_cascades_to_open_children(self):
        tree = record(
            (ENTER, 1, 0, "descend", "root", 0.5),
            (ENTER, 2, 1, "move_right", "level_0", 0.75),
            (ENTER, 3, 0, "descend", "level_0", 1.0),
            (EXIT, 3, 1.5),
            finished_at=2.0,
        ).as_dict()
        # Steps the operation never exited close at its finish; an exited
        # one keeps its own time.
        assert [n["finished_at"] for n in nodes(tree)] == [2.0, 2.0, 2.0, 1.5]

    def test_verb_counts_remote_only_excludes_local(self):
        tree = record(
            verb(0, "read", 0.0, 0.1),
            (ENTER, 1, 0, "descend", "root", 0.1),
            verb(1, "read", 0.1, 0.2, local=True),
            verb(1, "cas", 0.2, 0.3, batch_id=4),
        ).as_dict()
        assert count_verbs(tree) == {"read": 2, "cas": 1}
        assert count_verbs(tree, remote_only=True) == {"read": 1, "cas": 1}
        assert tree["children"][0]["verbs"][1]["batch_id"] == 4

    def test_as_dict_mirrors_tree(self):
        span = record(
            (ENTER, 1, 0, "descend", "root", 0.1),
            verb(1, "read", 0.1, 0.2),
            (EXIT, 1, 0.2),
            finished_at=0.5,
        )
        tree = span.as_dict()
        assert tree["op_id"] == 7
        assert tree["children"][0]["kind"] == "descend"
        assert tree["children"][0]["verbs"][0]["verb"] == "read"
        # A rendering is a fresh replay, not a cached tree.
        assert span.as_dict() == tree and span.as_dict() is not tree


def rendered_verb(name, started_at, finished_at, local=False, batch_id=None):
    return {
        "verb": name, "server_id": 0, "payload_bytes": 64,
        "started_at": started_at, "finished_at": finished_at,
        "local": local, "batch_id": batch_id,
    }


def node(kind, name, started_at, finished_at, verbs=(), segments=(), children=()):
    """One rendered span of operation 1, client 3."""
    return {
        "op_id": 1, "kind": kind, "name": name, "client_id": 3,
        "started_at": started_at, "finished_at": finished_at,
        "verbs": list(verbs), "segments": [list(s) for s in segments],
        "children": list(children),
    }


#: ``name: (log, end_at, late, renders)``. The operation begins at t=1 as
#: client 3, its log is appended by hand, ``end_op`` runs at *end_at*
#: (None: never), and ``as_dict()`` is read once — and once more after
#: *late* is appended, if given. The renders were recorded from the
#: object-tree implementation and must not move.
RENDER_ROWS = {
    "nested_steps": (
        [(ENTER, 1, 0, "descend", "root", 1.0), verb(1, "read", 1.0, 1.25),
         (ENTER, 2, 1, "move_right", "level_1", 1.25), verb(2, "read", 1.25, 1.5),
         (EXIT, 2, 1.5), (EXIT, 1, 1.5), verb(0, "cas", 1.5, 1.75, batch_id=4)],
        2.0, None,
        [node("op", "point", 1.0, 2.0,
              verbs=[rendered_verb("cas", 1.5, 1.75, batch_id=4)],
              children=[node("descend", "root", 1.0, 1.5,
                             verbs=[rendered_verb("read", 1.0, 1.25)],
                             children=[node("move_right", "level_1", 1.25, 1.5,
                                            verbs=[rendered_verb("read", 1.25, 1.5)])])])],
    ),
    "two_subprocesses_under_one_step": (
        [(ENTER, 1, 0, "scan", "fanout", 1.0), (ENTER, 2, 1, "prefetch", "a", 1.0),
         (ENTER, 3, 1, "prefetch", "b", 1.0), verb(3, "read", 1.0, 1.5),
         verb(2, "read", 1.0, 1.25, local=True), (EXIT, 2, 1.25), (EXIT, 3, 1.5),
         (EXIT, 1, 1.5)],
        2.0, None,
        [node("op", "point", 1.0, 2.0, children=[
            node("scan", "fanout", 1.0, 1.5, children=[
                node("prefetch", "a", 1.0, 1.25,
                     verbs=[rendered_verb("read", 1.0, 1.25, local=True)]),
                node("prefetch", "b", 1.0, 1.5,
                     verbs=[rendered_verb("read", 1.0, 1.5)]),
            ])])],
    ),
    "exit_closes_open_children": (
        [(ENTER, 1, 0, "descend", "root", 1.0),
         (ENTER, 2, 1, "move_right", "level_0", 1.25), (EXIT, 1, 1.5),
         (ENTER, 3, 0, "descend", "level_0", 1.5), (EXIT, 3, 1.75)],
        2.0, None,
        [node("op", "point", 1.0, 2.0, children=[
            node("descend", "root", 1.0, 1.5, children=[
                node("move_right", "level_0", 1.25, 1.5)]),
            node("descend", "level_0", 1.5, 1.75),
        ])],
    ),
    "root_finish_closes_open_steps": (
        [(ENTER, 1, 0, "descend", "root", 1.0),
         (ENTER, 2, 1, "descend", "level_1", 1.25), verb(2, "read", 1.25, 1.5)],
        2.0, None,
        [node("op", "point", 1.0, 2.0, children=[
            node("descend", "root", 1.0, 2.0, children=[
                node("descend", "level_1", 1.25, 2.0,
                     verbs=[rendered_verb("read", 1.25, 1.5)])])])],
    ),
    "leg_with_a_zero_length_cut": (
        [(LEG, 1.0, 1.0, 1.25, 1.5, 1.75), verb(0, "read", 1.0, 1.75)],
        2.0, None,
        [node("op", "point", 1.0, 2.0,
              verbs=[rendered_verb("read", 1.0, 1.75)],
              segments=[("network_flight", 1.0, 1.25), ("nic_queue", 1.25, 1.5),
                        ("network_flight", 1.5, 1.75)])],
    ),
    "stamp": (
        [(STAMP, "lock_wait", 1.0, 1.5), (LEG, 1.5, 1.5, 1.625, 1.625, 1.75)],
        2.0, None,
        [node("op", "point", 1.0, 2.0,
              segments=[("lock_wait", 1.0, 1.5), ("network_flight", 1.5, 1.625),
                        ("network_flight", 1.625, 1.75)])],
    ),
    "tuple_after_end_op": (
        [(ENTER, 1, 0, "descend", "root", 1.0), verb(1, "read", 1.0, 1.25)],
        1.5, (STAMP, "server_cpu", 1.25, 1.5),
        [node("op", "point", 1.0, 1.5, segments=segments, children=[
            node("descend", "root", 1.0, 1.5,
                 verbs=[rendered_verb("read", 1.0, 1.25)])])
         for segments in ([], [("server_cpu", 1.25, 1.5)])],
    ),
    "root_never_finished": (
        [(ENTER, 1, 0, "descend", "root", 1.0), verb(1, "read", 1.0, 1.25),
         (EXIT, 1, 1.25), (ENTER, 2, 0, "descend", "level_0", 1.25)],
        None, None,
        [node("op", "op", 1.0, None, children=[
            node("descend", "root", 1.0, 1.25,
                 verbs=[rendered_verb("read", 1.0, 1.25)]),
            node("descend", "level_0", 1.25, None),
        ])],
    ),
}


@pytest.mark.parametrize("row", list(RENDER_ROWS))
def test_as_dict_renders_the_log(row):
    log, end_at, late, expected = RENDER_ROWS[row]
    sim = Simulator()
    obs = make_obs(sim)
    renders = []

    def op():
        yield 1.0
        span = obs.begin_op("op", client_id=3)
        span.events.extend(log)
        if end_at is not None:
            yield end_at - 1.0
            obs.end_op(span, "point")
        renders.append(span.as_dict())
        if late is not None:
            span.events.append(late)
            renders.append(span.as_dict())

    sim.run_until_complete(sim.process(op()))
    # JSON text, so key order is pinned along with the values.
    assert json.dumps(renders) == json.dumps(expected)

class TestHubLifecycle:
    def test_begin_end_op_pins_and_clears_process_span(self):
        sim = Simulator()
        obs = make_obs(sim)
        seen = {}

        def op():
            span = obs.begin_op("op", client_id=5)
            obs.verb_completed("read", 0, 64, sim.now, sim.now)  # logged
            yield sim.timeout(1e-6)
            obs.end_op(span, "point")
            obs.verb_completed("read", 0, 64, sim.now, sim.now)  # not logged
            seen["span"] = span

        sim.run_until_complete(sim.process(op()))
        span = seen["span"]
        assert [event[0] for event in span.events] == [VERB]
        assert span.op_id == 1
        assert span.name == "point"  # placeholder renamed at end
        assert span.client_id == 5
        assert span.finished_at - span.started_at == pytest.approx(1e-6)

    def test_end_op_records_metrics_under_final_type(self):
        sim = Simulator()
        obs = make_obs(sim)

        def op(final):
            span = obs.begin_op("op")
            yield sim.timeout(1e-6)
            obs.end_op(span, final)

        sim.run_until_complete(sim.process(op("point")))
        sim.run_until_complete(sim.process(op("TimeoutError_")))
        counters = {
            (m["name"], m["labels"].get("type")): m["value"]
            for m in obs.registry.snapshot()["metrics"]
            if m["name"] == "nam_ops_total"
        }
        assert counters[("nam_ops_total", "point")] == 1
        assert counters[("nam_ops_total", "TimeoutError_")] == 1

    def test_steps_build_a_tree(self):
        sim = Simulator()
        obs = make_obs(sim)
        captured = {}

        def op():
            span = obs.begin_op("op")
            obs.enter_step("descend", "root")
            yield sim.timeout(1e-6)
            obs.enter_step("move_right", "level_2")
            yield sim.timeout(1e-6)
            obs.exit_step()
            obs.exit_step()
            obs.enter_step("descend", "level_1")
            yield sim.timeout(1e-6)
            obs.exit_step()
            obs.end_op(span, "point")
            captured["span"] = span

        sim.run_until_complete(sim.process(op()))
        tree = captured["span"].as_dict()
        kinds = [(n["kind"], n["name"]) for n in nodes(tree)]
        assert kinds == [
            ("op", "point"),
            ("descend", "root"),
            ("move_right", "level_2"),
            ("descend", "level_1"),
        ]
        # Nesting: move_right is a child of the root descend.
        assert tree["children"][0]["children"][0]["name"] == "level_2"

    def test_steps_outside_an_operation_are_noops(self):
        sim = Simulator()
        obs = make_obs(sim)

        def loose():
            obs.enter_step("descend", "root")  # no active op: ignored
            obs.next_step("descend", "level_1")
            obs.exit_step()
            yield sim.timeout(1e-6)

        sim.run_until_complete(sim.process(loose()))
        assert obs.ops_observed == 0

    def test_exit_step_at_root_is_a_noop(self):
        sim = Simulator()
        obs = make_obs(sim)
        captured = {}

        def op():
            span = obs.begin_op("op")
            obs.exit_step()  # nothing entered: must not detach the root
            obs.verb_completed("read", 0, 64, sim.now, sim.now)
            yield sim.timeout(1e-6)
            obs.end_op(span, "point")
            captured["span"] = span

        sim.run_until_complete(sim.process(op()))
        span = captured["span"]
        assert [event[:3] for event in span.events] == [(VERB, 0, "read")]
        assert span.finished_at is not None

    def test_verbs_attach_to_deepest_open_span(self):
        sim = Simulator()
        obs = make_obs(sim)
        captured = {}

        def op():
            span = obs.begin_op("op")
            obs.verb_completed("read", 0, 64, sim.now, sim.now + 1e-6)
            obs.enter_step("descend", "level_1")
            obs.verb_completed("cas", 1, 8, sim.now, sim.now + 1e-6, local=True)
            obs.exit_step()
            yield sim.timeout(1e-6)
            obs.end_op(span, "insert")
            captured["span"] = span

        sim.run_until_complete(sim.process(op()))
        tree = captured["span"].as_dict()
        assert [event["verb"] for event in tree["verbs"]] == ["read"]
        assert [event["verb"] for event in tree["children"][0]["verbs"]] == ["cas"]
        assert count_verbs(tree, remote_only=True) == {"read": 1}

    def test_spawned_subprocess_inherits_span(self):
        sim = Simulator()
        obs = make_obs(sim)
        captured = {}

        def fanout():
            obs.verb_completed("write", 2, 128, sim.now, sim.now + 1e-6)
            yield sim.timeout(1e-6)

        def op():
            span = obs.begin_op("op")
            yield sim.process(fanout())
            obs.end_op(span, "insert")
            captured["span"] = span

        sim.run_until_complete(sim.process(op()))
        assert count_verbs(captured["span"].as_dict()) == {"write": 1}


class TestRetention:
    def _run_ops(self, obs, sim, count, delay=1e-6):
        def op():
            span = obs.begin_op("op")
            yield sim.timeout(delay)
            obs.end_op(span, "point")

        for _ in range(count):
            sim.run_until_complete(sim.process(op()))

    def test_sampling_keeps_every_nth_starting_at_one(self):
        sim = Simulator()
        obs = make_obs(sim, sample_every=4)
        self._run_ops(obs, sim, 10)
        assert [span.op_id for span in obs.sampled_spans] == [1, 5, 9]
        assert obs.ops_observed == 10

    def test_sampled_deque_is_bounded(self):
        sim = Simulator()
        obs = make_obs(sim, sample_every=1)
        self._run_ops(obs, sim, MAX_SAMPLED_SPANS + 3)
        assert [span.op_id for span in obs.sampled_spans] == list(
            range(4, MAX_SAMPLED_SPANS + 4)
        )

    def test_slow_op_hook(self):
        sim = Simulator()
        obs = make_obs(sim, sample_every=1000, slow_op_threshold_s=1e-4)
        self._run_ops(obs, sim, 2, delay=1e-6)   # fast: not captured
        self._run_ops(obs, sim, 1, delay=1e-3)   # slow: captured
        assert [span.op_id for span in obs.slow_spans] == [3]
        # Op 1 is in the sampled deque regardless (sampling starts at 1).
        assert [span.op_id for span in obs.sampled_spans] == [1]

    def test_slow_capture_disabled_by_none_threshold(self):
        sim = Simulator()
        obs = make_obs(sim, slow_op_threshold_s=None)
        self._run_ops(obs, sim, 1, delay=1.0)
        assert list(obs.slow_spans) == []

    def test_snapshot_carries_span_trees_and_config(self):
        sim = Simulator()
        obs = make_obs(sim, sample_every=2, slow_op_threshold_s=0.5)
        self._run_ops(obs, sim, 3)
        snap = obs.snapshot()
        assert snap["ops_observed"] == 3
        assert [s["op_id"] for s in snap["sampled_spans"]] == [1, 3]
        assert snap["config"]["sample_every"] == 2
        assert snap["config"]["slow_op_threshold_s"] == 0.5


class TestFineGrainedLogShape:
    """The hub-on log of quiet fine-grained operations on a height-3 tree,
    one client: which tuples each layer boundary appends, in what order.
    A READ is two wire legs and a VERB; a step per tree level wraps one."""

    LEVEL = (ENTER, LEG, LEG, VERB, EXIT)
    ROUND_TRIP = (LEG, LEG, VERB)

    @pytest.fixture(scope="class")
    def logs(self):
        cluster = Cluster(
            ClusterConfig(seed=7, observability=ObservabilityConfig(enabled=True))
        )
        dataset = generate_dataset(20_000, gap=8)
        index = build_index(cluster, "fine-grained", dataset)
        height = cluster.execute(
            index.session(cluster.new_compute_server())._tree.height()
        )
        session = index.session(cluster.new_compute_server())
        obs = cluster.obs

        def logged(operation):
            span = obs.begin_op("op")
            yield from operation
            obs.end_op(span)
            return span.events

        return height, [
            cluster.execute(logged(operation))
            for operation in (
                session.lookup(dataset.key_at(9)),
                session.lookup(dataset.key_at(6_000)),
                session.insert(dataset.key_at(100) + 1, 20_000),
            )
        ]

    def test_the_tree_is_three_levels_high(self, logs):
        assert logs[0] == 3

    def test_a_cold_lookup_reads_the_root_pointer_first(self, logs):
        _height, (cold, _warm, _insert) = logs
        assert tuple(event[0] for event in cold) == self.ROUND_TRIP + self.LEVEL * 3

    def test_a_warmed_lookup_is_one_step_per_level(self, logs):
        _height, (_cold, warm, _insert) = logs
        assert tuple(event[0] for event in warm) == self.LEVEL * 3

    def test_an_insert_without_a_split_locks_then_writes_back(self, logs):
        _height, (_cold, _warm, insert) = logs
        assert tuple(event[0] for event in insert) == (
            self.LEVEL * 3 + self.ROUND_TRIP + (LEG, LEG, VERB, VERB)
        )
        verbs = [event[2] for event in insert if event[0] == VERB]
        assert verbs == ["read"] * 3 + ["cas", "write", "fetch_add"]

    def test_a_lookup_is_height_dependent_reads(self, logs):
        # Table 1's first identity, read from the log: one READ per level.
        height, (_cold, warm, _insert) = logs
        verbs = [event[2] for event in warm if event[0] == VERB]
        assert verbs == ["read"] * height

    def test_each_step_ends_at_the_instant_the_next_begins(self, logs):
        # Level steps are siblings under the operation, named for the level
        # they start from, and nothing happens between one's EXIT and the
        # next one's ENTER.
        _height, (_cold, warm, _insert) = logs
        enters = [event for event in warm if event[0] == ENTER]
        exits = [event for event in warm if event[0] == EXIT]
        assert [(e[2], e[3], e[4]) for e in enters] == [
            (0, "descend", "root"), (0, "descend", "level_2"),
            (0, "descend", "level_1"),
        ]
        assert [e[1] for e in exits] == [e[1] for e in enters]
        assert [e[2] for e in exits[:-1]] == [e[5] for e in enters[1:]]
