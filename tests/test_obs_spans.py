"""Span trees and the observability hub's lifecycle, on a real simulator.

The span-attribution contract is process-based: ``begin_op`` pins the
root span onto the executing :class:`~repro.sim.core.Process`, child
processes inherit it at spawn, and every ``verb_completed`` call lands on
the deepest open span of whichever process is running. These tests drive
that machinery through actual simulator processes rather than mocks.
"""

from __future__ import annotations

import pytest

from repro import Cluster, ClusterConfig
from repro.experiments.common import build_index
from repro.obs import Observability, ObservabilityConfig
from repro.obs.hub import MAX_SAMPLED_SPANS
from repro.obs.spans import ENTER, EXIT, LEG, VERB, OpSpan, VerbEvent
from repro.sim.core import Simulator
from repro.workloads import generate_dataset


def make_obs(sim, **kwargs):
    kwargs.setdefault("enabled", True)
    return Observability(sim, ObservabilityConfig(**kwargs))


class TestOpSpan:
    def test_child_inherits_identity(self):
        root = OpSpan(7, "op", "point", 1.0, client_id=3)
        child = root.child("descend", "level_2", 1.5)
        assert child.op_id == 7
        assert child.client_id == 3
        assert root.children == [child]

    def test_finish_cascades_to_open_children(self):
        root = OpSpan(1, "op", "insert", 0.0)
        child = root.child("descend", "root", 0.5)
        grandchild = child.child("move_right", "level_0", 0.75)
        root.finish(2.0)
        assert child.finished_at == 2.0
        assert grandchild.finished_at == 2.0
        # Finishing is idempotent; an already-closed child keeps its time.
        root.finish(3.0)
        assert root.finished_at == 2.0

    def test_duration_of_open_span_is_zero(self):
        span = OpSpan(1, "op", "point", 4.0)
        assert span.duration == 0.0
        span.finish(4.25)
        assert span.duration == pytest.approx(0.25)

    def test_iter_spans_preorder(self):
        root = OpSpan(1, "op", "point", 0.0)
        a = root.child("descend", "root", 0.1)
        b = a.child("move_right", "level_1", 0.2)
        c = root.child("descend", "level_0", 0.3)
        assert list(root.iter_spans()) == [root, a, b, c]

    def test_verb_counts_remote_only_excludes_local(self):
        root = OpSpan(1, "op", "point", 0.0)
        child = root.child("descend", "root", 0.1)
        root.verbs.append(VerbEvent("read", 0, 64, 0.0, 0.1, False, None))
        child.verbs.append(VerbEvent("read", 1, 64, 0.1, 0.2, True, None))
        child.verbs.append(VerbEvent("cas", 1, 8, 0.2, 0.3, False, 4))
        assert root.verb_counts() == {"read": 2, "cas": 1}
        assert root.verb_counts(remote_only=True) == {"read": 1, "cas": 1}
        assert root.total_verbs() == 3
        assert root.total_verbs(remote_only=True) == 2

    def test_as_dict_mirrors_tree(self):
        root = OpSpan(1, "op", "point", 0.0, client_id=2)
        root.child("descend", "root", 0.1)
        root.verbs.append(VerbEvent("read", 0, 64, 0.0, 0.1, False, None))
        root.finish(0.5)
        rendered = root.as_dict()
        assert rendered["op_id"] == 1
        assert rendered["children"][0]["kind"] == "descend"
        assert rendered["verbs"][0]["verb"] == "read"

    def test_format_is_readable(self):
        root = OpSpan(9, "op", "point", 0.0)
        root.verbs.append(VerbEvent("read", 0, 64, 0.0, 1e-6, True, 3))
        root.child("descend", "root", 0.0)
        text = root.format()
        assert "op:point" in text
        assert "op=9" in text
        assert "local" in text and "b3" in text
        assert "descend:root" in text


class TestHubLifecycle:
    def test_begin_end_op_pins_and_clears_process_span(self):
        sim = Simulator()
        obs = make_obs(sim)
        seen = {}

        def op():
            span = obs.begin_op("op", client_id=5)
            seen["active"] = obs.active_span()
            yield sim.timeout(1e-6)
            obs.end_op(span, "point")
            seen["after"] = obs.active_span()
            seen["span"] = span

        sim.run_until_complete(sim.process(op()))
        assert seen["active"] is seen["span"]
        assert seen["span"].op_id == 1
        assert seen["after"] is None
        assert seen["span"].name == "point"  # placeholder renamed at end
        assert seen["span"].client_id == 5
        assert seen["span"].duration == pytest.approx(1e-6)

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
        span = captured["span"]
        kinds = [(s.kind, s.name) for s in span.iter_spans()]
        assert kinds == [
            ("op", "point"),
            ("descend", "root"),
            ("move_right", "level_2"),
            ("descend", "level_1"),
        ]
        # Nesting: move_right is a child of the root descend.
        assert span.children[0].children[0].name == "level_2"

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
            assert obs.active_span() is span
            yield sim.timeout(1e-6)
            obs.end_op(span, "point")
            captured["span"] = span

        sim.run_until_complete(sim.process(op()))
        assert captured["span"].finished_at is not None

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
        span = captured["span"]
        assert [event.verb for event in span.verbs] == ["read"]
        assert [event.verb for event in span.children[0].verbs] == ["cas"]
        assert span.verb_counts(remote_only=True) == {"read": 1}

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
        assert captured["span"].verb_counts() == {"write": 1}

    def test_active_span_outside_any_process_is_none(self):
        sim = Simulator()
        obs = make_obs(sim)
        assert obs.active_span() is None


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
