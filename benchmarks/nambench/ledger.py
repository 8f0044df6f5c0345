"""The layer ledger: per-layer metrics of one traced run.

Layer = module name. Written down before measuring, README.md lists which
end-to-end metric each of these should move and on which workload. None
is gated. Five sources:

* exact counters of one hub-off rep (``counter_ledger``);
* the hub's attribution of one hub-on rep (``hub_ledger``);
* one ``cProfile`` rep grouped by module (``profile_ledger``);
* the micro ledger: each layer's public function driven in isolation
  (``micro_ledger``);
* the benchmark's own spans (``span_ledger``).

The only hardware-independent reference in the repository is the paper's
analytical model (``analysis/model.py``); ``model.bytes_ratio`` reports
drift against it and asserts nothing. Otherwise the simulator is
unvalidated and no error figure is given.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List

from repro.analysis.model import ModelParams, ScalabilityModel
from repro.btree.node import Node
from repro.btree.pointers import RemotePointer, is_null
from repro.config import ClusterConfig
from repro.experiments.common import build_index
from repro.index.accessors import RemoteAccessor
from repro.nam.cluster import Cluster
from repro.obs.attribution import aggregate_attributions, attribute_span_dict
from repro.workloads import generate_dataset

from cells import DESIGNS, KEY_GAP, NUM_KEYS, Rep, Workload, sim_summary
from host import Calibrator, Spans, calibrated, peak_rss_mib

#: Layers of the host ledgers, and the source files each one owns (first
#: matching prefix of the path below ``repro/`` wins).
LAYERS = ("sim", "rdma", "qp", "btree", "accessors", "index", "nam", "obs",
          "runner", "other")
_LAYER_PREFIXES = (
    ("sim/", "sim"),
    ("rdma/qp.py", "qp"),
    ("rdma/", "rdma"),
    ("btree/", "btree"),
    ("index/accessors.py", "accessors"),
    ("index/caching.py", "accessors"),
    ("index/", "index"),
    ("nam/", "nam"),
    ("obs/", "obs"),
    ("workloads/", "runner"),
)
#: Segments of ``obs.attribution.SEGMENTS`` the ledger reports; the two
#: left out (admission_reject, client_backoff) are zero on every workload.
SEGMENTS = ("lock_wait", "server_cpu", "server_rpc_queue", "nic_queue",
            "network_flight", "client_think")
#: Analytical-model scheme per design (Table 2 columns).
_MODEL_SCHEME = {"cg": "cg_range", "fg": "fg", "hy": "cg_range"}
#: Micro ledger: minimum over MICRO_BLOCKS blocks of MICRO_CALLS calls.
MICRO_BLOCKS = 5
MICRO_CALLS = 2_000


def counter_ledger(workload: Workload, rep: Rep) -> Dict[str, float]:
    """Exact per-operation counters of one hub-off rep."""
    ops = rep.completed
    counters = rep.counters
    cpu = list(rep.result.cpu_utilization.values())
    model = ScalabilityModel(
        ModelParams(
            num_servers=len(cpu),
            page_size=ClusterConfig().tree.page_size,
            data_size=NUM_KEYS,
        )
    )
    scheme = _MODEL_SCHEME[workload.design]
    if workload.spec.range_fraction:
        predicted = model.range_query_bytes(scheme, False, workload.spec.selectivity)
    else:
        predicted = model.point_query_bytes(scheme, False)
    wire_bytes_per_op = counters["wire_bytes"] / ops
    return {
        "sim.events_per_op": counters["events"] / ops,
        "qp.read_per_op": counters["read"] / ops,
        "qp.write_per_op": counters["write"] / ops,
        "qp.atomic_per_op": counters["atomic"] / ops,
        "qp.send_per_op": counters["send"] / ops,
        "qp.payload_bytes_per_op": counters["payload_bytes"] / ops,
        "server.cpu_util_max": max(cpu),
        "server.cpu_util_mean": sum(cpu) / len(cpu),
        "nic.wqes_per_doorbell": counters["wqes"] / counters["doorbells"],
        "nic.wire_bytes_per_op": wire_bytes_per_op,
        "nic.max_port_util": counters["max_port_util"],
        "model.bytes_ratio": wire_bytes_per_op / predicted,
        "runner.sim_p50_us": sim_summary(rep)["sim_p50_us"],
        "runner.host_raw_us_per_op": rep.run_wall_s / ops * 1e6,
        "runner.peak_rss_mib": peak_rss_mib(),
    }


def hub_ledger(off: Rep, on: Rep) -> Dict[str, float]:
    """What the hub saw on one hub-on rep, and what it cost on the host."""
    snapshot = on.result.observability
    shares = aggregate_attributions(
        attribute_span_dict(span) for span in snapshot["sampled_spans"]
    )
    counts = {"nam_cache_hits_total": 0.0, "nam_cache_misses_total": 0.0}
    for metric in snapshot["metrics"]:
        if metric["name"] in counts:
            counts[metric["name"]] += metric["value"]
    looked_up = sum(counts.values())
    ledger = {f"seg.{segment}": shares[segment] for segment in SEGMENTS}
    ledger["cache.hit_rate"] = (
        counts["nam_cache_hits_total"] / looked_up if looked_up else 0.0
    )
    ledger["obs.retries_per_op"] = on.result.retries / on.completed
    ledger["obs.overhead_frac"] = (
        calibrated(on.run_wall_s, on.calibration_s)
        / calibrated(off.run_wall_s, off.calibration_s)
        - 1.0
    )
    return ledger


def _layer_of(filename: str) -> str:
    _, found, tail = filename.replace("\\", "/").rpartition("/repro/")
    if found:
        for prefix, layer in _LAYER_PREFIXES:
            if tail.startswith(prefix):
                return layer
    return "other"


def profile_ledger(profiler: Any, ops: int) -> Dict[str, float]:
    """Group one ``cProfile`` rep by layer.

    ``host_calls.<layer>`` is calls per operation (exact; the layers sum to
    ``host_calls_per_op`` = ``sum(callcount)`` / ops) and
    ``host_share.<layer>`` the layer's share of self time (sums to 1).
    Builtins are charged to the layer of the Python function that called
    them; whatever has no Python caller lands in ``other``.
    """
    calls = dict.fromkeys(LAYERS, 0)
    time = dict.fromkeys(LAYERS, 0.0)
    total_calls = 0
    total_time = 0.0
    for entry in profiler.getstats():
        total_calls += entry.callcount
        total_time += entry.inlinetime
        if isinstance(entry.code, str):
            continue
        layer = _layer_of(entry.code.co_filename)
        calls[layer] += entry.callcount
        time[layer] += entry.inlinetime
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                calls[layer] += callee.callcount
                time[layer] += callee.inlinetime
    calls["other"] += total_calls - sum(calls.values())
    time["other"] += total_time - sum(time.values())
    ledger = {"host_calls_per_op": total_calls / ops}
    for layer in LAYERS:
        ledger[f"host_calls.{layer}"] = calls[layer] / ops
        ledger[f"host_share.{layer}"] = time[layer] / total_time
    return ledger


def matrix_ledger(reps: Dict[str, Rep]) -> Dict[str, float]:
    """The who-wins table of Figs. 7-14: the workload's inputs on all three
    designs, though only one design per workload is gated."""
    ledger = {}
    for design, rep in reps.items():
        summary = sim_summary(rep)
        ledger[f"matrix.sim_kops_per_s.{design}"] = summary["sim_kops_per_s"]
        ledger[f"matrix.sim_p99_tail_us.{design}"] = summary["sim_p99_tail_us"]
    return ledger


def span_ledger(spans: Spans) -> Dict[str, float]:
    """Wall seconds the traced run spent in each of the benchmark's spans."""
    return {
        f"span.{name}_s": spans.total(name)
        for name in ("calib", "setup_dataset", "setup_cluster",
                     "setup_bulk_load", "run", "verify")
    }


# -- micro ledger -------------------------------------------------------------


class _Ping:
    """A request no index knows: times the RPC path without a tree."""

    wire_bytes = 32


def _pong(server, request) -> Generator[Any, Any, tuple]:
    return None, 8
    yield  # pragma: no cover - makes this a generator, as handlers must be


def _leaf_pointers(cluster: Cluster, tree) -> List[int]:
    """Raw pointers of every leaf, left to right (public accessor reads)."""

    def walk() -> Generator[Any, Any, List[int]]:
        raw = yield from tree.root.get()
        node = yield from tree.acc.read_node(raw, True)
        while not node.is_leaf:
            raw = node.values[0]
            node = yield from tree.acc.read_node(raw, True)
        leaves = [raw]
        while not is_null(node.right):
            raw = node.right
            node = yield from tree.acc.read_node(raw, True)
            leaves.append(raw)
        return leaves

    return cluster.execute(walk())


def micro_ledger(calibrator: Calibrator, spans: Spans) -> Dict[str, float]:
    """Calibrated host ns per call of each layer's public function, driven
    in isolation through ``cluster.execute`` on a quiet default cluster."""
    cluster = Cluster(ClusterConfig())
    dataset = generate_dataset(NUM_KEYS, KEY_GAP)
    index = build_index(cluster, DESIGNS["fg"], dataset)
    compute = cluster.new_compute_server()
    sim, fabric = cluster.sim, cluster.fabric
    server = cluster.memory_server(0)
    server.register_handler(_Ping, _pong)
    queue_pair = compute.qp(0)
    page_size = cluster.config.tree.page_size
    scratch = cluster.alloc_control_word(0).offset
    tree = index.tree_for(compute)
    leaves = _leaf_pointers(cluster, tree)
    leaf = leaves[len(leaves) // 2]
    leaf_offset = RemotePointer.from_raw(leaf).offset
    leaf_server = cluster.memory_server(RemotePointer.from_raw(leaf).server_id)
    leaf_qp = compute.qp(leaf_server.server_id)
    image = leaf_server.region.read(leaf_offset, page_size)
    node = Node.from_bytes(image)
    hit_accessor = RemoteAccessor(compute, cluster.config)
    # Enough fresh accessors that every read_node of a block is the first
    # that accessor makes of that leaf: a decode-memo miss.
    miss_accessors = [
        RemoteAccessor(compute, cluster.config)
        for _ in range(MICRO_BLOCKS * -(-MICRO_CALLS // len(leaves)))
    ]
    miss_reads = ((accessor, raw) for accessor in miss_accessors for raw in leaves)
    keys = iter(
        dataset.key_at((i * 7919) % dataset.num_keys)
        for i in range(MICRO_BLOCKS * MICRO_CALLS)
    )

    def timeout() -> Generator[Any, Any, None]:
        yield sim.timeout(1e-6)

    def read_node_miss() -> Generator[Any, Any, Node]:
        accessor, raw = next(miss_reads)
        return (yield from accessor.read_node(raw, True))

    simulated: Dict[str, Callable[[], Generator]] = {
        "micro.sim.timeout_ns": timeout,
        "micro.fabric.transmit_ns": lambda: fabric.transmit(
            compute.port.tx, server.port.rx, 64
        ),
        "micro.qp.read_ns": lambda: leaf_qp.read(leaf_offset, page_size),
        "micro.qp.read_view_ns": lambda: leaf_qp.read_view(leaf_offset, page_size),
        "micro.qp.cas_ns": lambda: queue_pair.compare_and_swap(scratch, 0, 0),
        "micro.qp.write_faa_chain_ns": lambda: queue_pair.write_faa_chain(
            scratch, image
        ),
        "micro.qp.batch2_ns": lambda: queue_pair.batch()
        .write(scratch, image)
        .fetch_and_add(scratch, 1)
        .execute(),
        "micro.qp.call_ns": lambda: queue_pair.call(_Ping(), _Ping.wire_bytes),
        "micro.accessor.read_node_hit_ns": lambda: hit_accessor.read_node(leaf, True),
        "micro.accessor.read_node_miss_ns": read_node_miss,
        "micro.btree.lookup_ns": lambda: tree.lookup(next(keys)),
    }
    direct: Dict[str, Callable[[], Any]] = {
        "micro.memory.read_view_ns": lambda: leaf_server.region.read_view(
            leaf_offset, page_size
        ),
        "micro.node.from_bytes_ns": lambda: Node.from_bytes(image),
        "micro.node.to_bytes_ns": lambda: node.to_bytes(page_size),
    }

    def drive(operation: Callable[[], Generator]) -> Generator[Any, Any, None]:
        for _ in range(MICRO_CALLS):
            yield from operation()

    def call(operation: Callable[[], Any]) -> None:
        for _ in range(MICRO_CALLS):
            operation()

    blocks = {
        **{name: (lambda op=op: cluster.execute(drive(op))) for name, op in simulated.items()},
        **{name: (lambda op=op: call(op)) for name, op in direct.items()},
    }
    ledger = {}
    before = calibrator.walls[-1]
    for name, block in blocks.items():
        walls = []
        for _ in range(MICRO_BLOCKS):
            with spans.span(name) as record:
                block()
            walls.append(record["end"] - record["start"])
        after = calibrator.calibrate()
        ledger[name] = (
            calibrated(min(walls), (before + after) / 2.0) / MICRO_CALLS * 1e9
        )
        before = after
    return ledger
