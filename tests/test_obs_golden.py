"""The hub's outputs, pinned: snapshot, attribution and Chrome trace goldens.

One seeded short closed-loop run per design (coarse-grained, fine-grained,
hybrid) with every operation sampled and doorbell batching on — so READ
chains from the prefetch fan-out and the WRITE+FAA unlock chain appear —
plus one fine-grained point/insert run under a lossy :class:`FaultPlan`,
so retries, ``client_backoff`` stamps and an errored operation's flight
bundle appear. The clean mix has range scans wide enough to cross
partitions: the hybrid and coarse-grained runs scan several partitions in
parallel sub-processes, each with its own open step.

Each golden under ``tests/golden_obs/`` holds what the hub reported for
that run: ``snapshot()`` (metrics including ``updated_at``, every span
dict, flight bundles), ``attribute_span_dict`` of each retained span, and
``chrome_trace()``. They were recorded at commit 377182d, *before* the
span tree was replaced by the flat per-operation event log, and are
compared key for key — the refactor may not move one of them. Regenerate
(only when an output is meant to change, and say why in the commit) with
``PYTHONPATH=src python tests/test_obs_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import Cluster, ClusterConfig, FaultPlan
from repro.config import ObservabilityConfig, TreeConfig
from repro.experiments.common import build_index
from repro.obs import attribute_span_dict, chrome_trace
from repro.workloads import WorkloadRunner, WorkloadSpec, generate_dataset

GOLDEN_DIR = Path(__file__).resolve().parent / "golden_obs"

MIX = WorkloadSpec(
    name="golden-mix",
    point_fraction=0.5,
    range_fraction=0.2,
    insert_fraction=0.3,
    selectivity=0.15,
)
#: The lossy run drops the scans: the chains are pinned by the clean runs,
#: and a retried 40-verb scan is mostly golden bytes.
LOSSY_MIX = WorkloadSpec(name="golden-lossy", point_fraction=0.6, insert_fraction=0.4)

#: name -> (design, lossy)
RUNS = {
    "cg": ("coarse-grained", False),
    "fg": ("fine-grained", False),
    "hybrid": ("hybrid", False),
    "fg_lossy": ("fine-grained", True),
}


def hub_outputs(design: str, lossy: bool) -> dict:
    """Run the seeded cell and return everything the hub reports about it,
    passed through JSON so it compares against a loaded golden."""
    cluster = Cluster(
        ClusterConfig(
            num_memory_servers=4,
            clients_per_compute_server=2,
            seed=23,
            # Head-node chains + a prefetch window: range scans fan out
            # through read_nodes, which posts READ chains.
            tree=TreeConfig(page_size=256, head_node_interval=8, prefetch_window=8),
            # Timeouts stretch the lossy run twentyfold; its thresholds follow.
            observability=ObservabilityConfig(
                enabled=True,
                sample_every=1,
                slow_op_threshold_s=5e-4 if lossy else 2e-5,
                timeseries_cadence_s=1e-3 if lossy else 5e-5,
                flight_ring=16,
                bucket_count=24,
            ),
        )
    )
    assert cluster.config.network.doorbell_batching
    if lossy:
        cluster.attach_faults(FaultPlan(seed=97, drop_probability=0.2))
    dataset = generate_dataset(600, gap=4)
    index = build_index(cluster, design, dataset)
    runner = WorkloadRunner(cluster, dataset)
    result = runner.run(
        index, LOSSY_MIX if lossy else MIX, num_clients=3, ops_per_client=6, seed=29
    )
    snapshot = result.observability
    spans = snapshot["sampled_spans"] + snapshot["slow_spans"]
    return json.loads(
        json.dumps(
            {
                "retries": result.retries,
                "snapshot": snapshot,
                "attribution": [attribute_span_dict(span) for span in spans],
                "chrome_trace": chrome_trace(snapshot),
            }
        )
    )


def _verbs(span: dict):
    yield from span["verbs"]
    for child in span["children"]:
        yield from _verbs(child)


def assert_same(actual, golden, path: str = "") -> None:
    """Key-for-key equality with a readable path to the first difference."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: {actual!r} is not a dict"
        assert sorted(actual) == sorted(golden), f"{path}: keys differ"
        for key, value in golden.items():
            assert_same(actual[key], value, f"{path}.{key}")
    elif isinstance(golden, list):
        assert isinstance(actual, list), f"{path}: {actual!r} is not a list"
        assert len(actual) == len(golden), (
            f"{path}: {len(actual)} items, golden has {len(golden)}"
        )
        for index, value in enumerate(golden):
            assert_same(actual[index], value, f"{path}[{index}]")
    else:
        assert actual == golden, f"{path}: {actual!r} != golden {golden!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_hub_outputs_match_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_same(hub_outputs(*RUNS[name]), golden, name)


def test_goldens_cover_what_they_claim():
    """The scenarios exercise the shapes the refactor could break."""
    goldens = {
        name: json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        for name in RUNS
    }
    for name, golden in goldens.items():
        spans = golden["snapshot"]["sampled_spans"]
        assert len(spans) == golden["snapshot"]["ops_observed"] == 18, name
        assert golden["snapshot"]["slow_spans"] or name == "cg", name
        assert any(span["children"] for span in spans), name
    fg = [v for s in goldens["fg"]["snapshot"]["sampled_spans"] for v in _verbs(s)]
    chains: dict = {}
    for verb in fg:
        if verb["batch_id"] is not None:
            chains.setdefault(verb["batch_id"], []).append(verb["verb"])
    assert any(set(chain) == {"read"} and len(chain) > 1 for chain in chains.values())
    assert ["write", "fetch_add"] in chains.values()
    lossy = goldens["fg_lossy"]
    assert lossy["retries"] > 0
    assert [d["trigger"] for d in lossy["snapshot"]["flight"]["dumps"]] == ["errored-op"]
    assert any(a["client_backoff"] > 0.0 for a in lossy["attribution"])
    # Parallel partition scans: one op with two sibling sub-trees open at once.
    for name in ("cg", "hybrid"):
        spans = goldens[name]["snapshot"]["sampled_spans"]
        assert any(
            a["finished_at"] > b["started_at"]
            for span in spans
            for a, b in zip(span["children"], span["children"][1:])
        ), name


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for run_name, args in RUNS.items():
        target = GOLDEN_DIR / f"{run_name}.json"
        target.write_text(json.dumps(hub_outputs(*args), sort_keys=True) + "\n")
        print(f"recorded {target} ({target.stat().st_size} bytes)")
