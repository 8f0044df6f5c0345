"""Smoke tests: every experiment harness runs end to end at a tiny scale.

These guard the benchmark suite — each ``run``/``print_figure`` pair must
execute and produce plausible structures. Shape assertions live in
test_paper_shapes.py; here we only check plumbing. The gated extensions
(those with a ``BENCH_*.json``) run in test_gate.py instead.
"""

import pytest

from repro.experiments import (
    a4_caching,
    ablation_head_nodes,
    ablation_insert_contention,
    ablation_srq,
    ext_page_size,
    ext_request_skew,
    fig03_analytical,
    fig07_08_throughput,
    fig09_network,
    fig10_datasize,
    fig11_servers,
    fig12_inserts,
    fig13_14_latency,
    fig15_colocation,
)
from repro.experiments.common import cache_hit_rate
from repro.experiments.scale import ExperimentScale

TINY = ExperimentScale(
    num_keys=1_500,
    clients=(8,),
    selectivities=(0.01,),
    data_sizes=(500, 1_500),
    servers_sweep=(2, 4),
    warmup_s=0.0005,
    measure_s=0.0015,
)

pytestmark = pytest.mark.filterwarnings("ignore")


def test_fig03(capsys):
    series = fig03_analytical.run()
    assert set(series) == {
        "fg (unif/skew)",
        "cg_range (unif)",
        "cg_hash (unif)",
        "cg_range/hash (skew)",
    }
    fig03_analytical.main()
    assert "Figure 3" in capsys.readouterr().out


def test_fig07_08(capsys):
    results = fig07_08_throughput.run(skewed=True, scale=TINY)
    assert len(results) == 3 * 2 * 1  # designs x workloads x client counts
    assert all(cell.total_ops > 0 for cell in results.values())
    fig07_08_throughput.print_figure(results, skewed=True, scale=TINY)
    assert "Figure 7" in capsys.readouterr().out


def test_fig09(capsys):
    results = fig09_network.run(scale=TINY)
    fig09_network.print_figure(results, TINY)
    out = capsys.readouterr().out
    assert "Figure 9" in out and "GB/s" in out


def test_fig10(capsys):
    results = fig10_datasize.run(scale=TINY)
    assert len(results) == 3 * 2 * 2
    fig10_datasize.print_figure(results, TINY)
    assert "Figure 10" in capsys.readouterr().out


def test_fig11(capsys):
    results = fig11_servers.run(scale=TINY, num_clients=8)
    assert len(results) == 2 * 2 * 2 * 2
    fig11_servers.print_figure(results, TINY)
    assert "Figure 11" in capsys.readouterr().out


def test_fig12(capsys):
    results = fig12_inserts.run(scale=TINY)
    assert len(results) == 3 * 2
    fig12_inserts.print_figure(results, TINY)
    assert "Figure 12" in capsys.readouterr().out


def test_fig13_14(capsys):
    results = fig13_14_latency.run(skewed=False, scale=TINY)
    fig13_14_latency.print_figure(results, skewed=False, scale=TINY)
    out = capsys.readouterr().out
    assert "Figure 14" in out and ("us" in out or "ms" in out)


def test_fig15(capsys):
    results = fig15_colocation.run(scale=TINY, num_clients=8)
    assert len(results) == 2 * 2 * 2
    fig15_colocation.print_figure(results, TINY)
    assert "co-located" in capsys.readouterr().out


def test_a4_caching(capsys):
    results = a4_caching.run(scale=TINY, num_clients=8)
    (plain_a, _), (cached_a, hit_rate) = results[("A", False)], results[("A", True)]
    assert plain_a.total_ops > 0 and cached_a.total_ops > 0
    assert 0 < hit_rate <= 1
    a4_caching.print_figure(results)
    assert "A.4" in capsys.readouterr().out


def test_ablation_head_nodes(capsys):
    results = ablation_head_nodes.run(scale=TINY, num_clients=8)
    ablation_head_nodes.print_figure(results, TINY)
    assert "head nodes" in capsys.readouterr().out


def test_ablation_srq(capsys):
    results = ablation_srq.run(scale=TINY)
    assert len(results) == 2 * len(TINY.clients)
    ablation_srq.print_figure(results, TINY)
    assert "SRQ" in capsys.readouterr().out


def test_ext_request_skew(capsys):
    results = ext_request_skew.run(scale=TINY, num_clients=8)
    assert len(results) == 4 * 3  # (3 designs + cached FG) x distributions
    assert 0 < cache_hit_rate(results[(ext_request_skew.CACHED, "zipfian")]) <= 1
    ext_request_skew.print_figure(results)
    assert "request skew" in capsys.readouterr().out


def test_ext_page_size(capsys):
    results = ext_page_size.run(scale=TINY, num_clients=8)
    assert len(results) == 2 * len(ext_page_size.PAGE_SIZES)
    ext_page_size.print_figure(results)
    assert "page-size" in capsys.readouterr().out


def test_ablation_insert_contention(capsys):
    results = ablation_insert_contention.run(scale=TINY, readers=8, writers=4)
    assert set(results) == {"coarse-grained", "fine-grained", "hybrid"}
    ablation_insert_contention.print_figure(results, 8, 4)
    assert "spinning" in capsys.readouterr().out
