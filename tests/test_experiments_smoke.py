"""Smoke tests: every figure of the reproduction has its cells and prints.

Plumbing only, one test per figure module: its grid in the session's one
``paper`` run (the ``paper_run`` fixture, tests/conftest.py) has the cells
the scale asks for, and the module's ``print_figure`` renders them under
its heading. The shapes are test_paper_shapes.py's business, the payload
test_gate.py's.
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
from repro.experiments.common import cells_of

pytestmark = pytest.mark.filterwarnings("ignore")


@pytest.fixture
def figure(paper_run, capsys):
    """``figure(grid, module, cells)``: check the grid, return what prints."""

    def check(grid, module, cells):
        mine = cells_of(paper_run, grid)
        assert len(mine) == cells
        assert all(cell.throughput > 0 for cell in mine.values())
        module.print_figure(mine)
        return capsys.readouterr().out

    return check


def test_fig03(figure):
    assert "Figure 3" in figure("fig03", fig03_analytical, 4 * 6)  # series x server counts


def test_fig07_08(figure):
    # placements x designs x workloads x client counts
    out = figure("sweep", fig07_08_throughput, 2 * 3 * 2 * 3)
    assert "Figure 7" in out and "Figure 8" in out


def test_fig09(figure):
    out = figure("sweep", fig09_network, 36)
    assert "Figure 9" in out and "GB/s" in out


def test_fig10(figure):
    assert "Figure 10" in figure("fig10", fig10_datasize, 3 * 2 * 2)


def test_fig11(figure):
    assert "Figure 11" in figure("fig11", fig11_servers, 2 * 2 * 2 * 2)


def test_fig12(figure):
    assert "Figure 12" in figure("fig12", fig12_inserts, 3 * 2 * 3)


def test_fig13_14(figure):
    out = figure("sweep", fig13_14_latency, 36)
    assert "Figure 13" in out and "Figure 14" in out and ("us" in out or "ms" in out)


def test_fig15(figure):
    assert "co-located" in figure("fig15", fig15_colocation, 2 * 2 * 2)


def test_a4_caching(figure, paper_run):
    assert "A.4" in figure("a4", a4_caching, 2 * 2)
    assert 0 < paper_run["a4/A/cached"].cache_hit_rate <= 1


def test_ablation_head_nodes(figure):
    assert "head nodes" in figure("heads", ablation_head_nodes, 3 * 2)


def test_ablation_srq(figure):
    assert "SRQ" in figure("srq", ablation_srq, 2 * 3)


def test_ext_request_skew(figure, paper_run):
    # (3 designs + cached FG) x distributions
    assert "request skew" in figure("reqskew", ext_request_skew, 4 * 3)
    assert 0 < paper_run[f"reqskew/{ext_request_skew.CACHED}/zipfian"].cache_hit_rate <= 1


def test_ext_page_size(figure):
    assert "page-size" in figure("pagesize", ext_page_size, 2 * len(ext_page_size.PAGE_SIZES))


def test_ablation_insert_contention(figure):
    assert "spinning" in figure("contention", ablation_insert_contention, 3)
