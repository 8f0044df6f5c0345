"""Runnable experiment harnesses — one module per reproduced table/figure.

Each module exposes ``run(scale=...) -> results`` and a ``main()`` that
prints the paper-shaped series; run them with e.g.::

    python -m repro.experiments.fig03_analytical
    python -m repro.experiments.fig07_08_throughput --skew
    python -m repro.experiments.fig12_inserts

The pytest benchmarks in ``benchmarks/`` call the same ``run`` functions
at a reduced scale (see :mod:`repro.experiments.scale`). The extensions
with a committed ``BENCH_*.json`` have no ``main``: they publish ``CLAIMS``
and ``WALL_FIELDS`` and are run and judged by ``python -m repro gate``
(:mod:`repro.experiments.gate`).
"""

from repro.experiments.scale import DEFAULT, SMALL, ExperimentScale

__all__ = ["DEFAULT", "SMALL", "ExperimentScale"]
