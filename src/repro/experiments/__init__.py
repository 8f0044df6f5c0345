"""Experiment harnesses — one module per reproduced table/figure.

Each module exposes ``run(scale=...) -> results`` and
``print_figure(results)``, which prints the paper-shaped series; run them
through the CLI (``python -m repro list`` shows every key)::

    python -m repro run fig03
    python -m repro run fig07 --small
    python -m repro run fig12 --small --csv fig12.csv

A figure module also holds the shapes EXPERIMENTS.md reports for it as
``CLAIMS``; :mod:`repro.experiments.paper` runs all of them once and
``python -m repro gate paper`` judges that run — cells to the digit, every
claim by name — against ``BENCH_paper.json``. The extensions with a
committed ``BENCH_*.json`` of their own publish ``CLAIMS`` and
``WALL_FIELDS`` the same way (:mod:`repro.experiments.gate`).
"""

from repro.experiments.scale import DEFAULT, SMALL, ExperimentScale

__all__ = ["DEFAULT", "SMALL", "ExperimentScale"]
