"""Experiment drivers: one module per table/figure of the paper.

Everything runs through an :class:`~repro.experiments.context.ExperimentContext`
that caches the expensive shared pipeline (design build, GA training-data
generation, gate-level feature/label collection, trained models) on disk
under ``.artifacts/`` and in memory, so regenerating all tables and
figures costs one pipeline run per design.

Use :func:`repro.experiments.runner.run_experiment` (or the
``apollo-repro`` CLI) to execute by id: ``table1``, ``table3``,
``table4``, ``table5``, ``fig03``, ``fig09``, ``fig10``, ``fig11``,
``fig12``, ``fig13``, ``fig14``, ``fig15a``, ``fig15b``, ``fig16``,
``fig17``, ``sec7_5``, ``sec8_1``, ``ablations``.

A context given an ``eval_cache`` (the CLI's ``--cache-dir``) reuses
finished simulation runs, and an interrupted dataset build resumes from
it: the runs it finished come back as cache hits (across processes only
with a disk tier).
"""

from repro.experiments.context import ExperimentContext
from repro.experiments.runner import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)

__all__ = [
    "ExperimentContext",
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
]
