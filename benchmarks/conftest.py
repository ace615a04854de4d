"""Benchmark fixtures: shared experiment contexts and result output.

``pytest benchmarks/ --benchmark-only`` regenerates every table and figure
of the paper.  Contexts are session-scoped and the underlying datasets are
disk-cached under ``.artifacts``, so the first invocation pays the full
pipeline cost and later ones only the experiment math.

Each benchmark writes its rendered table to ``results/<id>.txt`` and
attaches the experiment summary to the benchmark's ``extra_info`` so the
numbers appear in ``--benchmark-json`` output too.  The repo's
benchmark of record is ``perfbench/run.py``; these suites check their
own assertions (bit-identity, overhead budgets) and report timings.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import ExperimentContext, run_experiment

SCALE = os.environ.get("REPRO_BENCH_SCALE", "default")


@pytest.fixture(scope="session")
def ctx_n1():
    return ExperimentContext(design="n1", scale=SCALE)


@pytest.fixture(scope="session")
def ctx_a77():
    return ExperimentContext(design="a77", scale=SCALE)


@pytest.fixture(scope="session")
def results_dir():
    path = Path(__file__).resolve().parents[1] / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture
def run_exp(benchmark, results_dir):
    """Run an experiment under the benchmark timer; save its rendering."""

    def _run(exp_id: str, ctx, **kw):
        result = benchmark.pedantic(
            lambda: run_experiment(exp_id, ctx=ctx, **kw),
            rounds=1,
            iterations=1,
        )
        (results_dir / f"{result.id}.txt").write_text(
            result.render() + "\n"
        )
        benchmark.extra_info.update(
            {k: str(v) for k, v in result.summary.items()}
        )
        return result

    return _run

