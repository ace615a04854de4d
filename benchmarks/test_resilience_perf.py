"""Benchmarks of the resilience layer (repro.resilience).

The headline number is **checkpoint overhead**: the same GA run timed
bare and with per-generation checkpointing, with the relative slowdown
reported in ``extra_info`` and asserted under the 5% budget the design
doc promises.  A second benchmark tracks raw
``CheckpointStore`` save+load+verify throughput so a regression in the
atomic-write/hash path is visible even before it moves the GA number.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.genbench import BenchmarkEvolver, GaConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel import program_fingerprint
from repro.resilience import CheckpointStore

#: Checkpoint overhead budget, as a fraction of bare GA wall time.
OVERHEAD_BUDGET = 0.05

#: Cross-test scratch: the bare baseline feeds the overhead number.
_RESULTS: dict = {}


@pytest.fixture(scope="module")
def core(ctx_n1):
    return ctx_n1.core


@pytest.fixture(scope="module")
def cfg():
    return GaConfig(
        population=12, generations=5, eval_cycles=240, seed=11
    )


def _signature(result):
    return [
        (program_fingerprint(i.program), i.power, i.generation, i.fitness)
        for i in result.individuals
    ]


def _bare_baseline(core, cfg):
    if "bare_sig" not in _RESULTS:
        t0 = time.perf_counter()
        with BenchmarkEvolver(core, cfg) as ev:
            result = ev.run()
        _RESULTS["bare_mean"] = time.perf_counter() - t0
        _RESULTS["bare_sig"] = _signature(result)
    return _RESULTS["bare_sig"]


def test_perf_ga_bare(benchmark, core, cfg):
    """Baseline: one GA run with no checkpointing."""

    def run():
        with BenchmarkEvolver(core, cfg) as ev:
            return ev.run()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    _RESULTS["bare_mean"] = float(benchmark.stats.stats.mean)
    _RESULTS["bare_sig"] = _signature(result)
    benchmark.extra_info["n_individuals"] = str(len(result.individuals))


def test_perf_ga_checkpoint_overhead(benchmark, core, cfg, tmp_path):
    """GA with per-generation checkpoints: overhead must stay < 5%.

    Every generation saves population, elite traces, counters, and RNG
    state through the hash-verified atomic-write path; the result must
    still be bit-identical to the bare run, and the wall-time cost of
    all that durability is the fraction this benchmark asserts on.
    """
    bare_sig = _bare_baseline(core, cfg)

    def run():
        store = CheckpointStore(
            tmp_path / f"ck-{time.monotonic_ns()}",
            metrics=MetricsRegistry(),
        )
        with BenchmarkEvolver(core, cfg, checkpoints=store) as ev:
            result = ev.run()
        _RESULTS["saves"] = store.metrics.counter(
            "resilience.checkpoint.saves"
        ).value
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert _signature(result) == bare_sig
    assert _RESULTS["saves"] == cfg.generations

    overhead = (
        float(benchmark.stats.stats.mean) / _RESULTS["bare_mean"] - 1.0
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"checkpoint overhead {overhead:.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )
    benchmark.extra_info["checkpoint_overhead_frac"] = f"{overhead:.4f}"
    benchmark.extra_info["checkpoints_per_run"] = str(cfg.generations)


def test_perf_checkpoint_store_roundtrip(benchmark, tmp_path):
    """Raw save+load+verify throughput of a GA-sized checkpoint."""
    rng = np.random.default_rng(0)
    arrays = {
        "pop": rng.integers(0, 2, size=(12, 16, 5)).astype(np.int64),
        "traces": rng.integers(0, 255, size=(4, 240, 64)).astype(
            np.uint8
        ),
        "scores": rng.random(12),
    }
    meta = {"generation": 3, "identity": "bench"}
    store = CheckpointStore(
        tmp_path / "ck", keep=3, metrics=MetricsRegistry()
    )
    state = {"step": 0}

    def roundtrip():
        state["step"] += 1
        store.save("bench", state["step"], arrays, meta=meta)
        return store.load("bench", state["step"])

    ck = benchmark.pedantic(roundtrip, rounds=5, iterations=2)
    np.testing.assert_array_equal(ck.arrays["pop"], arrays["pop"])
    per_sec = 1.0 / float(benchmark.stats.stats.mean)
    benchmark.extra_info["roundtrips_per_sec"] = f"{per_sec:.1f}"
