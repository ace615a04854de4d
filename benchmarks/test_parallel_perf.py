"""Benchmarks of the parallel execution layer (repro.parallel).

Times GA fitness evaluation three ways — plain serial, a cold
WorkerPool+EvalCache run, and a warm-cache rerun — asserting along the
way that every configuration produces a bit-identical ``GaResult``
(the layer's core contract: workers and caching are pure throughput
knobs).  The serial-vs-warm speedup and the warm run's cache hit rate
land in ``extra_info``, next to the wall times.

The GA is seed-deterministic, so a warm cache turns every fitness
evaluation into a content-addressed lookup; on single-core runners the
recorded speedup comes from the cache, on multi-core runners from the
pool as well.
"""

from __future__ import annotations

import time

import pytest

from repro.genbench import BenchmarkEvolver, GaConfig
from repro.parallel import EvalCache, program_fingerprint

WORKERS = 4

#: Cross-test scratch: the serial baseline feeds the speedup number.
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


def _serial_baseline(core, cfg):
    if "serial_sig" not in _RESULTS:
        t0 = time.perf_counter()
        with BenchmarkEvolver(core, cfg) as ev:
            result = ev.run()
        _RESULTS["serial_mean"] = time.perf_counter() - t0
        _RESULTS["serial_sig"] = _signature(result)
    return _RESULTS["serial_sig"]


def test_perf_ga_serial(benchmark, core, cfg):
    """Baseline: one GA run, no pool, no cache."""

    def run():
        with BenchmarkEvolver(core, cfg) as ev:
            return ev.run()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    _RESULTS["serial_mean"] = float(benchmark.stats.stats.mean)
    _RESULTS["serial_sig"] = _signature(result)
    benchmark.extra_info["n_individuals"] = str(len(result.individuals))


def test_perf_ga_pool_warm_cache(benchmark, core, cfg, tmp_path):
    """GA with a 4-worker pool and a warm content-addressed cache.

    The cold pass fills the cache (and is itself checked bit-identical
    to serial); the timed warm passes serve every evaluation from the
    cache.  Asserts the >= 1.5x speedup and a positive hit rate that
    ``make bench-parallel`` is meant to track.
    """
    serial_sig = _serial_baseline(core, cfg)
    cache = EvalCache(disk_dir=tmp_path / "evc")

    with BenchmarkEvolver(core, cfg, workers=WORKERS, cache=cache) as ev:
        cold = ev.run()
    assert _signature(cold) == serial_sig

    def run():
        with BenchmarkEvolver(
            core, cfg, workers=WORKERS, cache=cache
        ) as ev:
            result = ev.run()
            _RESULTS["warm_hits"] = ev.n_cache_hits
            _RESULTS["warm_sim"] = ev.n_simulated
            _RESULTS["warm_reuse"] = ev.n_elite_reuses
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert _signature(result) == serial_sig

    evaluated = (
        _RESULTS["warm_hits"] + _RESULTS["warm_sim"]
        + _RESULTS["warm_reuse"]
    )
    hit_rate = _RESULTS["warm_hits"] / max(1, evaluated)
    speedup = (
        _RESULTS["serial_mean"] / float(benchmark.stats.stats.mean)
    )
    assert hit_rate > 0.0
    assert _RESULTS["warm_sim"] == 0
    assert speedup >= 1.5
    benchmark.extra_info["speedup_pool_vs_serial"] = f"{speedup:.2f}"
    benchmark.extra_info["cache_hit_rate"] = f"{hit_rate:.3f}"
    benchmark.extra_info["workers"] = str(WORKERS)
