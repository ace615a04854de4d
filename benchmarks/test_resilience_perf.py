"""Benchmarks of the resilience layer (repro.resilience).

The headline number is **checkpoint overhead**: the time a GA run spends
in its per-generation checkpoints (the ``ga.checkpoint`` spans around
each save) over the fastest bare run of the same GA, reported in
``extra_info`` and asserted under the 5% budget the design doc promises
for every checkpointed run.  Bare and checkpointed runs alternate
inside one test so host drift hits both sides alike.  A second
benchmark tracks raw ``CheckpointStore`` save+load+verify throughput so
a regression in the atomic-write/hash path is visible even before it
moves the GA number.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.genbench import BenchmarkEvolver, GaConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.parallel import program_fingerprint
from repro.resilience import CheckpointStore

#: Checkpoint overhead budget, as a fraction of bare GA wall time.
OVERHEAD_BUDGET = 0.05

#: GA runs per side in the overhead test.
OVERHEAD_ROUNDS = 5


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


def test_perf_ga_bare(benchmark, core, cfg):
    """Baseline: one GA run with no checkpointing."""

    def run():
        with BenchmarkEvolver(core, cfg) as ev:
            return ev.run()

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.extra_info["n_individuals"] = str(len(result.individuals))


def test_perf_ga_checkpoint_overhead(benchmark, core, cfg, tmp_path):
    """GA with per-generation checkpoints: overhead must stay < 5%.

    Every generation saves population, elite traces, counters, and RNG
    state through the hash-verified atomic-write path; the result must
    still be bit-identical to the bare run.  Bare and checkpointed runs
    alternate ``OVERHEAD_ROUNDS`` times each.  A checkpointed run's
    overhead is the summed time of its ``ga.checkpoint`` spans over the
    fastest bare run: timed on the save path itself, not as the
    difference of two whole-run wall times, which host drift swamps.
    """

    def bare():
        with BenchmarkEvolver(core, cfg) as ev:
            return ev.run(), None, None

    def checkpointed():
        store = CheckpointStore(
            tmp_path / f"ck-{time.monotonic_ns()}",
            metrics=MetricsRegistry(),
        )
        tracer = Tracer()
        with BenchmarkEvolver(
            core, cfg, checkpoints=store, tracer=tracer
        ) as ev:
            result = ev.run()
        saves = store.metrics.counter("resilience.checkpoint.saves").value
        return result, saves, tracer.total_seconds("ga.checkpoint")

    def alternate():
        runs = {bare: [], checkpointed: []}
        for _ in range(OVERHEAD_ROUNDS):
            for side in (bare, checkpointed):
                t0 = time.perf_counter()
                result, saves, save_s = side()
                runs[side].append((
                    time.perf_counter() - t0, _signature(result), saves,
                    save_s,
                ))
        return runs[bare], runs[checkpointed]

    bare_runs, ck_runs = benchmark.pedantic(
        alternate, rounds=1, iterations=1
    )
    bare_sig = bare_runs[0][1]
    assert all(sig == bare_sig for _t, sig, _n, _s in bare_runs + ck_runs)
    assert all(saves == cfg.generations for _t, _sig, saves, _s in ck_runs)

    bare_s = min(t for t, _sig, _n, _s in bare_runs)
    overheads = [save_s / bare_s for _t, _sig, _n, save_s in ck_runs]
    benchmark.extra_info["bare_s"] = f"{bare_s:.4f}"
    benchmark.extra_info["checkpoint_s"] = ",".join(
        f"{save_s:.4f}" for _t, _sig, _n, save_s in ck_runs
    )
    benchmark.extra_info["checkpoint_overhead_frac"] = (
        f"{max(overheads):.4f}"
    )
    benchmark.extra_info["checkpoints_per_run"] = str(cfg.generations)
    assert max(overheads) < OVERHEAD_BUDGET, (
        f"checkpoint overhead {max(overheads):.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget (per run: "
        + ", ".join(f"{o:.1%}" for o in overheads)
        + f"; fastest bare run {bare_s:.3f} s)"
    )


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
