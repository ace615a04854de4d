"""Tests for the parallel execution layer (repro.parallel).

The layer's contract is strong: for *any* worker count and *any* cache
state, pipeline results are bit-identical to the plain serial run.  The
tests here exercise that contract end-to-end (GA, dataset builders,
tuning grids) plus the failure modes the pool must absorb (dead
workers, unpicklable tasks) and the cache's eviction/disk behavior.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.design import build_core
from repro.errors import ParallelError
from repro.flow import DesignTimeFlow
from repro.genbench import BenchmarkEvolver, GaConfig, build_training_dataset
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import DEFAULT_MIX, Program, random_program
from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    EvalCache,
    WorkerPool,
    make_key,
    program_fingerprint,
    tasks,
    throttle_fingerprint,
)
from repro.rtl import Netlist
from repro.stream import SimulatorSource
from repro.uarch import ThrottleScheme

_PARENT_PID = os.getpid()


# --------------------------------------------------------------------- #
# module-level task functions (fork pickles them by reference)
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError("task failure for item 3")
    return x


def _die_in_worker(x):
    # Kills worker processes only; the parent survives so the serial
    # fallback can still produce the answer.
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return x * 2


def _held_before_build(key):
    # Which of the core's shared objects this process already holds.
    st = tasks.get_state(key)
    fp = st.core.netlist.fingerprint()
    return (
        os.getpid(),
        ("simulator", fp, st.engine) in tasks._STATE,
        ("label_weights", fp) in tasks._STATE,
    )


# --------------------------------------------------------------------- #
# WorkerPool
# --------------------------------------------------------------------- #
class TestWorkerPool:
    def test_serial_when_workers_one(self):
        with WorkerPool(1) as pool:
            assert not pool.parallel
            assert pool.map(_square, range(5)) == [0, 1, 4, 9, 16]
            assert pool._executor is None  # never spawned

    def test_serial_when_fewer_items_than_workers(self):
        with WorkerPool(8) as pool:
            assert pool.map(_square, [2, 3]) == [4, 9]
            assert pool._executor is None

    def test_negative_workers_rejected(self):
        with pytest.raises(ParallelError):
            WorkerPool(-1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_identical_results_across_worker_counts(self, workers):
        items = list(range(11))
        with WorkerPool(workers) as pool:
            assert pool.map(_square, items) == [x * x for x in items]

    def test_app_exception_propagates_serial(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="item 3"):
                pool.map(_raise_on_three, range(6))
            assert not pool.degraded

    def test_app_exception_propagates_parallel(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="item 3"):
                pool.map(_raise_on_three, range(6))
            # A failing task is not a pool failure.
            assert not pool.degraded

    def test_dead_worker_falls_back_to_serial(self):
        reg = MetricsRegistry()
        with WorkerPool(2, metrics=reg) as pool:
            out = pool.map(_die_in_worker, range(6))
            assert out == [x * 2 for x in range(6)]
            assert pool.degraded
            assert not pool.parallel
            assert reg.counter("parallel.pool.degraded").value == 1
            # Subsequent maps stay serial (and still work).
            assert pool.map(_square, range(6)) == [x * x for x in range(6)]

    def test_unpicklable_task_falls_back_to_serial(self):
        with WorkerPool(2) as pool:
            out = pool.map(lambda x: x + 1, range(8))
            assert out == list(range(1, 9))
            assert pool.degraded

    def test_spawn_start_method_is_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        items = list(range(9))
        with WorkerPool(2) as pool:
            assert pool.map(_square, items) == [x * x for x in items]
            assert not pool.degraded

    def test_unavailable_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "bogus")
        with WorkerPool(2) as pool:
            with pytest.raises(ParallelError, match="REPRO_MP_START"):
                pool.map(_square, range(8))

    def test_spawn_fallback_warns_once(self, monkeypatch):
        import multiprocessing

        from repro.parallel import pool as pool_mod

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(pool_mod, "_SPAWN_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="falling back to spawn"):
            assert pool_mod._start_method() == "spawn"
        with warnings.catch_warnings():  # second call is silent
            warnings.simplefilter("error")
            assert pool_mod._start_method() == "spawn"

    def test_shard_covers_everything_contiguously(self):
        for workers in (1, 2, 3, 7):
            pool = WorkerPool(workers)
            for n in (1, 2, 5, 16, 17):
                shards = pool.shard(n)
                assert len(shards) <= min(workers, n)
                flat = [i for sl in shards for i in range(n)[sl]]
                assert flat == list(range(n))
                assert all(sl.stop > sl.start for sl in shards)
            pool.close()

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map(_square, range(4))
        pool.close()
        pool.close()
        assert pool.map(_square, range(4)) == [0, 1, 4, 9]
        pool.close()


# --------------------------------------------------------------------- #
# EvalCache
# --------------------------------------------------------------------- #
class TestEvalCache:
    def test_roundtrip_and_stats(self):
        cache = EvalCache(metrics=MetricsRegistry())
        key = make_key("a", 1)
        assert cache.get(key) is None
        cache.put(key, {"power": np.arange(4.0)})
        hit = cache.get(key)
        np.testing.assert_array_equal(hit["power"], np.arange(4.0))
        s = cache.stats()
        assert (s["hits"], s["misses"], s["stores"]) == (1, 1, 1)
        assert key in cache and len(cache) == 1

    def test_lru_eviction_by_entries(self):
        cache = EvalCache(max_entries=2, metrics=MetricsRegistry())
        for i in range(3):
            cache.put(f"k{i}", {"v": np.full(4, i, dtype=np.float64)})
        assert cache.get("k0") is None  # oldest evicted
        assert cache.get("k2") is not None
        assert cache.stats()["evictions"] == 1

    def test_lru_recency_protects_reused_entries(self):
        cache = EvalCache(max_entries=2, metrics=MetricsRegistry())
        cache.put("a", {"v": np.zeros(2)})
        cache.put("b", {"v": np.zeros(2)})
        cache.get("a")  # refresh a: b becomes the eviction victim
        cache.put("c", {"v": np.zeros(2)})
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_eviction_by_bytes(self):
        one_kb = np.zeros(128, dtype=np.float64)  # 1024 bytes
        cache = EvalCache(max_bytes=2500, metrics=MetricsRegistry())
        for name in ("a", "b", "c"):
            cache.put(name, {"v": one_kb})
        assert len(cache) == 2 and cache.nbytes <= 2500
        assert cache.get("a") is None

    def test_oversized_entry_skips_memory_tier(self, tmp_path):
        cache = EvalCache(
            max_bytes=64, disk_dir=tmp_path, metrics=MetricsRegistry()
        )
        cache.put("big", {"v": np.zeros(1024)})
        assert len(cache) == 0  # too big for memory...
        assert cache.get("big") is not None  # ...but served from disk

    def test_disk_tier_survives_memory_clear(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry())
        cache.put("k", {"v": np.arange(8.0), "w": np.eye(2)})
        cache.clear_memory()
        assert len(cache) == 0
        hit = cache.get("k")
        np.testing.assert_array_equal(hit["v"], np.arange(8.0))
        np.testing.assert_array_equal(hit["w"], np.eye(2))
        assert cache.stats()["disk_hits"] == 1
        assert len(cache) == 1  # promoted back into memory

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry())
        (tmp_path / "bad.npz").write_bytes(b"this is not a zipfile")
        assert cache.get("bad") is None
        assert cache.stats()["misses"] == 1

    def test_bad_limits_rejected(self):
        with pytest.raises(ParallelError):
            EvalCache(max_entries=0)
        with pytest.raises(ParallelError):
            EvalCache(max_bytes=0)


# --------------------------------------------------------------------- #
# fingerprints / keys
# --------------------------------------------------------------------- #
class TestFingerprints:
    def _tiny_netlist(self):
        nl = Netlist("fp")
        a = nl.input_bit("a")
        b = nl.input_bit("b")
        nl.and_(a, b)
        return nl

    def test_netlist_fingerprint_deterministic(self):
        assert (
            self._tiny_netlist().fingerprint()
            == self._tiny_netlist().fingerprint()
        )

    def test_netlist_fingerprint_tracks_structure(self):
        nl = self._tiny_netlist()
        before = nl.fingerprint()
        nl.xor(0, 1)
        assert nl.fingerprint() != before

    def test_program_fingerprint_ignores_name(self):
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        p1 = random_program(rng1, 16, DEFAULT_MIX, name="first")
        p2 = random_program(rng2, 16, DEFAULT_MIX, name="second")
        assert program_fingerprint(p1) == program_fingerprint(p2)
        p3 = random_program(np.random.default_rng(4), 16, DEFAULT_MIX)
        assert program_fingerprint(p1) != program_fingerprint(p3)

    def test_throttle_fingerprint(self):
        assert throttle_fingerprint(None) == "none"
        t1 = ThrottleScheme(max_issue=1, period=8, duty=0.5)
        t2 = ThrottleScheme(max_issue=1, period=8, duty=0.5)
        t3 = ThrottleScheme(max_issue=2, period=8, duty=0.5)
        assert throttle_fingerprint(t1) == throttle_fingerprint(t2)
        assert throttle_fingerprint(t1) != throttle_fingerprint(t3)

    def test_make_key_separates_parts(self):
        # ("ab", "c") and ("a", "bc") must not collide.
        assert make_key("ab", "c") != make_key("a", "bc")
        assert make_key("x", 1) == make_key("x", 1)

    def test_make_key_type_tagged(self):
        # Regression: str() coercion used to make these identical.
        assert make_key(1, "2") != make_key("1", 2)
        assert make_key(12) != make_key("12")
        assert make_key(True) != make_key(1)
        # NumPy integer scalars normalize to int — a key built from a
        # config value and one from an array element must agree.
        assert make_key("x", np.int64(500)) == make_key("x", 500)

    def test_fingerprints_match_golden_digests(self):
        # Pinned digests: these must never drift across NumPy/Python
        # versions or refactors.  If a change is intentional, bump
        # CACHE_SCHEMA in repro.parallel.cache and re-pin.
        prog = Program("golden", (
            Instruction(Opcode.ADD, dst=1, src1=2, src2=3, imm=0),
            Instruction(Opcode.MOVI, dst=4, src1=0, src2=0, imm=77),
        ))
        assert program_fingerprint(prog) == (
            "8a99122d23b7f18c291080e449c41d3aa1d8c6b26ad5598de49a64d4975abea2"
        )
        thr = ThrottleScheme(max_issue=1, period=8, duty=0.5)
        assert throttle_fingerprint(thr) == (
            "fd91a0eac9ab64c485fb37c5cf2069d79b349a858970f9fd08a8ca37009c0a31"
        )
        assert make_key("ga-power", "abcd1234", 500, "fp") == (
            "3f200e92153e21ee75572c6b207369e262fe4d0f63b0d856e9529fcd7f5e81fb"
        )

    def test_program_fingerprint_numpy_scalar_fields(self):
        # Instruction fields sourced from NumPy arrays (e.g. random
        # generation) must hash identically to plain-int fields;
        # repr()-based hashing broke this under NumPy 2.x.
        ints = Program("a", (
            Instruction(Opcode.ADD, dst=1, src1=2, src2=3, imm=9),
        ))
        npints = Program("b", (
            Instruction(
                Opcode.ADD,
                dst=np.int64(1), src1=np.int64(2),
                src2=np.int64(3), imm=np.int64(9),
            ),
        ))
        assert program_fingerprint(ints) == program_fingerprint(npints)


# --------------------------------------------------------------------- #
# GA integration: bit-identity, elite reuse, vectorized dI/dt
# --------------------------------------------------------------------- #
def _ga_cfg() -> GaConfig:
    return GaConfig(
        population=6, generations=3, eval_cycles=100,
        program_length=16, seed=5,
    )


def _ga_signature(result):
    return [
        (program_fingerprint(i.program), i.power, i.generation, i.fitness)
        for i in result.individuals
    ]


@pytest.mark.parametrize("engine", ["uint8", "packed"])
def test_ga_parallel_cached_bit_identical(small_core, engine, tmp_path):
    with BenchmarkEvolver(small_core, _ga_cfg(), engine=engine) as ev:
        baseline = ev.run()
    cache = EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry())
    with BenchmarkEvolver(
        small_core, _ga_cfg(), engine=engine, workers=2, cache=cache
    ) as ev:
        result = ev.run()
        assert not ev.pool.degraded
    assert _ga_signature(result) == _ga_signature(baseline)
    # Warm rerun: everything comes from the cache, still identical.
    with BenchmarkEvolver(
        small_core, _ga_cfg(), engine=engine, workers=2, cache=cache
    ) as ev:
        rerun = ev.run()
        assert ev.n_simulated == 0
        assert ev.n_cache_hits > 0
    assert _ga_signature(rerun) == _ga_signature(baseline)


def test_elite_reuse_identical_with_fewer_simulations(small_core):
    # Elites carry their measured traces into the next generation; each
    # carried trace must be the bits a fresh simulation would produce.
    cfg = _ga_cfg()
    carried = []
    with BenchmarkEvolver(small_core, cfg) as ev:
        measure = ev._power_traces

        def spy(programs, known=None):
            for pos, trace in (known or {}).items():
                carried.append((programs[pos], np.array(trace)))
            return measure(programs, known=known)

        ev._power_traces = spy
        ev.run()
        assert ev.n_simulated == (
            cfg.generations * cfg.population
            - (cfg.generations - 1) * cfg.elite
        )
        assert ev.n_elite_reuses == (cfg.generations - 1) * cfg.elite
        assert len(carried) == (cfg.generations - 1) * cfg.elite
        for program, trace in carried:
            assert measure([program])[0].tobytes() == trace.tobytes()


def test_measure_didt_matches_loop_reference(small_core):
    ev = BenchmarkEvolver(
        small_core, GaConfig(population=4, generations=1, didt_window=3)
    )
    try:
        rng = np.random.default_rng(0)
        for _ in range(5):
            traces = rng.uniform(0.0, 30.0, size=(7, 64))
            np.testing.assert_allclose(
                ev.measure_didt(traces),
                ev._measure_didt_loop(traces),
                rtol=1e-12,
            )
    finally:
        ev.close()


# --------------------------------------------------------------------- #
# one compiled core per process (repro.parallel.tasks)
# --------------------------------------------------------------------- #
def test_cores_sharing_a_netlist_keep_their_own_pipelines(small_core):
    # A throttle scheme changes the pipeline, not the netlist: the two
    # cores share a simulator but must not share pipeline state.
    throttled = build_core(
        small_core.params.with_throttle(ThrottleScheme(max_issue=1))
    )
    assert throttled.netlist.fingerprint() == small_core.netlist.fingerprint()
    cfg = GaConfig(population=4, generations=2, seed=3)
    with BenchmarkEvolver(small_core, cfg) as ev:
        expected = [i.power for i in ev.run().individuals]
    with BenchmarkEvolver(small_core, cfg) as ev:
        with BenchmarkEvolver(throttled, cfg) as ev_throttled:
            throttled_powers = [
                i.power for i in ev_throttled.run().individuals
            ]
        assert [i.power for i in ev.run().individuals] == expected
        assert ev_throttled.simulator is ev.simulator
    assert throttled_powers != expected


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="no fork start method on this platform",
)
def test_forked_workers_keep_the_parents_compiled_core(
    small_core, monkeypatch
):
    monkeypatch.setenv("REPRO_MP_START", "fork")
    key = tasks.state_key_for(small_core, "packed")
    with BenchmarkEvolver(small_core, _ga_cfg(), workers=2) as ev:
        held = ev.pool.map(_held_before_build, [key, key])
        assert not ev.pool.degraded
    assert all(pid != os.getpid() for pid, _s, _w in held)
    assert [(s, w) for _pid, s, w in held] == [(True, True)] * 2


def test_one_simulator_per_core_per_process(small_core, small_model):
    program = random_program(np.random.default_rng(0), 8, DEFAULT_MIX)
    with BenchmarkEvolver(small_core, _ga_cfg()) as a, BenchmarkEvolver(
        small_core, GaConfig(population=4, generations=1)
    ) as b:
        flow = DesignTimeFlow(small_core, small_model)
        source = SimulatorSource.from_program(
            small_core, small_model.proxies, program, cycles=8
        )
        assert a.simulator is b.simulator
        assert flow._sim is a.simulator
        assert source.sim is a.simulator


# --------------------------------------------------------------------- #
# dataset + tuning parity
# --------------------------------------------------------------------- #
def test_dataset_parallel_cached_bit_identical(small_core, small_ga):
    kw = dict(target_cycles=600, replay_cycles=150)
    serial = build_training_dataset(small_core, small_ga, **kw)
    cache = EvalCache(metrics=MetricsRegistry())
    par = build_training_dataset(
        small_core, small_ga, workers=2, cache=cache, **kw
    )
    np.testing.assert_array_equal(serial.labels, par.labels)
    np.testing.assert_array_equal(
        serial.trace.packed, par.trace.packed
    )
    assert serial.segments == par.segments
    assert cache.stats()["stores"] > 0
    # Warm rebuild: all simulation skipped, same bits.
    again = build_training_dataset(
        small_core, small_ga, workers=2, cache=cache, **kw
    )
    assert cache.stats()["misses"] == cache.stats()["stores"]
    np.testing.assert_array_equal(serial.labels, again.labels)
    np.testing.assert_array_equal(
        serial.trace.packed, again.trace.packed
    )


def test_tuning_workers_parity():
    from repro.core.tuning import tune_q, tune_ridge

    rng = np.random.default_rng(2)
    X = rng.integers(0, 2, size=(240, 24)).astype(np.float32)
    w = np.zeros(24)
    w[[1, 5, 9]] = (2.0, 1.0, 3.0)
    y = X @ w + 0.1 * rng.standard_normal(240)

    for fn, kw in (
        (tune_ridge, dict(q=4)),
        (tune_q, dict(q_grid=[2, 4, 8])),
    ):
        serial = fn(X, y, workers=1, **kw)
        fanned = fn(X, y, workers=2, **kw)
        assert serial.best == fanned.best
        assert serial.scores == fanned.scores
