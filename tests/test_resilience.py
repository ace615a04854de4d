"""Chaos and property tests for the resilience layer (repro.resilience).

The load-bearing property mirrors the serial/parallel identity: a
pipeline run interrupted at *any* stage boundary and resumed produces
**bit-identical** output to an uninterrupted run — on both engines,
with and without workers.  The GA and a dataset build both resume from
the runs their cache holds.  Everything else here exercises the failure
paths (corrupt cache entries, dead workers, stalled sources, retry
exhaustion, plans naming sites a harness never fires) that the fault
injector makes deterministic.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import ResilienceError, TransientFault
from repro.genbench import (
    BenchmarkEvolver,
    GaConfig,
    build_testing_dataset,
    build_training_dataset,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import RunManifest
from repro.parallel import EvalCache, WorkerPool, program_fingerprint
from repro.parallel.tasks import eval_power_shard, simulate_group
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    Health,
    HealthState,
    RetryPolicy,
    atomic_save_npz,
    atomic_write,
    atomic_write_bytes,
    run_chaos,
    run_chaos_serve,
)

_PARENT_PID = os.getpid()


# --------------------------------------------------------------------- #
# module-level task functions (fork pickles them by reference)
# --------------------------------------------------------------------- #
def _square(x):
    return x * x


def _die_in_worker(x):
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return x * 2


# --------------------------------------------------------------------- #
# atomic writes
# --------------------------------------------------------------------- #
class TestAtomicWrite:
    def test_write_bytes_publishes_and_cleans_tmp(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_bytes(target, b'{"ok": true}')
        assert target.read_bytes() == b'{"ok": true}'
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_old_content_untouched(self, tmp_path):
        target = tmp_path / "artifact.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as tmp:
                tmp.write_bytes(b"half-written new conte")
                raise RuntimeError("crash mid-save")
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_save_npz_roundtrip(self, tmp_path):
        target = tmp_path / "arrays.npz"
        a = np.arange(12.0).reshape(3, 4)
        b = np.array([1, 2, 3], dtype=np.int64)
        atomic_save_npz(target, {"a": a, "b": b})
        with np.load(target) as data:
            np.testing.assert_array_equal(data["a"], a)
            np.testing.assert_array_equal(data["b"], b)
        assert list(tmp_path.iterdir()) == [target]


# --------------------------------------------------------------------- #
# retry policy + health machine
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(
            max_attempts=4, base_delay=0.1, multiplier=2.0, max_delay=0.3
        )
        assert policy.delays() == [0.1, 0.2, 0.3]

    def test_recovers_after_transients(self):
        metrics = MetricsRegistry()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientFault("not yet")
            return "done"

        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        assert policy.call(flaky, metrics=metrics) == "done"
        assert calls["n"] == 3
        assert metrics.counter("resilience.retry.recovered").value == 1
        assert metrics.counter("resilience.retry.retries").value == 2

    def test_exhaustion_reraises_original_exception(self):
        metrics = MetricsRegistry()
        boom = TransientFault("the original failure")

        def always_fails():
            raise boom

        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        with pytest.raises(TransientFault) as err:
            policy.call(always_fails, metrics=metrics)
        assert err.value is boom
        assert metrics.counter("resilience.retry.exhausted").value == 1
        assert metrics.counter("resilience.retry.attempts").value == 3

    def test_non_retryable_propagates_immediately(self):
        metrics = MetricsRegistry()
        calls = {"n": 0}

        def fails():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5, sleep=lambda _s: None).call(
                fails, metrics=metrics
            )
        assert calls["n"] == 1

    def test_on_retry_hook_runs_between_attempts(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise TransientFault("again")
            return "ok"

        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        assert (
            policy.call(
                flaky,
                metrics=MetricsRegistry(),
                on_retry=lambda attempt, exc: seen.append(attempt),
            )
            == "ok"
        )
        assert seen == [1, 2]

    def test_bad_policy_rejected(self):
        with pytest.raises(ResilienceError):
            RetryPolicy(max_attempts=0)


class TestHealthState:
    def test_transitions_and_log(self):
        h = HealthState()
        assert h.ok
        h.degrade("lost a worker")
        assert h.degraded and h.state is Health.DEGRADED
        h.degrade("again")  # no-op: already degraded
        h.recover()
        assert h.ok
        h.fail("dead")
        assert h.failed
        h.recover()  # failure is sticky
        assert h.failed
        h.reset()
        assert h.ok
        assert [(a, b) for a, b, _r in h.transitions] == [
            ("ok", "degraded"),
            ("degraded", "ok"),
            ("ok", "failed"),
            ("failed", "ok"),
        ]
        assert h.as_dict()["state"] == "ok"


# --------------------------------------------------------------------- #
# fault plans / injector
# --------------------------------------------------------------------- #
class TestFaults:
    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(42)
        b = FaultPlan.random(42)
        assert a == b
        assert FaultPlan.from_dict(a.to_dict()) == a

    def test_injector_fires_at_exact_arrival(self):
        plan = FaultPlan(
            seed=0,
            faults=(FaultSpec("site.x", "interrupt", at=2),),
        )
        inj = FaultInjector(plan, metrics=MetricsRegistry())
        inj.raise_if("site.x")  # arrival 1: nothing scheduled
        with pytest.raises(TransientFault):
            inj.raise_if("site.x")  # arrival 2: fires
        inj.raise_if("site.x")  # arrival 3: spent
        assert inj.fired == [("site.x", "interrupt", 2)]

    def test_bad_spec_rejected(self):
        with pytest.raises(ResilienceError):
            FaultSpec("s", "interrupt", at=0)


# --------------------------------------------------------------------- #
# worker pool: respawn, degradation, reset
# --------------------------------------------------------------------- #
class TestWorkerPoolResilience:
    def test_kill_worker_returns_with_the_executor_broken(self):
        """The injected kill is complete when it returns: the next
        dispatch meets a broken pool, never a surviving worker."""
        from concurrent.futures.process import BrokenProcessPool

        with WorkerPool(2) as pool:
            executor = pool._ensure_executor()
            assert FaultInjector().kill_one_worker(executor)
            with pytest.raises(BrokenProcessPool):
                executor.submit(_square, 3)

    def test_killed_worker_respawns_without_degrading(self):
        metrics = MetricsRegistry()
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("pool.map", "kill_worker", at=1),)
        )
        with WorkerPool(
            2,
            metrics=metrics,
            faults=FaultInjector(plan, metrics=metrics),
        ) as pool:
            assert pool.map(_square, range(8)) == [
                x * x for x in range(8)
            ]
            assert pool.health.ok and pool.parallel
        assert metrics.counter("parallel.pool.respawns").value == 1
        assert (
            metrics.counter("parallel.pool.respawn_recoveries").value
            == 1
        )
        assert metrics.counter("parallel.pool.degraded").value == 0

    def test_persistent_death_degrades_then_reset_recovers(self):
        metrics = MetricsRegistry()
        with WorkerPool(2, metrics=metrics) as pool:
            assert pool.map(_die_in_worker, range(4)) == [
                x * 2 for x in range(4)
            ]
            assert pool.degraded and pool.health.degraded
            # one respawn was attempted before giving up
            assert metrics.counter("parallel.pool.respawns").value == 1
            assert metrics.counter("parallel.pool.degraded").value == 1
            pool.reset()
            assert pool.health.ok and pool.parallel
            assert pool.map(_square, range(8)) == [
                x * x for x in range(8)
            ]
            assert pool.health.ok
        assert metrics.counter("parallel.pool.resets").value == 1

    def test_unpicklable_task_degrades_without_respawn(self):
        metrics = MetricsRegistry()
        captured = 3
        with WorkerPool(2, metrics=metrics) as pool:
            result = pool.map(lambda x: x + captured, range(4))
            assert result == [x + 3 for x in range(4)]
            assert pool.degraded
        assert metrics.counter("parallel.pool.respawns").value == 0
        assert metrics.counter("parallel.pool.degraded").value == 1


# --------------------------------------------------------------------- #
# eval cache: corruption accounting, retried writes
# --------------------------------------------------------------------- #
class TestEvalCacheResilience:
    def test_corruption_counted_and_entry_deleted(self, tmp_path):
        metrics = MetricsRegistry()
        cache = EvalCache(disk_dir=tmp_path, metrics=metrics)
        (tmp_path / "bad.npz").write_bytes(b"this is not a zipfile")
        assert cache.get("bad") is None
        assert cache.stats()["corrupt"] == 1
        assert cache.stats()["misses"] == 1
        assert not (tmp_path / "bad.npz").exists()
        assert metrics.counter("parallel.cache.corrupt").value == 1

    def test_every_truncation_is_a_counted_corrupt_miss(self, tmp_path):
        EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry()).put(
            "k", {"v": np.arange(64.0), "n": np.arange(5)}
        )
        path = tmp_path / "k.npz"
        raw = path.read_bytes()
        for n in range(len(raw)):
            path.write_bytes(raw[:n])
            cache = EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry())
            assert cache.get("k") is None, n
            assert cache.stats()["corrupt"] == 1, n
            assert not path.exists(), n

    def test_injected_corruption_is_detected(self, tmp_path):
        metrics = MetricsRegistry()
        put_cache = EvalCache(disk_dir=tmp_path, metrics=metrics)
        put_cache.put("k", {"v": np.arange(64.0)})
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("cache.read", "corrupt", at=1),)
        )
        cache = EvalCache(
            disk_dir=tmp_path,
            metrics=metrics,
            faults=FaultInjector(plan, metrics=metrics),
        )
        assert cache.get("k") is None  # corrupted on first disk read
        assert cache.stats()["corrupt"] == 1
        # the slot was dropped, so a repair re-publishes cleanly
        cache.put("k", {"v": np.arange(64.0)})
        fresh = EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry())
        np.testing.assert_array_equal(
            fresh.get("k")["v"], np.arange(64.0)
        )

    def test_transient_write_fault_is_retried(self, tmp_path):
        metrics = MetricsRegistry()
        plan = FaultPlan(
            seed=0, faults=(FaultSpec("cache.write", "transient", at=1),)
        )
        cache = EvalCache(
            disk_dir=tmp_path,
            metrics=metrics,
            faults=FaultInjector(plan, metrics=metrics),
            retry=RetryPolicy(max_attempts=3, sleep=lambda _s: None),
        )
        cache.put("k", {"v": np.arange(8.0)})
        assert metrics.counter("resilience.retry.retries").value == 1
        fresh = EvalCache(disk_dir=tmp_path, metrics=MetricsRegistry())
        np.testing.assert_array_equal(fresh.get("k")["v"], np.arange(8.0))


# --------------------------------------------------------------------- #
# GA: interrupt at every generation, resume from the cache
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


def _interrupt_plan(site: str, at: int) -> FaultInjector:
    return FaultInjector(
        FaultPlan(seed=0, faults=(FaultSpec(site, "interrupt", at=at),)),
        metrics=MetricsRegistry(),
    )


class TestGaResumeIdentity:
    """A GA interrupted at a generation and called again returns the
    uninterrupted run's individuals, gets every program it finished
    back from the cache, and simulates only the rest.  Each interrupt
    is re-entered twice: on the same evolver and cache (same process),
    and with a fresh evolver on a fresh ``EvalCache`` over the same
    disk directory (a restarted process)."""

    def test_run_is_a_pure_function_of_the_config(self, small_core):
        with BenchmarkEvolver(small_core, _ga_cfg()) as ev:
            first = _ga_signature(ev.run())
            second = _ga_signature(ev.run())
        with BenchmarkEvolver(small_core, _ga_cfg()) as ev:
            fresh = _ga_signature(ev.run())
        assert first == second == fresh

    @pytest.mark.parametrize("engine", ["uint8", "packed"])
    def test_kill_at_every_generation_resumes_bit_identical(
        self, small_core, engine, tmp_path, monkeypatch
    ):
        from repro.genbench import ga

        simulated: list[int] = []

        def counting(args):
            simulated.append(len(args[2]))
            return eval_power_shard(args)

        monkeypatch.setattr(ga, "eval_power_shard", counting)

        def evolver(cache, faults=None):
            return BenchmarkEvolver(
                small_core, _ga_cfg(), engine=engine, cache=cache,
                faults=faults,
            )

        cold = EvalCache(metrics=MetricsRegistry())
        with evolver(cold) as ev:
            baseline = _ga_signature(ev.run())
        cold_simulated = sum(simulated)
        cold_hits = cold.stats()["hits"]
        assert cold_simulated == cold.stats()["stores"]
        stored = []
        for kill_at in range(1, _ga_cfg().generations + 1):
            for restart in ("same-cache", "new-process"):
                disk = tmp_path / f"{restart}-{kill_at}"
                cache = EvalCache(disk_dir=disk, metrics=MetricsRegistry())
                simulated.clear()
                ev = evolver(cache, _interrupt_plan("ga.generation", kill_at))
                with pytest.raises(TransientFault):
                    ev.run()
                finished = cache.stats()["stores"]
                assert sum(simulated) == finished, restart
                if restart == "new-process":
                    ev.close()
                    cache = EvalCache(disk_dir=disk, metrics=MetricsRegistry())
                    ev = evolver(cache)
                before = cache.stats()
                simulated.clear()
                with ev:
                    assert _ga_signature(ev.run()) == baseline, restart
                after = cache.stats()
                assert after["hits"] - before["hits"] == (
                    finished + cold_hits
                ), restart
                assert sum(simulated) == cold_simulated - finished, restart
                assert after["disk_hits"] == (
                    finished if restart == "new-process" else 0
                ), restart
            stored.append(finished)
        # Each later interrupt finds more of the run finished.
        assert stored[0] == 0 and stored == sorted(set(stored))

    def test_resume_with_workers_and_cache(self, small_core, tmp_path):
        with BenchmarkEvolver(small_core, _ga_cfg()) as ev:
            baseline = _ga_signature(ev.run())
        cache = EvalCache(
            disk_dir=tmp_path / "cache", metrics=MetricsRegistry()
        )
        with BenchmarkEvolver(
            small_core,
            _ga_cfg(),
            workers=2,
            cache=cache,
            faults=_interrupt_plan("ga.generation", 2),
        ) as ev:
            with pytest.raises(TransientFault):
                ev.run()
        finished = cache.stats()["stores"]
        with BenchmarkEvolver(
            small_core,
            _ga_cfg(),
            workers=2,
            cache=EvalCache(
                disk_dir=tmp_path / "cache", metrics=MetricsRegistry()
            ),
        ) as ev:
            resumed = ev.run()
            assert ev.n_cache_hits >= finished > 0
        assert _ga_signature(resumed) == baseline


# --------------------------------------------------------------------- #
# dataset builders: an interrupted build resumes from the EvalCache
# --------------------------------------------------------------------- #
def _dataset_signature(ds):
    return (
        ds.trace.packed.tobytes(),
        ds.labels.tobytes(),
        ds.segments,
    )


class TestDatasetResumeIdentity:
    """A build interrupted at its wave site and re-entered gets every
    run it finished back from the cache, simulates only the rest, and
    returns the uninterrupted build's bytes.  Each test restarts twice:
    with the same cache object (same process), and with a fresh
    ``EvalCache`` on the same disk directory (a restarted process)."""

    @staticmethod
    def _resume(build, site, tmp_path, monkeypatch) -> list:
        from repro.genbench import dataset

        simulated: list[int] = []

        def counting(args):
            simulated.append(len(args[3]))
            return simulate_group(args)

        monkeypatch.setattr(dataset, "simulate_group", counting)
        rebuilt = []
        for restart in ("same-cache", "new-process"):
            disk = tmp_path / restart
            cache = EvalCache(disk_dir=disk, metrics=MetricsRegistry())
            simulated.clear()
            with pytest.raises(TransientFault):
                build(cache=cache, faults=_interrupt_plan(site, 1))
            n = cache.stats()["misses"]
            finished = cache.stats()["stores"]
            assert 0 < finished < n, restart
            assert sum(simulated) == finished, restart
            if restart == "new-process":
                cache = EvalCache(disk_dir=disk, metrics=MetricsRegistry())
            before = cache.stats()
            simulated.clear()
            rebuilt.append(build(cache=cache, faults=None))
            after = cache.stats()
            assert after["hits"] - before["hits"] == finished, restart
            assert after["misses"] - before["misses"] == n - finished
            assert sum(simulated) == n - finished, restart
            assert after["disk_hits"] == (
                finished if restart == "new-process" else 0
            ), restart
        return rebuilt

    @pytest.mark.parametrize("engine", ["uint8", "packed"])
    def test_training_build_resumes_bit_identical(
        self, small_core, small_ga, small_train, engine, tmp_path,
        monkeypatch,
    ):
        rebuilt = self._resume(
            lambda **kw: build_training_dataset(
                small_core, small_ga, target_cycles=1500,
                replay_cycles=150, engine=engine, workers=1, **kw,
            ),
            "dataset.train.wave", tmp_path, monkeypatch,
        )
        for ds in rebuilt:
            assert _dataset_signature(ds) == _dataset_signature(small_train)

    def test_testing_build_resumes_bit_identical(
        self, small_core, tmp_path, monkeypatch
    ):
        # 60-150 cycles a benchmark keeps the uint8 builds short.
        baseline = _dataset_signature(
            build_testing_dataset(small_core, cycle_scale=0.05)
        )
        for engine in ("uint8", "packed"):
            rebuilt = self._resume(
                lambda **kw: build_testing_dataset(
                    small_core, cycle_scale=0.05, engine=engine,
                    workers=1, **kw,
                ),
                "dataset.test.wave", tmp_path / engine, monkeypatch,
            )
            for ds in rebuilt:
                assert _dataset_signature(ds) == baseline, engine

    def test_waves_only_where_a_fault_plan_can_interrupt(
        self, small_core, monkeypatch
    ):
        # A map shorter than the pool runs serially in the calling
        # process, so a cached build with no fault plan sends every
        # group in one map.
        sizes: list[int] = []

        def serial_map(self, fn, items, label="map", **_kw):
            items = list(items)
            sizes.append(len(items))
            return [fn(x) for x in items]

        monkeypatch.setattr(WorkerPool, "map", serial_map)

        def build(**kw):
            return build_testing_dataset(
                small_core, cycle_scale=0.05, workers=2,
                cache=EvalCache(metrics=MetricsRegistry()), **kw,
            )

        build()
        assert len(sizes) == 1 and sizes[0] > 2
        n_groups = sizes[0]
        sizes.clear()
        build(faults=FaultInjector(
            FaultPlan(seed=0), metrics=MetricsRegistry()
        ))
        assert sizes == [2] * (n_groups // 2) + [1] * (n_groups % 2)


# --------------------------------------------------------------------- #
# stream session: stall -> degraded -> recovery, and terminal failure
# --------------------------------------------------------------------- #
class TestStreamResilience:
    def _session(self, stall_at, duration, cycles=96, **cfg_kw):
        from repro.opm import OpmMeter
        from repro.stream import (
            SimulatorSource,
            StreamConfig,
            StreamService,
            StreamSession,
        )
        from helpers import random_netlist

        nl = random_netlist(9, n_gates=40)
        rng = np.random.default_rng(5)
        proxies = np.sort(rng.choice(nl.n_nets, size=5, replace=False))
        from repro.opm import QuantizedModel

        qmodel = QuantizedModel(
            proxies=proxies,
            int_weights=rng.integers(-400, 400, size=5),
            int_intercept=10,
            step=0.01,
            bits=10,
        )
        stim = rng.integers(
            0, 2, size=(cycles, len(nl.input_ids)), dtype=np.uint8
        )
        source = SimulatorSource(nl, proxies, stim, chunk_cycles=16)
        inj = FaultInjector(
            FaultPlan(
                seed=0,
                faults=(
                    FaultSpec(
                        "stream.source", "stall",
                        at=stall_at, duration=duration,
                    ),
                ),
            ),
            metrics=MetricsRegistry(),
        )
        meter = OpmMeter(qmodel, t=8)
        cfg = StreamConfig(queue_depth=1000, **cfg_kw)
        sess = StreamSession(
            "chaos", inj.wrap_source(source), meter, config=cfg,
            retry=RetryPolicy(max_attempts=3, sleep=lambda _s: None),
        )
        return sess, StreamService(
            meter, [sess], registry=MetricsRegistry()
        )

    def test_stall_degrades_then_recovers_with_no_data_loss(self):
        # duration 4 > retry budget (3 attempts): the first pump fails
        # and degrades; the next pump absorbs the remaining stall and
        # recovers.  Stalled pulls never consume the source, so every
        # reading still arrives.
        sess, service = self._session(stall_at=1, duration=4)
        service.run()
        assert sess.done and not sess.degraded
        assert sess.source_errors == 1
        moves = [(a, b) for a, b, _r in sess.health.transitions]
        assert ("ok", "degraded") in moves
        assert ("degraded", "ok") in moves
        assert sess.cycles_processed == 96
        assert service.snapshot()["health"] == "ok"

    def test_dead_source_fails_terminally(self):
        sess, service = self._session(
            stall_at=1, duration=1000, max_source_errors=2
        )
        service.run()
        assert sess.failed and sess.health.failed
        assert sess.done  # queue drained; session wound down
        assert sess.source_errors == 2
        assert service.snapshot()["health"] == "failed"


# --------------------------------------------------------------------- #
# provenance: fault plans in manifests
# --------------------------------------------------------------------- #
class TestProvenanceLineage:
    def test_fault_plan_roundtrip(self, tmp_path):
        plan = FaultPlan.random(9, n_faults=3)
        inj = FaultInjector(plan, metrics=MetricsRegistry())
        inj.fire("pool.map")
        manifest = RunManifest(run="chaos-test", seed=9)
        manifest.record_fault_plan(inj)
        path = manifest.save(tmp_path / "m.json")
        loaded = RunManifest.load(path)
        assert FaultPlan.from_dict(
            loaded.extra["fault_plan"]["plan"]
        ) == plan
        assert loaded.extra["fault_plan"]["fired"] == inj.summary()["fired"]


# --------------------------------------------------------------------- #
# chaos CLI: a faulted end-to-end run matches the fault-free baseline
# --------------------------------------------------------------------- #
def _plan_file(tmp_path, *specs) -> str:
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(FaultPlan(seed=0, faults=specs).to_dict()))
    return str(path)


class TestChaosEndToEnd:
    def test_cli_chaos_run_matches_baseline(self, tmp_path, capsys):
        """Two runs on one ``--out`` fire the same faults: the second
        does not find the first one's cache."""
        from repro.cli import main

        reports = []
        for _ in range(2):
            rc = main(
                [
                    "chaos", "--seed", "5", "--workers", "0",
                    "--out", str(tmp_path),
                ]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert "MATCH" in out
            reports.append(
                json.loads((tmp_path / "chaos.report.json").read_text())
            )
        first, second = reports
        assert first["match"] is True and second["match"] is True
        assert first["restarts"] >= 1  # seed 5 schedules interrupts
        assert second["injected"] == first["injected"]
        assert second["restarts"] == first["restarts"]
        manifest = RunManifest.load(tmp_path / "chaos.manifest.json")
        assert manifest.extra["fault_plan"]["plan"]["seed"] == 5

    def test_chaos_refuses_a_site_it_never_fires(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.design
        from repro.cli import main

        def no_work(*_a, **_kw):
            raise AssertionError("the plan was refused after work began")

        monkeypatch.setattr(repro.design, "build_core", no_work)
        specs = (
            FaultSpec("checkpoint.write", "truncate", at=2),
            FaultSpec("ga.generation", "interrupt", at=1),
            FaultSpec("serve.tick", "kill_shard", at=1),
        )
        with pytest.raises(
            ResilienceError,
            match=r"never fires fault site\(s\) checkpoint\.write, "
            r"serve\.tick \(",
        ):
            run_chaos(plan=FaultPlan(seed=0, faults=specs))
        rc = main(
            [
                "chaos", "--plan", _plan_file(tmp_path, *specs),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "checkpoint.write, serve.tick" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_chaos_serve_refuses_a_site_it_never_fires(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.serve.loadgen
        from repro.cli import main

        def no_work(*_a, **_kw):
            raise AssertionError("the plan was refused after work began")

        monkeypatch.setattr(repro.serve.loadgen, "plan", no_work)
        spec = FaultSpec("ga.generation", "interrupt", at=1)
        with pytest.raises(
            ResilienceError, match=r"never fires fault site\(s\) "
            r"ga\.generation \("
        ):
            run_chaos_serve(plan=FaultPlan(seed=0, faults=(spec,)))
        rc = main(
            [
                "chaos-serve", "--plan", _plan_file(tmp_path, spec),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 2
        assert "ga.generation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
