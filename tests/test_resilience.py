"""Chaos and property tests for the resilience layer (repro.resilience).

The load-bearing property mirrors the serial/parallel identity: a
pipeline run interrupted at *any* stage boundary and resumed produces
**bit-identical** output to an uninterrupted run — on both engines,
with and without workers and caches.  The GA resumes from its
checkpoint; a dataset build resumes from the runs its cache holds.
Everything else here exercises the failure paths (torn checkpoints,
corrupt cache entries, dead workers, stalled sources, retry exhaustion)
that the fault injector makes deterministic.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CheckpointError,
    ResilienceError,
    TransientFault,
)
from repro.genbench import (
    BenchmarkEvolver,
    GaConfig,
    build_testing_dataset,
    build_training_dataset,
)
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import DEFAULT_MIX, Program, random_program
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import RunManifest
from repro.obs.trace import Tracer
from repro.parallel import EvalCache, WorkerPool, program_fingerprint
from repro.parallel.tasks import simulate_group
from repro.resilience import (
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    Health,
    HealthState,
    RetryPolicy,
    atomic_save_npz,
    atomic_write,
    atomic_write_bytes,
    programs_from_arrays,
    programs_to_arrays,
    restore_rng_state,
    rng_state_meta,
)
from repro.resilience.faults import truncate_file

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
# checkpoint store
# --------------------------------------------------------------------- #
class TestCheckpointStore:
    def _store(self, tmp_path, **kw):
        kw.setdefault("metrics", MetricsRegistry())
        return CheckpointStore(tmp_path / "ck", **kw)

    def test_save_load_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        arrays = {"x": np.arange(5.0), "y": np.eye(3)}
        store.save("stage", 2, arrays, meta={"k": [1, 2]})
        ck = store.load("stage", 2)
        assert ck.step == 2 and ck.meta == {"k": [1, 2]}
        np.testing.assert_array_equal(ck.arrays["x"], arrays["x"])
        np.testing.assert_array_equal(ck.arrays["y"], arrays["y"])

    def test_latest_empty_is_none(self, tmp_path):
        assert self._store(tmp_path).latest("stage") is None

    def test_corrupt_payload_detected_and_skipped(self, tmp_path):
        metrics = MetricsRegistry()
        store = self._store(tmp_path, metrics=metrics)
        store.save("ga", 1, {"x": np.arange(3.0)})
        newest = store.save("ga", 2, {"x": np.arange(4.0)})
        truncate_file(newest)
        with pytest.raises(CheckpointError, match="corrupt"):
            store.load("ga", 2)
        # latest() falls back past the torn step to one that verifies.
        ck = store.latest("ga")
        assert ck.step == 1
        assert (
            metrics.counter("resilience.checkpoint.corrupt").value == 1
        )

    def test_payload_without_sidecar_is_invisible(self, tmp_path):
        store = self._store(tmp_path)
        npz = store.save("s", 1, {"x": np.zeros(2)})
        npz.with_suffix(".json").unlink()
        assert store.steps("s") == []
        assert store.latest("s") is None

    def test_newer_schema_refused(self, tmp_path):
        store = self._store(tmp_path)
        npz = store.save("s", 1, {"x": np.zeros(2)})
        sidecar = npz.with_suffix(".json")
        record = json.loads(sidecar.read_text())
        record["schema_version"] = 99
        sidecar.write_text(json.dumps(record))
        with pytest.raises(CheckpointError, match="newer"):
            store.load("s", 1)

    @pytest.mark.parametrize(
        "record",
        [
            [],
            "x",
            None,
            {"schema_version": "x"},
            {"step": "x"},
            {"step": 2.0},
            {"schema_version": True},
            {"meta": [1, 2]},
        ],
    )
    def test_foreign_sidecar_is_a_checkpoint_error(self, tmp_path, record):
        # A sidecar that is not a JSON object of int fields is corrupt:
        # load() says so and latest() falls back to the older step.
        store = self._store(tmp_path)
        store.save("ga", 1, {"x": np.arange(3.0)})
        sidecar = store.save("ga", 2, {"x": np.arange(4.0)}).with_suffix(
            ".json"
        )
        if isinstance(record, dict):
            record = {**json.loads(sidecar.read_text()), **record}
        sidecar.write_text(json.dumps(record))
        with pytest.raises(CheckpointError):
            store.load("ga", 2)
        ck = store.latest("ga")
        assert ck.step == 1
        np.testing.assert_array_equal(ck.arrays["x"], np.arange(3.0))

    @given(
        keep=st.one_of(st.none(), st.floats(0.0, 0.999)),
        where=st.floats(0.0, 0.999),
        mask=st.integers(1, 255),
    )
    @settings(max_examples=60, deadline=None)
    def test_damaged_payload_with_matching_hash_is_a_checkpoint_error(
        self, tmp_path_factory, keep, where, mask
    ):
        # The recorded hash is rewritten to match, so only decoding can
        # notice: a truncated or byte-flipped payload either still loads
        # or raises CheckpointError, and latest() falls back either way.
        store = self._store(tmp_path_factory.mktemp("ck"))
        arrays = {"a": np.arange(35).reshape(7, 5), "s": np.array("hello")}
        store.save("ga", 1, arrays)
        npz = store.save("ga", 2, arrays)
        if keep is None:
            raw = bytearray(npz.read_bytes())
            raw[int(where * len(raw))] ^= mask
            npz.write_bytes(bytes(raw))
        else:
            truncate_file(npz, keep)
        sidecar = npz.with_suffix(".json")
        record = json.loads(sidecar.read_text())
        record["sha256"] = hashlib.sha256(npz.read_bytes()).hexdigest()
        sidecar.write_text(json.dumps(record))
        try:
            store.load("ga", 2)
        except CheckpointError:
            pass
        assert store.latest("ga").step in (1, 2)

    def test_prune_keeps_newest(self, tmp_path):
        store = self._store(tmp_path, keep=2)
        for step in range(5):
            store.save("s", step, {"x": np.full(2, step)})
        assert store.steps("s") == [3, 4]

    def test_rng_state_roundtrip_reproduces_stream(self):
        rng = np.random.default_rng(7)
        rng.integers(0, 100, size=10)
        state = rng_state_meta(rng)
        expected = rng.integers(0, 1 << 30, size=8)
        fresh = np.random.default_rng(0)
        restore_rng_state(fresh, state)
        np.testing.assert_array_equal(
            fresh.integers(0, 1 << 30, size=8), expected
        )

    def test_programs_roundtrip(self):
        rng = np.random.default_rng(3)
        programs = [
            random_program(rng, 12, DEFAULT_MIX, name=f"p{i}")
            for i in range(4)
        ]
        arrays, names = programs_to_arrays(programs)
        back = programs_from_arrays(arrays, names)
        assert [program_fingerprint(p) for p in back] == [
            program_fingerprint(p) for p in programs
        ]
        assert [p.name for p in back] == [p.name for p in programs]

    def test_program_fields_are_int16_and_int64_archives_load(self):
        """Every field fits int16 (the widest is the 12-bit signed
        immediate); archives written with int64 fields load the same."""
        extremes = Program("x", tuple(
            Instruction(op, dst=15, src1=15, src2=15, imm=imm)
            for op in (Opcode.MOVI, Opcode.BNE)
            for imm in (-(1 << 11), (1 << 11) - 1)
        ))
        programs = [extremes, random_program(np.random.default_rng(4), 16)]
        arrays, names = programs_to_arrays(programs)
        assert arrays["prog_fields"].dtype == np.int16
        assert programs_from_arrays(arrays, names) == programs
        wide = {k: v.astype(np.int64) for k, v in arrays.items()}
        assert programs_from_arrays(wide, names) == programs
        empty, none = programs_to_arrays([])
        assert empty["prog_fields"].shape == (0, 5) and none == []
        assert programs_from_arrays(empty, none) == []


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
# GA: kill at every generation, resume bit-identically
# --------------------------------------------------------------------- #
def _ga_cfg(seed=5) -> GaConfig:
    return GaConfig(
        population=6, generations=3, eval_cycles=100,
        program_length=16, seed=seed,
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
    @pytest.mark.parametrize("engine", ["uint8", "packed"])
    def test_kill_at_every_generation_resumes_bit_identical(
        self, small_core, engine, tmp_path
    ):
        with BenchmarkEvolver(small_core, _ga_cfg(), engine=engine) as ev:
            baseline = _ga_signature(ev.run())
        for kill_at in (1, 2, 3):
            store = CheckpointStore(
                tmp_path / f"{engine}-{kill_at}",
                metrics=MetricsRegistry(),
            )
            with BenchmarkEvolver(
                small_core,
                _ga_cfg(),
                engine=engine,
                checkpoints=store,
                faults=_interrupt_plan("ga.generation", kill_at),
            ) as ev:
                with pytest.raises(TransientFault):
                    ev.run()
            # A *fresh* evolver models the restarted process.
            with BenchmarkEvolver(
                small_core, _ga_cfg(), engine=engine, checkpoints=store
            ) as ev:
                resumed = ev.run(resume=True)
                assert ev.n_simulated > 0  # really did resume mid-run
            assert _ga_signature(resumed) == baseline

    def test_resume_with_workers_and_cache(self, small_core, tmp_path):
        with BenchmarkEvolver(small_core, _ga_cfg()) as ev:
            baseline = _ga_signature(ev.run())
        store = CheckpointStore(
            tmp_path / "ck", metrics=MetricsRegistry()
        )
        cache = EvalCache(
            disk_dir=tmp_path / "cache", metrics=MetricsRegistry()
        )
        with BenchmarkEvolver(
            small_core,
            _ga_cfg(),
            workers=2,
            cache=cache,
            checkpoints=store,
            faults=_interrupt_plan("ga.generation", 2),
        ) as ev:
            with pytest.raises(TransientFault):
                ev.run()
        with BenchmarkEvolver(
            small_core,
            _ga_cfg(),
            workers=2,
            cache=cache,
            checkpoints=store,
        ) as ev:
            resumed = ev.run(resume=True)
        assert _ga_signature(resumed) == baseline

    def test_saves_pack_each_generation_once_and_match_a_full_pack(
        self, small_core, tmp_path
    ):
        """Each save's individual arrays equal a pack of the whole
        history, dtypes included, on a fresh and on a resumed run; each
        save is one ``ga.checkpoint`` span."""
        cfg = GaConfig(
            population=4, generations=4, eval_cycles=60,
            program_length=12, seed=9,
        )

        def saved(store):
            return {
                step: store.load("ga", step)
                for step in store.steps("ga")
            }

        tracer = Tracer()
        fresh = CheckpointStore(
            tmp_path / "fresh", keep=0, metrics=MetricsRegistry()
        )
        with BenchmarkEvolver(
            small_core, cfg, checkpoints=fresh, tracer=tracer
        ) as ev:
            result = ev.run()
        assert [s.attrs["generation"] for s in tracer.find(
            "ga.checkpoint"
        )] == list(range(cfg.generations))
        for step, ck in saved(fresh).items():
            history = result.individuals[: step * cfg.population]
            arrs, names = programs_to_arrays(
                [ind.program for ind in history]
            )
            want = {
                "ind_fields": arrs["prog_fields"],
                "ind_offsets": arrs["prog_offsets"],
                "ind_power": np.asarray(
                    [i.power for i in history], dtype=np.float64
                ),
                "ind_fitness": np.asarray(
                    [i.fitness for i in history], dtype=np.float64
                ),
                "ind_generation": np.asarray(
                    [i.generation for i in history], dtype=np.int64
                ),
            }
            for key, arr in want.items():
                assert ck.arrays[key].dtype == arr.dtype, (step, key)
                np.testing.assert_array_equal(ck.arrays[key], arr)
            assert ck.meta["ind_names"] == names

        resumed = CheckpointStore(
            tmp_path / "resumed", keep=0, metrics=MetricsRegistry()
        )
        with BenchmarkEvolver(
            small_core, cfg, checkpoints=resumed,
            faults=_interrupt_plan("ga.generation", 2),
        ) as ev:
            with pytest.raises(TransientFault):
                ev.run()
        with BenchmarkEvolver(small_core, cfg, checkpoints=resumed) as ev:
            ev.run(resume=True)
        want_cks, got_cks = saved(fresh), saved(resumed)
        assert list(got_cks) == list(want_cks)
        for step, ck in got_cks.items():
            assert ck.arrays.keys() == want_cks[step].arrays.keys()
            for key, arr in ck.arrays.items():
                np.testing.assert_array_equal(
                    arr, want_cks[step].arrays[key]
                )
            assert ck.meta["ind_names"] == want_cks[step].meta["ind_names"]

    def test_resume_without_checkpoint_starts_fresh(
        self, small_core, tmp_path
    ):
        store = CheckpointStore(
            tmp_path / "ck", metrics=MetricsRegistry()
        )
        with BenchmarkEvolver(small_core, _ga_cfg()) as ev:
            baseline = _ga_signature(ev.run())
        with BenchmarkEvolver(
            small_core, _ga_cfg(), checkpoints=store
        ) as ev:
            assert _ga_signature(ev.run(resume=True)) == baseline

    def test_mismatched_config_is_refused(self, small_core, tmp_path):
        store = CheckpointStore(
            tmp_path / "ck", metrics=MetricsRegistry()
        )
        with BenchmarkEvolver(
            small_core,
            _ga_cfg(seed=5),
            checkpoints=store,
            faults=_interrupt_plan("ga.generation", 2),
        ) as ev:
            with pytest.raises(TransientFault):
                ev.run()
        with BenchmarkEvolver(
            small_core, _ga_cfg(seed=6), checkpoints=store
        ) as ev:
            with pytest.raises(CheckpointError, match="configuration"):
                ev.run(resume=True)

    def test_torn_checkpoint_falls_back_and_still_matches(
        self, small_core, tmp_path
    ):
        """A truncated checkpoint write must not poison the resume."""
        with BenchmarkEvolver(small_core, _ga_cfg()) as ev:
            baseline = _ga_signature(ev.run())
        plan = FaultPlan(
            seed=0,
            faults=(
                FaultSpec("checkpoint.write", "truncate", at=2),
                FaultSpec("ga.generation", "interrupt", at=2),
            ),
        )
        inj = FaultInjector(plan, metrics=MetricsRegistry())
        store = CheckpointStore(
            tmp_path / "ck", metrics=MetricsRegistry(), faults=inj
        )
        with BenchmarkEvolver(
            small_core, _ga_cfg(), checkpoints=store, faults=inj
        ) as ev:
            with pytest.raises(TransientFault):
                ev.run()
        with BenchmarkEvolver(
            small_core, _ga_cfg(), checkpoints=store
        ) as ev:
            assert _ga_signature(ev.run(resume=True)) == baseline


def _garble_population(ck, how: str):
    """``ck``'s arrays with a population that does not decode."""
    arrays = dict(ck.arrays)
    names = list(ck.meta["pop_names"])
    fields = np.array(arrays["pop_fields"], dtype=np.int64)
    if how == "offsets":  # 16 rows cut into programs of 5 and 95
        fields, offsets, names = fields[:16], [0, 5, 100], names[:2]
    else:
        offsets = arrays["pop_offsets"]
        if how == "opcode":
            fields[3, 0] = 99
        elif how == "register":
            fields[3, 1] = 40
        else:  # "columns"
            fields = fields[:, :4]
    arrays["pop_fields"] = fields
    arrays["pop_offsets"] = np.asarray(offsets, dtype=np.int64)
    return arrays, dict(ck.meta, pop_names=names)


class TestGaCheckpointPrograms:
    @pytest.mark.parametrize(
        "how", ["offsets", "opcode", "register", "columns"]
    )
    def test_undecodable_programs_are_a_checkpoint_error(
        self, small_core, tmp_path, how
    ):
        """A hash-valid checkpoint of this run whose population does not
        decode is refused with a ``CheckpointError``."""
        store = CheckpointStore(tmp_path / "ck", metrics=MetricsRegistry())
        with BenchmarkEvolver(
            small_core,
            _ga_cfg(),
            checkpoints=store,
            faults=_interrupt_plan("ga.generation", 1),
        ) as ev:
            with pytest.raises(TransientFault):
                ev.run()
        ck = store.latest("ga")
        arrays, meta = _garble_population(ck, how)
        store.save("ga", ck.step + 1, arrays, meta)
        assert store.latest("ga").step == ck.step + 1
        with BenchmarkEvolver(
            small_core, _ga_cfg(), checkpoints=store
        ) as ev:
            with pytest.raises(CheckpointError):
                ev.run(resume=True)


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
# provenance: fault plans and resume lineage in manifests
# --------------------------------------------------------------------- #
class TestProvenanceLineage:
    def test_fault_plan_and_resume_roundtrip(self, tmp_path):
        plan = FaultPlan.random(9, n_faults=3)
        inj = FaultInjector(plan, metrics=MetricsRegistry())
        inj.fire("pool.map")
        manifest = RunManifest(run="chaos-test", seed=9)
        manifest.record_fault_plan(inj)
        manifest.record_resume("ga", 2, tmp_path / "step-2.npz")
        path = manifest.save(tmp_path / "m.json")
        loaded = RunManifest.load(path)
        assert FaultPlan.from_dict(
            loaded.extra["fault_plan"]["plan"]
        ) == plan
        assert loaded.extra["resumed_from"][0]["stage"] == "ga"
        assert loaded.extra["resumed_from"][0]["step"] == 2


# --------------------------------------------------------------------- #
# chaos CLI: a faulted end-to-end run matches the fault-free baseline
# --------------------------------------------------------------------- #
class TestChaosEndToEnd:
    def test_cli_chaos_run_matches_baseline(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "chaos", "--seed", "5", "--workers", "0",
                "--out", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "MATCH" in out
        report = json.loads((tmp_path / "chaos.report.json").read_text())
        assert report["match"] is True
        assert report["restarts"] >= 1  # seed 5 schedules interrupts
        manifest = RunManifest.load(tmp_path / "chaos.manifest.json")
        assert manifest.extra["fault_plan"]["plan"]["seed"] == 5
