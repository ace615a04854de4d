"""Backend-registry, kernel-fallback, and sharding tests.

The simulator's engines live behind :class:`repro.rtl.backends.Backend`.
Everything here is about the seams of that abstraction: engine lookup
errors, the packed engine's choice between its C kernel and its NumPy
fallback loop (made only by whether the kernel loads), the CLI
round-trip of ``--engine``, engine-agnostic GA resume from the cache, the
:func:`acc_reduce` batch-width contract, and lane-sharding across a
worker pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import solvers
from repro.errors import SimulationError, TransientFault
from repro.genbench import BenchmarkEvolver, GaConfig
from repro.obs.metrics import MetricsRegistry
from repro.parallel import EvalCache, WorkerPool, program_fingerprint, tasks
from repro.parallel.sharding import lane_shards, run_sharded
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.rtl import ENGINES, RecordSpec, Simulator
from repro.design import build_core
from repro.rtl.backends import PackedBackend, backend_names, cc, get_backend
from repro.rtl.backends import base
from repro.rtl.backends.base import acc_reduce
from repro.uarch import N1_LIKE

from helpers import SIM_PATHS, random_netlist


def _no_kernel(monkeypatch):
    """Make the packed engine's kernel loader report no compiler, on an
    empty per-process state: simulators built before (with the kernel)
    are not reused, and those built here do not outlive ``monkeypatch``.
    """
    monkeypatch.setattr(cc, "load_kernel", lambda: None)
    monkeypatch.setattr(tasks, "_STATE", {})


def _full_record(nl):
    rng = np.random.default_rng(7)
    n = nl.n_nets
    return RecordSpec(
        full_trace=True,
        columns=np.arange(0, n, 3, dtype=np.int64),
        accumulators={
            "w": rng.standard_normal(n),
            "neg": -np.abs(rng.standard_normal(n)),
        },
    )


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_engine_names(self):
        assert tuple(backend_names()) == ENGINES
        assert set(ENGINES) == {"packed", "uint8"}

    def test_unknown_engine_message_lists_engines(self):
        nl = random_netlist(0)
        with pytest.raises(SimulationError) as exc:
            Simulator(nl, engine="verilator")
        msg = str(exc.value)
        assert "verilator" in msg
        for name in ENGINES:
            assert name in msg

    def test_get_backend_unknown(self):
        with pytest.raises(SimulationError):
            get_backend("nope")


# --------------------------------------------------------------------- #
# C kernel / NumPy-loop fallback
# --------------------------------------------------------------------- #
def _assert_same(ref, got):
    np.testing.assert_array_equal(ref.trace.packed, got.trace.packed)
    np.testing.assert_array_equal(ref.columns, got.columns)
    for name in ref.accum:
        np.testing.assert_array_equal(
            ref.accum[name].view(np.uint8),
            got.accum[name].view(np.uint8),
        )
    np.testing.assert_array_equal(ref.final_values, got.final_values)


def _fallback_case():
    nl = random_netlist(11, n_gates=60)
    rng = np.random.default_rng(3)
    stim = rng.integers(0, 2, size=(5, 40, 4)).astype(np.uint8)
    return nl, stim, _full_record(nl)


class TestKernelFallback:
    def test_numpy_loop_bit_identical(self, monkeypatch):
        # A host without a working C compiler: the default engine runs
        # its NumPy loop and still matches the uint8 reference exactly.
        nl, stim, record = _fallback_case()
        ref = Simulator(nl, engine="uint8").run(stim, record)
        _no_kernel(monkeypatch)
        sim = Simulator(nl)
        assert sim.backend.kernel is None
        _assert_same(ref, sim.run(stim, record))

    @pytest.mark.skipif(
        cc.compiler() is None, reason="no C compiler on this host"
    )
    def test_default_engine_uses_kernel(self, monkeypatch):
        # Where a compiler exists the kernel must load: a C compile
        # error would otherwise fall back silently to the NumPy loop,
        # 2-14x slower (benchmarks/engine_race.py).
        nl, stim, record = _fallback_case()
        ref = Simulator(nl, engine="uint8").run(stim, record)
        sim = Simulator(nl)
        assert sim.backend.kernel is not None

        def no_numpy_loop(*_args):
            raise AssertionError("NumPy loop ran despite a loaded kernel")

        monkeypatch.setattr(PackedBackend, "_run_numpy", no_numpy_loop)
        _assert_same(ref, sim.run(stim, record))


# --------------------------------------------------------------------- #
# the kernel loader
# --------------------------------------------------------------------- #
def _fresh_loader(monkeypatch, tmp_path, compiler: str) -> None:
    """Point the loader at ``compiler`` and an empty cache, with nothing
    loaded yet in this process."""
    monkeypatch.setenv("CC", compiler)
    monkeypatch.setenv("REPRO_CC_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(cc, "_LOADED", {})


def _fake_compiler(path, real: str, reject: str | None) -> str:
    """Write a ``CC`` wrapper around the ``real`` compiler at ``path``
    that fails whenever its arguments include ``reject``."""
    test = (
        f'for a in "$@"; do [ "$a" = "{reject}" ] && exit 1; done\n'
        if reject else ""
    )
    path.write_text(f'#!/bin/sh\n{test}exec {real} "$@"\n')
    path.chmod(0o755)
    return str(path)


def test_missing_compiler_means_no_kernel(monkeypatch, tmp_path):
    # $CC names the compiler for the build and for every test that
    # requires a kernel: a $CC that does not exist is no compiler, even
    # where ``cc`` is on PATH.
    _fresh_loader(monkeypatch, tmp_path, "/nonexistent/cc")
    assert cc.compiler() is None
    assert cc.load_kernel() is None
    assert solvers.load_cd_kernel() is None


@pytest.mark.skipif(
    cc.compiler() is None, reason="no C compiler on this host"
)
def test_no_kernel_without_fp_contract_off(monkeypatch, tmp_path):
    # A kernel built with FMA contraction may round a multiply-add once
    # instead of twice (GCC's default on FMA targets), so a compiler
    # that rejects -ffp-contract=off gets no kernel and the exact NumPy
    # paths run.  The same wrapper without the rejection builds one.
    real = cc.compiler()
    rejecting = _fake_compiler(
        tmp_path / "no-contract-off", real, "-ffp-contract=off"
    )
    _fresh_loader(monkeypatch, tmp_path / "a", rejecting)
    assert cc.load_kernel() is None
    assert solvers.load_cd_kernel() is None
    passing = _fake_compiler(tmp_path / "plain", real, None)
    _fresh_loader(monkeypatch, tmp_path / "b", passing)
    assert solvers.load_cd_kernel() is not None


# --------------------------------------------------------------------- #
# CLI round-trip
# --------------------------------------------------------------------- #
class TestCliEngineFlag:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_engine_accepted(self, engine, monkeypatch, capsys):
        from repro import cli

        seen = {}

        def fake_stream(args):
            seen["engine"] = args.engine
            return 0

        monkeypatch.setattr(cli, "_cmd_stream", fake_stream)
        assert cli.main(["stream", "--engine", engine]) == 0
        assert seen["engine"] == engine

    def test_unknown_engine_rejected(self, capsys):
        from repro import cli

        with pytest.raises(SystemExit):
            cli.main(["stream", "--engine", "verilator"])
        assert "--engine" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# engine-agnostic GA resume
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


def test_ga_resume_under_different_backend(small_core, monkeypatch):
    # All engines and kernel states are bit-identical, so cache keys
    # exclude them: a run interrupted under uint8 is called again on the
    # packed NumPy loop, is interrupted again, is called again on the C
    # kernel, and still reproduces the uninterrupted result exactly.
    # Each call gets every program finished before it back from the one
    # shared cache.
    with BenchmarkEvolver(small_core, _ga_cfg(), engine="uint8") as ev:
        baseline = _ga_signature(ev.run())
    cache = EvalCache(metrics=MetricsRegistry())

    def interrupt_at(n):
        return FaultInjector(
            FaultPlan(
                seed=0,
                faults=(FaultSpec("ga.generation", "interrupt", at=n),),
            ),
            metrics=MetricsRegistry(),
        )

    with BenchmarkEvolver(
        small_core, _ga_cfg(), engine="uint8", cache=cache,
        faults=interrupt_at(2),
    ) as ev:
        with pytest.raises(TransientFault):
            ev.run()
    stored = cache.stats()["stores"]
    with monkeypatch.context() as m:
        _no_kernel(m)
        with BenchmarkEvolver(
            small_core, _ga_cfg(), engine="packed", cache=cache,
            faults=interrupt_at(3),
        ) as ev:
            assert ev.simulator.backend.kernel is None
            with pytest.raises(TransientFault):
                ev.run()
            assert ev.n_cache_hits == stored > 0
            assert ev.n_simulated > 0  # really ran a generation
    stored = cache.stats()["stores"]
    with BenchmarkEvolver(
        small_core, _ga_cfg(), engine="packed", cache=cache
    ) as ev:
        resumed = ev.run()
        assert ev.n_cache_hits == stored
        assert ev.n_simulated > 0  # really ran the last generation
    assert _ga_signature(resumed) == baseline


# --------------------------------------------------------------------- #
# acc_reduce contract
# --------------------------------------------------------------------- #
class TestAccReduce:
    def test_batch_one_matches_sequential(self):
        # Regression: np.sum(axis=0) on an (n, 1) array reduces the
        # contiguous column pairwise, while (n, B>=2) reduces
        # sequentially row-by-row — so a batch-1 run disagreed with the
        # same lane inside a wider batch in the last ulp.
        rng = np.random.default_rng(0)
        n = 3000
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        tog2 = rng.integers(0, 2, size=(n, 2)).astype(np.uint8)
        tog1 = np.ascontiguousarray(tog2[:, :1])
        ref = 0.0
        for i in range(n):
            if tog1[i, 0]:
                ref += w[i]
        assert acc_reduce(w, tog1)[0] == ref
        assert acc_reduce(w, tog2)[0] == ref

    def test_zero_cases(self):
        w = np.array([1.5, -2.5])
        assert acc_reduce(w, np.zeros((2, 1), np.uint8)).tolist() == [0.0]
        assert acc_reduce(w, np.zeros((2, 0), np.uint8)).shape == (0,)


# --------------------------------------------------------------------- #
# lane sharding
# --------------------------------------------------------------------- #
class TestLaneShards:
    def test_small_batch_never_split(self):
        assert lane_shards(1, 8) == [slice(0, 1)]
        assert lane_shards(64, 8) == [slice(0, 64)]

    def test_word_aligned(self):
        for batch, workers in [(128, 2), (200, 3), (64 * 7 + 5, 4)]:
            shards = lane_shards(batch, workers)
            assert shards[0].start == 0
            assert shards[-1].stop == batch
            for a, b in zip(shards, shards[1:]):
                assert a.stop == b.start
                assert a.stop % 64 == 0
            assert len(shards) <= workers

    def test_serial_plan_is_identity(self):
        assert lane_shards(500, 1) == [slice(0, 500)]


@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)
def test_run_sharded_bit_identical(engine):
    nl = random_netlist(21, n_gates=60)
    rng = np.random.default_rng(9)
    batch = 70  # two lane words -> two shards
    stim = rng.integers(0, 2, size=(batch, 30, 4)).astype(np.uint8)
    record = _full_record(nl)
    mono = Simulator(nl, engine=engine).run(stim, record)
    with WorkerPool(workers=2, metrics=MetricsRegistry()) as pool:
        sharded = run_sharded(nl, stim, record, pool, engine=engine)
    _assert_same(mono, sharded)
    assert sharded.batch == batch


def test_run_sharded_serial_pool_matches():
    nl = random_netlist(22, n_gates=40)
    rng = np.random.default_rng(2)
    stim = rng.integers(0, 2, size=(70, 20, 4)).astype(np.uint8)
    record = RecordSpec(full_trace=True)
    mono = Simulator(nl).run(stim, record)
    with WorkerPool(workers=1, metrics=MetricsRegistry()) as pool:
        sharded = run_sharded(nl, stim, record, pool)
    np.testing.assert_array_equal(mono.trace.packed, sharded.trace.packed)


@pytest.mark.parametrize("design", ["small", "n1", "random"])
def test_reset_state_is_one_lane_evaluated_on_first_use(
    design, small_core, monkeypatch
):
    """Every lane of the reset state is the same, so a backend evaluates
    one lane on its first run (never while compiling) and hands out
    fresh repeats of it, equal to the whole-batch evaluation.
    ``small_core`` has the benchmark core's parameters."""
    nl = {
        "small": lambda: small_core.netlist,
        "n1": lambda: build_core(N1_LIKE).netlist,
        "random": lambda: random_netlist(5, n_gates=80),
    }[design]()
    full = base.initial_values
    calls = []

    def counted(schedule, batch):
        calls.append(batch)
        return full(schedule, batch)

    monkeypatch.setattr(base, "initial_values", counted)
    for engine in ENGINES:
        backend = Simulator(nl, engine=engine).backend
        assert calls == []
        for batch in (1, 6, 64, 70):
            want = full(backend.schedule, batch)
            got = backend.initial_values(batch)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            got ^= 1  # the caller owns the array it got
            assert backend.initial_values(batch).tobytes() == want.tobytes()
        assert calls == [1]
        calls.clear()

