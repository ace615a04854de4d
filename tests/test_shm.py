"""Tests for the shared-memory data plane (``repro.parallel.shm``).

Three contracts under test:

* **correctness** — descriptors round-trip arrays bit-exactly, stale
  generations and unmapped slabs are fenced, and a gateway dispatching
  over the plane matches the inline path through a hot swap, fused
  dispatch, an injected shard death, a worker death after the pool's
  warm-up, and units that cannot be staged (which run inline);
* **lifecycle** — the plane is anonymous memory mapped before the
  workers fork: closing or resetting the pool unmaps it, a pool that
  cannot fork has none, no test adds or removes a ``/dev/shm`` entry
  (the autouse fixture checks), and a SIGKILLed parent's workers exit;
* **placement** — fused units re-split across workers so fusing never
  serializes the fleet.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import WorkerPool
from repro.parallel.shm import (
    ShmArena,
    ShmDataPlane,
    ShmError,
    ShmRef,
    attach_view,
)
from repro.opm import OpmMeter, QuantizedModel
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serve import Gateway, InprocClient, ModelRegistry
from repro.serve.shard import ShmGemvTask
from repro.stream.session import DrainGroup


def _dev_shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


@pytest.fixture(autouse=True)
def dev_shm_unchanged():
    """The plane names nothing: no test touches ``/dev/shm``."""
    before = _dev_shm()
    yield
    assert _dev_shm() == before


def _qmodel(q=6, seed=0):
    rng = np.random.default_rng(seed)
    return QuantizedModel(
        proxies=np.arange(q, dtype=np.int64),
        int_weights=rng.integers(-400, 400, size=q),
        int_intercept=int(rng.integers(-50, 50)),
        step=0.01,
        bits=10,
    )


def _registry(q=6):
    reg = ModelRegistry()
    reg.publish("v1", _qmodel(q=q, seed=1), activate=True)
    reg.publish("v2", _qmodel(q=q, seed=2))
    return reg


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a running (not exited or zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# --------------------------------------------------------------------- #
# Arena: descriptors, rings, generations
# --------------------------------------------------------------------- #
class TestShmArena:
    def test_write_roundtrip_bit_exact(self):
        arena = ShmArena(lanes=2, slab_bytes=1 << 16)
        try:
            arr = np.arange(300, dtype=np.int64).reshape(30, 10)
            ref = arena.write(arr)
            assert ref is not None
            np.testing.assert_array_equal(attach_view(ref), arr)
            assert ref.nbytes == arr.nbytes
            assert 0.0 < arena.occupancy <= 1.0
        finally:
            arena.close()

    def test_write_concat_matches_concatenate(self):
        arena = ShmArena(lanes=2, slab_bytes=1 << 16)
        try:
            rng = np.random.default_rng(3)
            mats = [
                rng.integers(0, 2, size=(n, 7), dtype=np.uint8)
                for n in (5, 1, 12)
            ]
            ref = arena.write_concat(mats)
            np.testing.assert_array_equal(
                attach_view(ref), np.concatenate(mats)
            )
        finally:
            arena.close()

    def test_full_arena_returns_none(self):
        arena = ShmArena(lanes=1, slab_bytes=256)
        try:
            assert arena.write(np.zeros(1024, dtype=np.int64)) is None
            # a payload that fits still lands after the oversized miss
            assert arena.write(np.zeros(4, dtype=np.int64)) is not None
        finally:
            arena.close()

    def test_stale_generation_is_fenced(self):
        arena = ShmArena(lanes=1, slab_bytes=1 << 12)
        try:
            ref = arena.write(np.arange(8))
            arena.begin_tick()  # all prior descriptors go stale
            with pytest.raises(ShmError, match="stale"):
                attach_view(ref)
        finally:
            arena.close()

    def test_foreign_segment_rejected(self):
        arena = ShmArena(lanes=1, slab_bytes=1 << 12)
        try:
            ref = ShmRef(-1, 0, "<i8", (4,), 1)
            with pytest.raises(ShmError, match="not mapped"):
                attach_view(ref)
        finally:
            arena.close()

    def test_attach_after_unlink_raises(self):
        arena = ShmArena(lanes=1, slab_bytes=1 << 12)
        ref = arena.write(np.arange(8))
        arena.close()
        with pytest.raises(ShmError, match="not mapped"):
            attach_view(ref)


# --------------------------------------------------------------------- #
# Plane lifecycle
# --------------------------------------------------------------------- #
class TestPlaneHygiene:
    def test_plane_close_is_idempotent(self):
        plane = ShmDataPlane(lanes=2, slab_bytes=1 << 14)
        ref = plane.requests.write(np.arange(8))
        np.testing.assert_array_equal(attach_view(ref), np.arange(8))
        plane.close()
        plane.close()
        assert plane.closed
        with pytest.raises(ShmError, match="not mapped"):
            attach_view(ref)

    def test_plane_context_manager(self):
        with ShmDataPlane(lanes=1, slab_bytes=1 << 14) as plane:
            ref, view = plane.results.alloc((4,), np.int64)
            view[:] = 7
            np.testing.assert_array_equal(attach_view(ref), [7] * 4)
        assert plane.closed
        with pytest.raises(ShmError, match="not mapped"):
            attach_view(ref)

    def test_pool_close_unlinks_segments(self):
        pool = WorkerPool(2, transport="shm", slab_bytes=1 << 14)
        plane = pool.plane
        assert plane is not None  # mapped at construction
        pool.close()
        assert pool.plane is None and plane.closed

    def test_pool_reset_recycles_plane(self):
        pool = WorkerPool(2, transport="shm", slab_bytes=1 << 14)
        try:
            old = pool.plane
            pool.reset()
            fresh = pool.plane
            assert old.closed and not fresh.closed
            keys = {s.key for s in fresh.requests.slabs}
            assert keys.isdisjoint(s.key for s in old.requests.slabs)
        finally:
            pool.close()

    def test_pool_without_fork_has_no_plane(self, monkeypatch):
        """Spawned workers cannot inherit a mapping: no plane, so the
        gateway serves inline."""
        inline, _ = _run_fleet(None)
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        pool = WorkerPool(2, transport="shm", slab_bytes=1 << 14)
        calls = []
        pool.map = lambda *args, **kw: calls.append(args)
        try:
            assert pool.plane is None
            served, _ = _run_fleet(pool)
        finally:
            pool.close()
        assert calls == []
        np.testing.assert_array_equal(
            inline.view(np.uint8), served.view(np.uint8)
        )

    def test_injected_worker_death_leaves_no_segments(self):
        metrics = MetricsRegistry()
        faults = FaultInjector(
            FaultPlan(
                seed=0,
                faults=(FaultSpec("pool.map", "kill_worker", at=1),),
            ),
            metrics=metrics,
        )
        pool = WorkerPool(
            2, metrics=metrics, faults=faults,
            transport="shm", slab_bytes=1 << 20,
        )
        try:
            gw = Gateway(_registry(), n_shards=2, t=4, pool=pool)
            client = InprocClient(gw)
            rng = np.random.default_rng(4)
            stim = rng.integers(0, 2, size=(64, 6), dtype=np.uint8)
            for i in range(4):
                name = client.open(f"c{i}")
                client.push(name, stim, last=True)
            gw.drain()  # worker dies mid-flight; dispatch recovers
            assert faults.fired and pool.plane.requests.ticks > 0
        finally:
            pool.close()

    def test_worker_death_after_warm_up_keeps_serving(self):
        """Workers forked before the plane's first tick, and the ones
        the pool respawns after a worker dies, all see every slab."""
        qm = _qmodel(seed=1)
        reg = ModelRegistry()
        reg.publish("v1", qm, activate=True)
        rng = np.random.default_rng(5)
        stims = [
            rng.integers(0, 2, size=(64, 6), dtype=np.uint8)
            for _ in range(4)
        ]
        pool = WorkerPool(2, transport="shm", slab_bytes=1 << 20)
        try:
            pool.map(abs, range(2))  # fork the workers before any tick
            gw = Gateway(reg, n_shards=2, t=4, pool=pool)
            client = InprocClient(gw)
            names = [client.open(f"c{i}") for i in range(4)]
            for name, stim in zip(names, stims):
                client.push(name, stim[:32])
            gw.tick()
            os.kill(next(iter(pool._executor._processes)), signal.SIGKILL)
            time.sleep(0.5)  # let whatever the death triggers happen
            for name, stim in zip(names, stims):
                client.push(name, stim[32:], last=True)
            gw.drain()
            assert pool.plane.requests.ticks >= 2 and not pool.degraded
        finally:
            pool.close()
        meter = OpmMeter(qm, t=4)
        for name, stim in zip(names, stims):
            np.testing.assert_array_equal(
                client.windows(name).view(np.uint8),
                meter.read(stim).view(np.uint8),
            )

    def test_sigkill_cleans_up_via_worker_watchdog(self):
        """A SIGKILLed parent runs no cleanup at all; its pool workers
        must still exit (the parent watchdog) rather than block forever
        on a dead call queue, holding the plane's memory."""
        script = textwrap.dedent("""
            import time
            import numpy as np
            from repro.opm import QuantizedModel
            from repro.parallel import WorkerPool
            from repro.serve import Gateway, InprocClient, ModelRegistry

            rng = np.random.default_rng(0)
            qm = QuantizedModel(
                proxies=np.arange(6, dtype=np.int64),
                int_weights=rng.integers(-400, 400, size=6),
                int_intercept=25, step=0.01, bits=10,
            )
            reg = ModelRegistry()
            reg.publish("v1", qm, activate=True)
            pool = WorkerPool(2, transport="shm", slab_bytes=1 << 20)
            gw = Gateway(reg, n_shards=2, t=4, pool=pool)
            client = InprocClient(gw)
            stim = rng.integers(0, 2, size=(64, 6), dtype=np.uint8)
            for i in range(4):
                name = client.open(f"c{i}")
                client.push(name, stim, last=True)
            gw.drain()  # workers live, plane in use
            print(*pool._executor._processes, flush=True)
            time.sleep(120)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        with subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        ) as proc:
            try:
                workers = [int(pid) for pid in proc.stdout.readline().split()]
                assert len(workers) == 2 and all(map(_alive, workers))
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
                deadline = time.monotonic() + 30
                while (any(map(_alive, workers))
                       and time.monotonic() < deadline):
                    time.sleep(0.2)
            finally:
                proc.kill()
        assert not any(map(_alive, workers))


# --------------------------------------------------------------------- #
# Gateway dispatching over the plane: bit-identity + fused units
# --------------------------------------------------------------------- #
def _run_fleet(pool):
    """Fixed fleet scenario: 6 sessions, a hot swap, a shard death."""
    reg = _registry(q=6)
    gw = Gateway(reg, n_shards=3, t=4, pool=pool)
    client = InprocClient(gw)
    rng = np.random.default_rng(7)
    names = []
    for i in range(6):
        if i == 4:
            gw.swap_model("v2")  # sessions 4,5 pin v2
        names.append(client.open(f"core{i}"))
    for i, name in enumerate(names):
        stim = rng.integers(0, 2, size=(48 + 8 * i, 6), dtype=np.uint8)
        client.push(name, stim, last=True)
    for _ in range(2):  # a couple of live ticks before the death
        gw.tick()
    gw.kill_shard(0, "injected")
    gw.drain()
    versions = [gw.handles[n].version for n in names]
    return np.concatenate([client.windows(n) for n in names]), versions


def test_gateway_shm_matches_inline_through_swap_and_death():
    inline, v_inline = _run_fleet(None)
    pool = WorkerPool(2, transport="shm", slab_bytes=1 << 22)
    try:
        shm_out, v_shm = _run_fleet(pool)
        assert pool.plane.requests.ticks > 0  # units were staged
        assert pool.plane.fallbacks == 0
    finally:
        pool.close()
    assert v_inline == v_shm == ["v1"] * 4 + ["v2"] * 2
    np.testing.assert_array_equal(
        inline.view(np.uint8), shm_out.view(np.uint8)
    )


def test_gateway_shm_slab_overflow_falls_back_inline():
    """A too-small arena degrades per unit, never wrongly."""
    inline, _ = _run_fleet(None)
    pool = WorkerPool(2, transport="shm", slab_bytes=1 << 10)
    try:
        shm_out, _ = _run_fleet(pool)
        assert pool.plane.fallbacks > 0
    finally:
        pool.close()
    np.testing.assert_array_equal(
        inline.view(np.uint8), shm_out.view(np.uint8)
    )


def _wide_model_and_stims(n_sessions=6, cycles=64):
    """B=55 weights at Q=24 (the widest the gateway admits at T=8), in
    pairs ``(L - a, -(L - b))`` that toggle together: every per-cycle
    sum is small, but its partial sums pass 2^54, where a float64 sum
    would round away the low bits the windows then show."""
    q, bits = 24, 55
    big = (1 << (bits - 1)) - 1
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, 1000, size=(2, q // 2))
    w = np.empty(q, dtype=np.int64)
    w[0::2] = big - a
    w[1::2] = -(big - b)
    qm = QuantizedModel(proxies=np.arange(q), int_weights=w,
                        int_intercept=-7, step=0.01, bits=bits)
    stims = [
        np.repeat(rng.integers(0, 2, size=(cycles, q // 2)), 2, axis=1)
        .astype(np.uint8)
        for _ in range(n_sessions)
    ]
    return qm, stims


def _serve_wide(pool):
    qm, stims = _wide_model_and_stims()
    reg = ModelRegistry()
    reg.publish("v1", qm, activate=True)
    gw = Gateway(reg, n_shards=2, t=8, pool=pool)
    client = InprocClient(gw)
    names = [client.open(f"core{i}") for i in range(len(stims))]
    # 12-cycle chunks leave T=8 windows open across ticks.
    for lo in range(0, 64, 12):
        for name, stim in zip(names, stims):
            client.push(name, stim[lo:lo + 12], last=lo + 12 >= 64)
        gw.tick()
    gw.drain()
    return (
        [client.windows(n) for n in names],
        [gw.handles[n].attributed_sum_int for n in names],
    )


@pytest.mark.parametrize("placement", ["inline", "shm"])
def test_widest_admitted_model_served_exactly(placement):
    qm, stims = _wide_model_and_stims()
    meter = OpmMeter(qm, t=8)
    pool = (
        WorkerPool(2, transport="shm", slab_bytes=1 << 22)
        if placement == "shm" else None
    )
    try:
        windows, sums = _serve_wide(pool)
        if pool is not None:
            assert pool.plane.fallbacks == 0
    finally:
        if pool is not None:
            pool.close()
    for got, total, stim in zip(windows, sums, stims):
        np.testing.assert_array_equal(
            got.view(np.uint8), meter.read(stim).view(np.uint8)
        )
        assert total == sum(int(v) for v in meter.per_cycle(stim))


def _run_chunked_fleet(pool, faults=None):
    """Two model versions streamed one chunk per tick over four ticks."""
    gw = Gateway(_registry(q=6), n_shards=3, t=4, pool=pool, faults=faults)
    client = InprocClient(gw)
    rng = np.random.default_rng(11)
    names = [client.open(f"core{i}") for i in range(3)]
    gw.swap_model("v2")
    names += [client.open(f"core{i}") for i in range(3, 6)]
    for step in range(4):
        for name in names:
            stim = rng.integers(0, 2, size=(32, 6), dtype=np.uint8)
            client.push(name, stim, last=step == 3)
        gw.tick()
    gw.drain()
    return np.concatenate([client.windows(n) for n in names])


def test_injected_slab_overflow_runs_units_inline():
    """The chaos ``slab_overflow`` kind stages nothing for its tick:
    those units run inline, and the pool only ever sees descriptors."""
    inline = _run_chunked_fleet(None)
    plan = FaultPlan(seed=0, faults=(
        FaultSpec("serve.tick", "slab_overflow", at=2),
    ))
    pool = WorkerPool(2, transport="shm", slab_bytes=1 << 22)
    shipped = []
    real_map = pool.map

    def spy_map(fn, items, **kw):
        items = list(items)
        shipped.extend(items)
        return real_map(fn, items, **kw)

    pool.map = spy_map
    try:
        shm_out = _run_chunked_fleet(pool, faults=FaultInjector(plan))
        assert pool.plane.fallbacks > 0
    finally:
        pool.close()
    assert shipped  # the ticks around the overflow dispatched
    assert all(isinstance(task, ShmGemvTask) for task in shipped)
    np.testing.assert_array_equal(
        inline.view(np.uint8), shm_out.view(np.uint8)
    )


def _flat(rows_per_group):
    return [
        (
            DrainGroup(None, [], [np.zeros((r, 2), dtype=np.uint8)]),
            "v1",
            None,
        )
        for r in rows_per_group
    ]


def test_split_units_rebalances_fused_unit():
    flat = _flat([10, 10, 10, 10])
    units = Gateway._split_units([[0, 1, 2, 3]], flat, target=2)
    assert sorted(map(sorted, units)) == [[0, 1], [2, 3]]
    # order preserved inside each unit, coverage exact
    assert sorted(i for u in units for i in u) == [0, 1, 2, 3]


def test_split_units_greedy_largest_first():
    flat = _flat([100, 1, 1, 1])
    units = Gateway._split_units([[0, 1], [2, 3]], flat, target=3)
    assert len(units) == 3
    # the 101-row unit was the one cut, at its row midpoint
    assert [0] in units and [1] in units and [2, 3] in units


def test_split_units_stops_when_nothing_splittable():
    flat = _flat([5, 5])
    units = Gateway._split_units([[0], [1]], flat, target=4)
    assert sorted(units) == [[0], [1]]
