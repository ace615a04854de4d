"""Tests for the shared-memory data plane (``repro.parallel.shm``).

Three contracts under test:

* **correctness** — descriptors round-trip arrays bit-exactly, stale
  generations are fenced, the digest-addressed weight vault publishes
  once, and a gateway dispatching over the plane matches the inline
  path through a hot swap, fused dispatch, an injected shard death,
  and units that cannot be staged (which run inline);
* **hygiene** — no ``/dev/shm`` segment survives pool close, ``reset``,
  an injected worker death, SIGTERM, or even a SIGKILLed parent (the
  autouse fixture sweeps after every test);
* **placement** — fused units re-split across workers so weight dedup
  never serializes the fleet.
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
    HAVE_SHM,
    ShmArena,
    ShmDataPlane,
    ShmError,
    ShmRef,
    WeightVault,
    attach_view,
    leaked_segments,
    qmodel_digest,
    resident_weights,
    weights_digest,
)
from repro.opm import QuantizedModel
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.serve import Gateway, InprocClient, ModelRegistry
from repro.serve.shard import ShmGemvTask
from repro.stream.session import DrainGroup

pytestmark = pytest.mark.skipif(
    not HAVE_SHM, reason="multiprocessing.shared_memory unavailable"
)


@pytest.fixture(autouse=True)
def shm_hygiene():
    """Every test starts and ends with a clean ``/dev/shm``."""
    assert leaked_segments() == []
    yield
    assert leaked_segments() == []


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
            np.testing.assert_array_equal(arena.view(ref), arr)
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
                arena.view(ref), np.concatenate(mats)
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
                arena.view(ref)
            with pytest.raises(ShmError, match="stale"):
                attach_view(ref)
        finally:
            arena.close()

    def test_foreign_segment_rejected(self):
        arena = ShmArena(lanes=1, slab_bytes=1 << 12)
        try:
            ref = ShmRef("apollo-not-mine", 0, "<i8", (4,), 0)
            with pytest.raises(ShmError, match="foreign"):
                arena.view(ref)
        finally:
            arena.close()

    def test_attach_after_unlink_raises(self):
        arena = ShmArena(lanes=1, slab_bytes=1 << 12)
        ref = arena.write(np.arange(8))
        arena.close()
        with pytest.raises(ShmError):
            attach_view(ref)


# --------------------------------------------------------------------- #
# Weight vault: publish-once, digests, retirement
# --------------------------------------------------------------------- #
class TestWeightVault:
    def test_publish_once_per_digest(self):
        vault = WeightVault()
        try:
            w = np.arange(6, dtype=np.int64)
            d = weights_digest(w, 40)
            ref1 = vault.ensure(d, w, 40)
            ref2 = vault.ensure(d, w, 40)
            assert ref1 is ref2 and vault.published == 1
            assert d in vault
            view, intercept, _hit = resident_weights(ref1)
            np.testing.assert_array_equal(view, w)
            assert intercept == 40
            assert not view.flags.writeable  # workers read, never write
        finally:
            vault.close()

    def test_retire_unlinks_segment(self):
        vault = WeightVault()
        try:
            w = np.arange(6, dtype=np.int64)
            d = weights_digest(w, 0)
            vault.ensure(d, w, 0)
            assert vault.retire(d)
            assert not vault.retire(d)  # second retire is a no-op
            assert d not in vault and vault.retired == 1
            assert leaked_segments() == []
        finally:
            vault.close()

    def test_digest_covers_values_dtype_and_intercept(self):
        w = np.arange(6, dtype=np.int64)
        assert weights_digest(w, 1) != weights_digest(w, 2)
        assert weights_digest(w, 1) != weights_digest(w + 1, 1)
        assert weights_digest(w, 1) != weights_digest(
            w.astype(np.int32), 1
        )

    def test_qmodel_digest_is_content_addressed(self):
        a, b = _qmodel(seed=5), _qmodel(seed=5)
        assert qmodel_digest(a) == qmodel_digest(b)  # equal content
        assert qmodel_digest(a) == qmodel_digest(a)  # cached
        assert qmodel_digest(a) != qmodel_digest(_qmodel(seed=6))


# --------------------------------------------------------------------- #
# Plane lifecycle + pool hygiene
# --------------------------------------------------------------------- #
class TestPlaneHygiene:
    def test_plane_close_is_idempotent(self):
        plane = ShmDataPlane(lanes=2, slab_bytes=1 << 14)
        names = plane.segment_names()
        assert names and leaked_segments() == sorted(names)
        stats = plane.stats()
        assert stats["weights_published"] == 0
        plane.close()
        plane.close()
        assert plane.closed and leaked_segments() == []

    def test_plane_context_manager(self):
        with ShmDataPlane(lanes=1, slab_bytes=1 << 14) as plane:
            assert leaked_segments() == sorted(plane.segment_names())
        assert leaked_segments() == []

    def test_pool_close_unlinks_segments(self):
        pool = WorkerPool(2, transport="shm", slab_bytes=1 << 14)
        assert pool.plane is not None  # lazy-create
        assert leaked_segments() != []
        pool.close()
        assert leaked_segments() == []

    def test_pool_reset_recycles_plane(self):
        pool = WorkerPool(2, transport="shm", slab_bytes=1 << 14)
        try:
            old = pool.plane.segment_names()
            pool.reset()
            assert all(n not in leaked_segments() for n in old)
            fresh = pool.plane.segment_names()  # new plane on next use
            assert fresh and set(fresh).isdisjoint(old)
        finally:
            pool.close()
        assert leaked_segments() == []

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
        finally:
            pool.close()
        assert leaked_segments() == []

    def test_sigkill_cleans_up_via_worker_watchdog(self):
        """Even SIGKILL (no atexit) leaves ``/dev/shm`` clean.

        The parent's registrations live in the shared resource
        tracker, which unlinks them once every holder of its pipe is
        gone; the pool workers' parent watchdog guarantees the orphans
        exit instead of blocking forever on the dead call queue.
        """
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
            gw.drain()  # workers live, segments published
            print("ready", flush=True)
            time.sleep(120)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            prefix = f"apollo{proc.pid}"
            assert leaked_segments(prefix=prefix) != []
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if leaked_segments(prefix=prefix) == []:
                    break
                time.sleep(0.5)
        finally:
            proc.kill()
        assert leaked_segments(prefix=prefix) == []

    def test_sigterm_sweeps_planes(self, tmp_path):
        """A SIGTERM'd serve process leaves ``/dev/shm`` clean."""
        script = textwrap.dedent("""
            import os, signal, sys, time
            from repro.parallel.shm import (
                ShmDataPlane, install_signal_cleanup,
            )
            install_signal_cleanup()
            plane = ShmDataPlane(lanes=2, slab_bytes=1 << 14)
            print("ready", flush=True)
            while True:
                time.sleep(0.05)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        try:
            assert proc.stdout.readline().strip() == "ready"
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
        finally:
            proc.kill()
        assert rc == 128 + signal.SIGTERM
        assert leaked_segments(prefix=f"apollo{proc.pid}") == []


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
        plane = pool.active_plane
        assert plane is not None
        # both model versions went resident exactly once each
        assert plane.vault.published == 2
        assert plane.fallbacks == 0
    finally:
        pool.close()
    assert v_inline == v_shm == ["v1"] * 4 + ["v2"] * 2
    np.testing.assert_array_equal(
        inline.view(np.uint8), shm_out.view(np.uint8)
    )
    assert leaked_segments() == []


def test_gateway_shm_slab_overflow_falls_back_inline():
    """A too-small arena degrades per unit, never wrongly."""
    inline, _ = _run_fleet(None)
    pool = WorkerPool(2, transport="shm", slab_bytes=1 << 10)
    try:
        shm_out, _ = _run_fleet(pool)
        assert pool.active_plane.fallbacks > 0
    finally:
        pool.close()
    np.testing.assert_array_equal(
        inline.view(np.uint8), shm_out.view(np.uint8)
    )


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
        assert pool.active_plane.fallbacks > 0
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
