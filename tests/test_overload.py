"""Tests for overload resilience: admission control, deadline budgets,
and loss-free session failover.

The load-bearing properties:

* shedding is *deterministic* — the same seeded overload drive sheds
  exactly the same requests every time, and shed requests consume no
  gateway state (session names, sequence numbers);
* faults never change the answer — a shard killed between gather and
  apply replays its in-flight blocks and the session's windows stay
  bit-identical to an offline :class:`OpmMeter` with zero sequence
  gaps.
"""

import numpy as np
import pytest

from repro.errors import AdmissionError, ServeError
from repro.obs.metrics import MetricsRegistry
from repro.opm import OpmMeter, QuantizedModel
from repro.parallel.pool import WorkerPool
from repro.resilience import FaultInjector, FaultPlan
from repro.resilience.faults import FaultSpec
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    Gateway,
    InprocClient,
    ModelRegistry,
    PushSource,
)
from repro.serve.admission import PRIORITY_BEST_EFFORT, PRIORITY_CRITICAL
from repro.stream.session import StreamConfig

_Q = 6
_T = 8


def _qmodel(seed=0):
    rng = np.random.default_rng(seed)
    return QuantizedModel(
        proxies=np.arange(_Q, dtype=np.int64),
        int_weights=rng.integers(1, 127, size=_Q).astype(np.int64),
        int_intercept=5,
        step=0.01,
        bits=8,
    )


def _registry(seed=0):
    reg = ModelRegistry()
    reg.publish("v1", _qmodel(seed), activate=True)
    return reg


def _chunks(n, cycles=32, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.random((cycles, _Q)) < 0.3).astype(np.uint8)
        for _ in range(n)
    ]


# ------------------------------------------------------------------ #
# Admission control
# ------------------------------------------------------------------ #
class TestAdmission:
    def test_open_bucket_refills_with_ticks(self):
        ctl = AdmissionController(
            AdmissionConfig(open_rate=1.0, open_burst=2)
        )
        ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        with pytest.raises(AdmissionError) as exc:
            ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        assert exc.value.reason == "open_rate"
        # One tick later the rate refills one token.
        ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 1, 0)

    def test_critical_gets_headroom(self):
        cfg = AdmissionConfig(open_rate=1.0, open_burst=1,
                              critical_headroom=2.0)
        ctl = AdmissionController(cfg)
        ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        with pytest.raises(AdmissionError):
            ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        # Critical has its own bucket with 2x burst.
        ctl.admit_open("c0", PRIORITY_CRITICAL, 0, 0)
        ctl.admit_open("c0", PRIORITY_CRITICAL, 0, 0)

    def test_live_session_watermark(self):
        ctl = AdmissionController(AdmissionConfig(max_live_sessions=2))
        ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 1)
        with pytest.raises(AdmissionError) as exc:
            ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 2)
        assert exc.value.reason == "live_sessions"
        # Critical headroom doubles the cap.
        ctl.admit_open("c0", PRIORITY_CRITICAL, 0, 3)

    def test_queue_depth_and_latency_watermarks(self):
        ctl = AdmissionController(
            AdmissionConfig(max_pending_blocks=4,
                            latency_watermark_s=0.5)
        )
        ctl.admit_push("c0", PRIORITY_BEST_EFFORT, 0, 3)
        with pytest.raises(AdmissionError) as exc:
            ctl.admit_push("c0", PRIORITY_BEST_EFFORT, 0, 4)
        assert exc.value.reason == "queue_depth"
        with pytest.raises(AdmissionError) as exc:
            ctl.admit_push("c0", PRIORITY_BEST_EFFORT, 0, 0,
                           latency_p99_s=1.0)
        assert exc.value.reason == "latency"
        # Critical is exempt from the latency watermark.
        ctl.admit_push("c0", PRIORITY_CRITICAL, 0, 0, latency_p99_s=1.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ServeError):
            AdmissionConfig(open_rate=0.0)
        with pytest.raises(ServeError):
            AdmissionConfig(critical_headroom=0.5)
        with pytest.raises(ServeError):
            AdmissionConfig(max_live_sessions=0)

    def test_shed_counters_and_snapshot(self):
        metrics = MetricsRegistry()
        ctl = AdmissionController(
            AdmissionConfig(open_rate=1.0, open_burst=1),
            metrics=metrics,
        )
        ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        with pytest.raises(AdmissionError):
            ctl.admit_open("c0", PRIORITY_BEST_EFFORT, 0, 0)
        counters = metrics.snapshot()["counters"]

        def val(name):
            entry = counters.get(name, 0)
            return entry["value"] if isinstance(entry, dict) else entry

        assert val("serve.admission.shed") == 1
        assert val("serve.admission.shed.open_rate") == 1
        assert val("serve.admission.admitted.open") == 1
        snap = ctl.snapshot()
        assert "open:c0:besteffort" in snap["buckets"]

    def test_shedding_is_deterministic(self):
        """Two identical overload drives shed the identical request set."""

        def drive():
            ctl = AdmissionController(
                AdmissionConfig(push_rate=2.0, push_burst=3)
            )
            shed = []
            for tick in range(6):
                for i in range(5):
                    try:
                        ctl.admit_push(f"c{i % 2}",
                                       PRIORITY_BEST_EFFORT, tick, 0)
                    except AdmissionError as exc:
                        shed.append((tick, i, exc.reason))
            return shed

        first, second = drive(), drive()
        assert first == second
        assert first  # the drive genuinely overloads


# ------------------------------------------------------------------ #
# Gateway admission wiring
# ------------------------------------------------------------------ #
class TestGatewayAdmission:
    def test_shed_open_consumes_no_session_name(self):
        gw = Gateway(
            _registry(), n_shards=1, t=_T,
            admission=AdmissionConfig(open_rate=1.0, open_burst=1),
        )
        first = gw.open_session("c0")
        with pytest.raises(AdmissionError):
            gw.open_session("c0")
        # A different client still gets the next sequential name: the
        # shed open consumed nothing.
        other = gw.open_session("c1")
        assert first.name == "c0#0"
        assert other.name == "c1#1"

    def test_droop_watcher_implies_critical_priority(self):
        from repro.stream.aggregate import DroopWatcher

        gw = Gateway(_registry(), n_shards=1, t=_T)
        plain = gw.open_session("c0")
        watched = gw.open_session("c1", droop=DroopWatcher())
        assert plain.priority == PRIORITY_BEST_EFFORT
        assert watched.priority == PRIORITY_CRITICAL
        assert watched.record()["priority"] == PRIORITY_CRITICAL

    def test_shed_push_is_retryable_with_same_seq(self):
        gw = Gateway(
            _registry(), n_shards=1, t=_T,
            admission=AdmissionConfig(push_rate=1.0, push_burst=1),
        )
        client = InprocClient(gw)
        name = client.open("c0")
        chunk = _chunks(1)[0]
        client.push(name, chunk)
        with pytest.raises(AdmissionError):
            client.push(name, chunk)
        # One tick refills the bucket; the client's retry reuses the
        # same sequence number, so no gap is recorded.
        client.tick()
        client.push(name, chunk, last=True)
        handle = gw.handles[name]
        assert handle.client_seq == 2
        while gw.tick():
            pass
        assert handle.session.stats()["seq_gaps"] == 0

    def test_push_seq_mismatch_rejected(self):
        gw = Gateway(_registry(), n_shards=1, t=_T)
        handle = gw.open_session("c0")
        chunk = _chunks(1)[0]
        gw.push(handle, chunk, seq=0)
        with pytest.raises(ServeError, match="seq"):
            gw.push(handle, chunk, seq=5)
        counters = gw.metrics.snapshot()["counters"]
        entry = counters["serve.protocol.seq_gaps"]
        value = entry["value"] if isinstance(entry, dict) else entry
        assert value == 1


# ------------------------------------------------------------------ #
# Deadline budgets
# ------------------------------------------------------------------ #
class TestDeadlines:
    def test_overdue_work_downgrades_but_stays_bit_exact(self):
        reg = _registry()
        gw = Gateway(
            reg, n_shards=1, t=_T,
            config=StreamConfig(pump_blocks=1, drain_blocks=1,
                                queue_depth=64),
        )
        handle = gw.open_session("c0", deadline_ticks=0)
        chunks = _chunks(6, seed=3)
        for i, c in enumerate(chunks):
            gw.push(handle, c, last=i == len(chunks) - 1)
        while gw.tick():
            pass
        assert handle.deadline_downgrades > 0
        assert handle.session.degraded_entries > 0
        counters = gw.metrics.snapshot()["counters"]
        entry = counters["serve.deadline.exceeded"]
        value = entry["value"] if isinstance(entry, dict) else entry
        assert value == handle.deadline_downgrades
        # The degraded fallback never skips data: windows bit-exact.
        meter = reg.meter("v1", _T)
        offline = meter.read(np.concatenate(chunks, axis=0))
        assert np.array_equal(handle.pop_windows(), offline)

    def test_no_deadline_means_no_downgrades(self):
        gw = Gateway(_registry(), n_shards=1, t=_T)
        handle = gw.open_session("c0")
        chunks = _chunks(4)
        for i, c in enumerate(chunks):
            gw.push(handle, c, last=i == len(chunks) - 1)
        while gw.tick():
            pass
        assert handle.deadline_downgrades == 0


# ------------------------------------------------------------------ #
# Loss-free failover
# ------------------------------------------------------------------ #
class TestFailover:
    def test_requeue_inflight_rewinds_sequences(self):
        from repro.stream.session import StreamSession

        chunks = _chunks(3, seed=1)

        class Source:
            def __iter__(self):
                from repro.stream.source import ProxyBlock

                start = 0
                for i, c in enumerate(chunks):
                    yield ProxyBlock(start_cycle=start, toggles=c,
                                     last=i == len(chunks) - 1)
                    start += c.shape[0]

        meter = OpmMeter(_qmodel(), t=_T)
        sess = StreamSession("s", Source(), meter)
        sess.pump(3)
        taken = sess.take(2)
        assert sess.take_seq == 2
        assert sess.requeue_inflight() == 2
        assert sess.take_seq == 0
        retaken = sess.take(2)
        # The replay re-issues the same blocks in the same order.
        assert [b.start_cycle for b in retaken] == [
            b.start_cycle for b in taken
        ]
        sess.ingest(meter.per_cycle(retaken[0].toggles), n_blocks=1)
        sess.ingest(meter.per_cycle(retaken[1].toggles), n_blocks=1)
        assert sess.ingest_seq == 2
        assert sess.seq_gaps == 0
        assert sess.stats()["requeued_blocks"] == 2

    def test_shard_killed_mid_tick_is_loss_free(self):
        reg = _registry()
        plan = FaultPlan(seed=0, faults=(
            FaultSpec(site="serve.tick", kind="kill_shard", at=2),
            FaultSpec(site="serve.tick", kind="kill_shard", at=4),
        ))
        gw = Gateway(reg, n_shards=2, t=_T,
                     faults=FaultInjector(plan))
        handles = [gw.open_session(f"c{i}") for i in range(4)]
        per_session = [_chunks(6, seed=10 + i) for i in range(4)]
        for step in range(6):
            for handle, chunks in zip(handles, per_session):
                gw.push(handle, chunks[step], last=step == 5)
            gw.tick()
        while gw.tick():
            pass
        requeued = sum(
            h.session.stats()["requeued_blocks"] for h in handles
        )
        assert requeued > 0  # the kill landed mid-tick
        meter = reg.meter("v1", _T)
        for handle, chunks in zip(handles, per_session):
            stats = handle.session.stats()
            assert stats["seq_gaps"] == 0
            assert stats["take_seq"] == stats["ingest_seq"]
            offline = meter.read(np.concatenate(chunks, axis=0))
            assert np.array_equal(handle.pop_windows(), offline)


# ------------------------------------------------------------------ #
# Shutdown ordering
# ------------------------------------------------------------------ #
class TestCloseRace:
    def test_close_during_dispatch_defers_teardown(self):
        reg = _registry()
        reg.publish("v2", _qmodel(1))  # 2 versions -> pool dispatch
        pool = WorkerPool(workers=2, transport="shm")
        gw = Gateway(reg, n_shards=1, t=_T, pool=pool)
        h1 = gw.open_session("c0")
        h2 = gw.open_session("c1", version="v2")
        gw.push(h1, _chunks(1)[0], last=True)
        gw.push(h2, _chunks(1)[0], last=True)

        real_map = pool.map
        closed_during = []

        def racing_map(fn, items, **kw):
            out = real_map(fn, items, **kw)
            gw.close()  # lands mid-tick, must defer
            closed_during.append(gw.closed)
            return out

        pool.map = racing_map
        try:
            alive = gw.tick()  # must complete, results intact
        finally:
            pool.map = real_map
        assert closed_during == [False]  # deferred past the tick
        assert gw.closed
        assert pool.closed
        with pytest.raises(ServeError):
            gw.tick()
        with pytest.raises(ServeError):
            gw.open_session("c1")
        assert isinstance(alive, bool)
        assert pool.plane is None  # the deferred close reached the pool

    def test_closed_pool_never_resurrects_its_plane(self):
        pool = WorkerPool(workers=2, transport="shm")
        try:
            plane = pool.plane
            pool.close()
            assert pool.closed
            assert pool.plane is None and plane.closed
            assert not pool.parallel
            # Serial maps still work on a closed pool.
            assert pool.map(abs, [-1, -2]) == [1, 2]
            assert pool.plane is None
            pool.reset()
            assert not pool.closed
            assert pool.plane is not None and pool.plane is not plane
        finally:
            pool.close()
        assert pool.plane is None

    def test_gateway_close_is_idempotent(self):
        gw = Gateway(_registry(), n_shards=1, t=_T)
        gw.close()
        gw.close()
        assert gw.closed


# ------------------------------------------------------------------ #
# Push bursts and drop-oldest accounting
# ------------------------------------------------------------------ #
class TestPushBursts:
    def test_drop_oldest_accounting_under_burst(self):
        src = PushSource(_Q, max_pending=4)
        chunks = _chunks(10, cycles=16, seed=9)
        kept = [src.push(c) for c in chunks]
        assert kept.count(False) == 6  # 10 pushed into a 4-deep ring
        assert src.dropped_blocks == 6
        assert src.dropped_cycles == 6 * 16
        assert src.pending == 4
        assert src.blocks_pushed == 10
        assert src.cycles_pushed == 10 * 16
        # The survivors are exactly the 4 newest chunks, in order.
        survivors = [next(src) for _ in range(4)]
        for got, want in zip(survivors, chunks[6:]):
            assert np.array_equal(got.toggles, want)

    def test_gateway_burst_drops_land_in_the_record(self):
        gw = Gateway(_registry(), n_shards=1, t=_T,
                     push_buffer_blocks=2)
        handle = gw.open_session("c0")
        chunks = _chunks(5, seed=11)
        for i, c in enumerate(chunks):
            gw.push(handle, c, last=i == len(chunks) - 1)
        while gw.tick():
            pass
        assert handle.record()["dropped_blocks"] == 3
        # Only the kept cycles were processed.
        assert handle.session.cycles_processed == 2 * 32


# ------------------------------------------------------------------ #
# Keepalive and idle reaping
# ------------------------------------------------------------------ #
class TestIdleReaping:
    def test_idle_push_session_is_reaped(self):
        gw = Gateway(_registry(), n_shards=1, t=_T,
                     idle_timeout_ticks=2)
        handle = gw.open_session("c0")
        for _ in range(3):
            gw.tick()
        assert handle.push.closed
        counters = gw.metrics.snapshot()["counters"]
        entry = counters["serve.sessions.reaped"]
        value = entry["value"] if isinstance(entry, dict) else entry
        assert value == 1

    def test_ping_keeps_a_session_alive(self):
        gw = Gateway(_registry(), n_shards=1, t=_T,
                     idle_timeout_ticks=2)
        client = InprocClient(gw)
        name = client.open("c0")
        for _ in range(5):
            pong = client.ping(name)
            assert pong["op"] == "pong"
            assert pong["session"] == name
            client.tick()
        assert not gw.handles[name].push.closed
        # Stop pinging: the reaper takes it.
        for _ in range(3):
            client.tick()
        assert gw.handles[name].push.closed

    def test_sessions_with_pending_work_are_not_reaped(self):
        gw = Gateway(
            _registry(), n_shards=1, t=_T, idle_timeout_ticks=1,
            config=StreamConfig(pump_blocks=1, drain_blocks=1,
                                queue_depth=64),
        )
        handle = gw.open_session("c0")
        for c in _chunks(6, seed=2):
            gw.push(handle, c)
        for _ in range(3):
            gw.tick()
        assert not handle.push.closed


# ------------------------------------------------------------------ #
# The chaos-serve gate (smoke)
# ------------------------------------------------------------------ #
class TestChaosServe:
    def test_seeded_fault_plan_is_bit_identical(self, tmp_path):
        from repro.resilience import run_chaos_serve

        report = run_chaos_serve(seed=5, workers=2, out_dir=tmp_path)
        assert report.match, report.mismatches
        kinds = {f["kind"] for f in report.injected}
        assert "kill_shard" in kinds
        assert "flood" in kinds
        assert report.requeued_blocks > 0
        assert report.seq_gaps == 0
        assert report.floods_attempted > 0
        assert report.floods_shed == report.floods_attempted
        assert (tmp_path / "chaos-serve.report.json").exists()
        assert (tmp_path / "chaos-serve.manifest.json").exists()
