"""Tests for the streaming introspection pipeline (``repro.stream``).

The load-bearing property: every reading the stream emits — per-cycle
and T-cycle-windowed — is bit-identical to :class:`OpmMeter` run on the
whole trace, for any chunking, on both simulator engines.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StreamError
from repro.opm import OpmMeter, QuantizedModel
from repro.rtl import ENGINES, RecordSpec, Simulator, ToggleTrace
from repro.stream import (
    BudgetWatcher,
    DroopWatcher,
    MetricsRegistry,
    ProxyBlock,
    SessionHooks,
    SimulatorSource,
    StreamConfig,
    StreamService,
    StreamSession,
    TraceSource,
)

from helpers import SIM_PATHS, random_netlist


def _qmodel(nl, q=6, seed=0):
    rng = np.random.default_rng(seed)
    proxies = np.sort(rng.choice(nl.n_nets, size=q, replace=False))
    return QuantizedModel(
        proxies=proxies,
        int_weights=rng.integers(-400, 400, size=q),
        int_intercept=int(rng.integers(-50, 50)),
        step=0.01,
        bits=10,
    )


def _stim(nl, cycles, seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 2, size=(cycles, len(nl.input_ids)), dtype=np.uint8
    )


def _offline_readings(nl, qmodel, stim, t, engine="uint8"):
    res = Simulator(nl, engine=engine).run(
        stim, RecordSpec(columns=qmodel.proxies)
    )
    toggles = res.columns[0]
    per_cycle = OpmMeter(qmodel, t=1).read(toggles)
    windows = OpmMeter(qmodel, t=t).read(toggles)
    return toggles, per_cycle, windows


class _Readings:
    """A session's readings, collected through ``SessionHooks.on_ingest``."""

    def __init__(self) -> None:
        self.per_cycle: list[np.ndarray] = []
        self.windows: list[np.ndarray] = []
        self.hooks = SessionHooks(on_ingest=self._on_ingest)

    def _on_ingest(self, _sess, per_cycle_mw, windows_mw) -> None:
        self.per_cycle.append(per_cycle_mw)
        self.windows.append(windows_mw)

    def assert_equal(self, per_cycle, windows) -> None:
        """Every reading equals the offline one, byte for byte."""
        np.testing.assert_array_equal(
            np.concatenate(self.per_cycle).view(np.uint8),
            per_cycle.view(np.uint8),
        )
        np.testing.assert_array_equal(
            np.concatenate(self.windows).view(np.uint8),
            windows.view(np.uint8),
        )


def _streamed(nl, qmodel, stim, t, engine, chunk_cycles):
    source = SimulatorSource(
        nl, qmodel.proxies, stim, chunk_cycles=chunk_cycles, engine=engine
    )
    meter = OpmMeter(qmodel, t=t)
    readings = _Readings()
    sess = StreamSession(
        "s0", source, meter, config=StreamConfig(queue_depth=10_000),
        hooks=readings.hooks,
    )
    service = StreamService(meter, [sess])
    service.run()
    return sess, readings


# --------------------------------------------------------------------- #
# Acceptance property: stream == offline, bit for bit, both engines
# --------------------------------------------------------------------- #
@given(
    seed=st.integers(0, 10_000),
    cycles=st.integers(8, 120),
    chunk=st.integers(1, 50),
    t=st.sampled_from([1, 2, 4, 8]),
    engine=st.sampled_from(ENGINES),
)
@settings(max_examples=20, deadline=None)
def test_stream_bit_identical_to_offline_meter(
    seed, cycles, chunk, t, engine
):
    nl = random_netlist(seed % 7, n_gates=50)
    qmodel = _qmodel(nl, seed=seed)
    stim = _stim(nl, cycles, seed=seed + 1)
    _toggles, per_cycle, windows = _offline_readings(
        nl, qmodel, stim, t, engine="uint8"
    )
    sess, readings = _streamed(nl, qmodel, stim, t, engine, chunk)
    readings.assert_equal(per_cycle, windows)
    assert sess.cycles_processed == cycles
    assert sess.opm_stream.pending_cycles == cycles % t


@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)
def test_source_chunks_bit_identical_to_whole_trace(engine):
    """Stream-source extension of the chunked-simulation guarantees:

    concatenated source blocks == the whole-trace proxy columns, and
    per-chunk toggle counts == the matching whole-trace slice sums.
    """
    nl = random_netlist(41, n_gates=60)
    qmodel = _qmodel(nl, q=8, seed=41)
    stim = _stim(nl, 97, seed=42)
    whole = Simulator(nl, engine=engine).run(
        stim, RecordSpec(columns=qmodel.proxies)
    )
    for chunk in (1, 13, 32, 97, 200):
        source = SimulatorSource(
            nl, qmodel.proxies, stim, chunk_cycles=chunk, engine=engine
        )
        blocks = list(source)
        assert blocks[-1].last and not any(b.last for b in blocks[:-1])
        assert [b.start_cycle for b in blocks] == list(
            range(0, 97, chunk)
        )
        np.testing.assert_array_equal(
            np.concatenate([b.toggles for b in blocks], axis=0),
            whole.columns[0],
        )
        for b in blocks:
            np.testing.assert_array_equal(
                b.toggles.sum(axis=0, dtype=np.int64),
                whole.columns[0][
                    b.start_cycle : b.start_cycle + b.n_cycles
                ].sum(axis=0, dtype=np.int64),
            )


def test_trace_source_matches_offline_meter():
    """Streaming a pre-recorded emulator dump == offline metering."""
    nl = random_netlist(5, n_gates=50)
    qmodel = _qmodel(nl, seed=5)
    stim = _stim(nl, 83, seed=6)
    res = Simulator(nl).run(stim, RecordSpec(full_trace=True))
    toggles = res.trace.dense(qmodel.proxies)[0]
    t = 4
    per_cycle = OpmMeter(qmodel, t=1).read(toggles)
    windows = OpmMeter(qmodel, t=t).read(toggles)

    source = TraceSource(res.trace, qmodel.proxies, chunk_cycles=17)
    meter = OpmMeter(qmodel, t=t)
    readings = _Readings()
    sess = StreamSession(
        "replay", source, meter, config=StreamConfig(queue_depth=100),
        hooks=readings.hooks,
    )
    StreamService(meter, [sess]).run()
    readings.assert_equal(per_cycle, windows)


def test_four_session_long_run_bounded_memory():
    """4 sessions x >=25k cycles: completes, bounded peak memory, and
    the final snapshot is valid JSON (the acceptance scenario)."""
    nl = random_netlist(9, n_gates=40)
    qmodel = _qmodel(nl, q=5, seed=9)
    meter = OpmMeter(qmodel, t=8)
    cycles, chunk = 26_000, 512
    sim = Simulator(nl)  # shared compiled simulator
    sessions = [
        StreamSession(
            f"s{k}",
            SimulatorSource(
                nl, qmodel.proxies, _stim(nl, cycles, seed=100 + k),
                chunk_cycles=chunk, simulator=sim,
            ),
            meter,
        )
        for k in range(4)
    ]
    service = StreamService(meter, sessions)
    tracemalloc.start()
    snap = service.run()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert snap["counters"]["cycles_processed"] == 4 * cycles
    assert all(s.done for s in sessions)
    # One chunk of proxy columns per session — far below a
    # full-trace materialization (4 x 26k x n_nets bytes > 18 MB).
    assert peak < 12 * 1024 * 1024
    parsed = json.loads(json.dumps(snap))
    assert parsed["counters"]["windows_emitted"] == 4 * (cycles // 8)
    assert parsed["gauges"]["cycles_per_second"] > 0


# --------------------------------------------------------------------- #
# OpmStream windowing across chunk boundaries
# --------------------------------------------------------------------- #
def test_opm_stream_windows_match_accumulate_any_chunking():
    qmodel = QuantizedModel(
        proxies=np.arange(4),
        int_weights=np.array([3, -7, 11, 2]),
        int_intercept=-5,
        step=0.5,
        bits=10,
    )
    rng = np.random.default_rng(0)
    X = (rng.random((101, 4)) < 0.4).astype(np.uint8)
    meter = OpmMeter(qmodel, t=8)
    want = meter.accumulate(X)
    for sizes in ([101], [1] * 101, [3, 5, 1, 92], [50, 0, 51], [8] * 12 + [5]):
        stream = meter.stream()
        got = []
        start = 0
        for n in sizes:
            got.append(stream.push(X[start:start + n]))
            start += n
        np.testing.assert_array_equal(np.concatenate(got), want)
        assert stream.pending_cycles == 101 % 8
        assert stream.windows_out == want.size
        # Per-cycle integers pushed through one reused buffer: the open
        # window must not alias it.
        stream, buf, got, start = meter.stream(), np.empty(101, int), [], 0
        for n in sizes:
            buf[:n] = meter.per_cycle(X[start:start + n])
            got.append(stream.push_per_cycle(buf[:n]))
            buf[:] = 0
            start += n
        np.testing.assert_array_equal(np.concatenate(got), want)


def test_opm_stream_empty_and_short_final_chunks():
    qmodel = QuantizedModel(
        proxies=np.arange(2),
        int_weights=np.array([10, -3]),
        int_intercept=1,
        step=0.25,
        bits=8,
    )
    meter = OpmMeter(qmodel, t=4)
    stream = meter.stream()
    assert stream.push(np.zeros((0, 2), dtype=np.uint8)).size == 0
    out = stream.push(np.ones((3, 2), dtype=np.uint8))
    assert out.size == 0 and stream.pending_cycles == 3
    out = stream.push(np.ones((1, 2), dtype=np.uint8))
    assert out.size == 1  # window closed exactly at the boundary
    np.testing.assert_array_equal(out, meter.accumulate(
        np.ones((4, 2), dtype=np.uint8)
    ))


def test_per_cycle_rejects_bad_inputs():
    from repro.errors import OpmError

    qmodel = QuantizedModel(
        proxies=np.arange(2),
        int_weights=np.array([1, 2]),
        int_intercept=0,
        step=1.0,
        bits=4,
    )
    meter = OpmMeter(qmodel)
    with pytest.raises(OpmError):
        meter.per_cycle(np.zeros((3, 5)))
    with pytest.raises(OpmError):
        meter.per_cycle(np.full((3, 2), 2))


# --------------------------------------------------------------------- #
# Plumbing: sources, metrics
# --------------------------------------------------------------------- #
def test_source_validation():
    nl = random_netlist(2, n_gates=30)
    qmodel = _qmodel(nl, q=3, seed=2)
    with pytest.raises(StreamError):
        SimulatorSource(nl, qmodel.proxies, _stim(nl, 10), chunk_cycles=0)
    with pytest.raises(StreamError):
        SimulatorSource(
            nl, qmodel.proxies, np.zeros((0, len(nl.input_ids)))
        )
    res = Simulator(nl).run(_stim(nl, 10), RecordSpec(full_trace=True))
    with pytest.raises(StreamError):
        TraceSource(res.trace, qmodel.proxies, chunk_cycles=-1)


def test_metrics_registry_snapshot_roundtrip():
    reg = MetricsRegistry()
    reg.counter("c").inc(3)
    reg.gauge("g").set(1.5)
    h = reg.hist("h", lo=1.0, hi=100.0, growth=10.0)
    h.observe_many([0.5, 5.0, 50.0])
    snap = json.loads(json.dumps(reg.snapshot()))
    assert snap["counters"]["c"] == 3
    assert snap["gauges"]["g"] == 1.5
    # Bucket k holds (edge(k-1), edge(k)]; bucket 0 everything <= lo.
    assert snap["hists"]["h"]["buckets"] == {"0": 1, "1": 1, "2": 1}
    assert snap["hists"]["h"]["count"] == 3
    assert snap["hists"]["h"]["sum"] == pytest.approx(55.5)
    with pytest.raises(StreamError):
        reg.counter("c").inc(-1)


def test_service_rejects_empty_and_duplicate_sessions():
    nl = random_netlist(3, n_gates=30)
    qmodel = _qmodel(nl, q=3, seed=3)
    meter = OpmMeter(qmodel)
    with pytest.raises(StreamError):
        StreamService(meter, [])
    mk = lambda: StreamSession(
        "dup",
        [ProxyBlock(0, np.zeros((4, 3), dtype=np.uint8), last=True)],
        meter,
    )
    with pytest.raises(StreamError):
        StreamService(meter, [mk(), mk()])


# --------------------------------------------------------------------- #
# Backpressure and degraded mode
# --------------------------------------------------------------------- #
def _blocks(n_blocks, cycles_each, q, seed=0):
    rng = np.random.default_rng(seed)
    blocks = []
    for k in range(n_blocks):
        blocks.append(
            ProxyBlock(
                start_cycle=k * cycles_each,
                toggles=(rng.random((cycles_each, q)) < 0.5).astype(
                    np.uint8
                ),
                last=k == n_blocks - 1,
            )
        )
    return blocks


def _toy_meter(q=3, t=4, seed=7):
    rng = np.random.default_rng(seed)
    return OpmMeter(
        QuantizedModel(
            proxies=np.arange(q),
            int_weights=rng.integers(-100, 100, size=q),
            int_intercept=5,
            step=0.01,
            bits=10,
        ),
        t=t,
    )


def test_drop_oldest_backpressure_accounting():
    """Producer 3x faster than the drain: the queue drops its OLDEST
    block, every loss is accounted, and the session goes degraded."""
    meter = _toy_meter()
    cfg = StreamConfig(queue_depth=2, pump_blocks=3, drain_blocks=1)
    sess = StreamSession("s", _blocks(12, 8, 3), meter, config=cfg)
    service = StreamService(meter, [sess])
    service.run()
    assert sess.dropped_blocks > 0
    assert sess.dropped_cycles == 8 * sess.dropped_blocks
    assert sess.blocks_processed + sess.dropped_blocks == 12
    assert sess.cycles_processed + sess.dropped_cycles == 12 * 8
    assert sess.degraded_entries >= 1
    snap = service.snapshot()
    assert snap["counters"]["blocks_dropped"] == sess.dropped_blocks
    # drop-oldest: the LAST block always survives to be processed
    assert sess.done


class _CountingDroop(DroopWatcher):
    """A droop watcher that counts the cycles it observes."""

    def __init__(self) -> None:
        super().__init__(enter_ma=1e9)
        self.cycles = 0

    def observe(self, power_mw):
        self.cycles += int(np.size(power_mw))
        return super().observe(power_mw)


def test_stepped_service_snapshot_matches_run():
    """Totals are written at ``snapshot()``, not on every step: a
    service stepped to completion and then snapshotted reports what
    ``run()`` reports (timing gauges and histograms aside)."""

    def service():
        meter = _toy_meter()
        return StreamService(meter, [
            StreamSession(
                f"s{k}", _blocks(12, 8, 3, seed=k), meter,
                config=StreamConfig(queue_depth=2, pump_blocks=1 + k),
                droop=DroopWatcher(enter_ma=0.5),
                budget=BudgetWatcher(0.2),
            )
            for k in range(3)
        ])

    stepped = service()
    while stepped.step():
        pass
    got, want = stepped.snapshot(), service().run()
    timing = {"elapsed_seconds", "cycles_per_second"}
    for snap in (got, want):
        for name in timing:
            del snap["gauges"][name]
        del snap["hists"]
    assert got == want
    for name in ("blocks_dropped", "droop_alerts", "budget_violations"):
        assert got["counters"][name] > 0


def test_degraded_mode_t_cycle_fallback_and_recovery():
    """While degraded, droop detection pauses but every reading keeps
    flowing; the session recovers once its queue drains."""
    meter = _toy_meter(t=4)
    cfg = StreamConfig(queue_depth=2, pump_blocks=4, drain_blocks=1)
    blocks = _blocks(8, 8, 3, seed=1)
    droop = _CountingDroop()
    readings = _Readings()
    sess = StreamSession(
        "s", blocks, meter, config=cfg, droop=droop, hooks=readings.hooks
    )
    service = StreamService(meter, [sess])
    service.run()
    assert sess.dropped_blocks > 0 and sess.degraded_cycles > 0
    # T-cycle fallback: every processed cycle still produced readings
    assert sess.window_count == sess.cycles_processed // 4
    assert sum(w.size for w in readings.windows) == sess.window_count
    assert sum(p.size for p in readings.per_cycle) == sess.cycles_processed
    # droop detection paused during degradation
    assert droop.cycles == sess.cycles_processed - sess.degraded_cycles
    # recovered by the end (queue fully drained)
    assert sess.done and not sess.degraded
    stats = sess.stats()
    assert stats["degraded"] is False
    assert stats["degraded_cycles"] == sess.degraded_cycles


def test_healthy_session_never_degrades():
    meter = _toy_meter()
    cfg = StreamConfig(queue_depth=8, pump_blocks=1, drain_blocks=1)
    droop = _CountingDroop()
    sess = StreamSession(
        "s", _blocks(10, 8, 3, seed=2), meter, config=cfg, droop=droop
    )
    StreamService(meter, [sess]).run()
    assert sess.dropped_blocks == 0
    assert sess.degraded_entries == 0
    assert droop.cycles == sess.cycles_processed == 80


# --------------------------------------------------------------------- #
# Alert layers
# --------------------------------------------------------------------- #
def test_droop_hysteresis_single_alert_when_hovering():
    """Delta-I hovering at the enter threshold raises ONE alert, not a
    storm; re-arming requires falling below the exit threshold."""
    from repro.power.pdn import PdnModel
    from repro.stream import DroopWatcher

    pdn = PdnModel()
    w = DroopWatcher(pdn=pdn, enter_ma=2.0, exit_ma=1.0)
    vdd = pdn.vdd
    # current ramps in +2.5 mA steps (above enter), never dropping below
    # exit: power[k] = (k * 2.5 mA) * vdd
    hover = np.arange(10) * 2.5 * vdd
    assert w.observe(hover) == 1
    assert w.alerts == 1 and w.active
    assert w.alert_cycles == 9  # cycles 1..9 (cycle 0 has delta-I = 0)
    # calm chunk: delta-I goes to ~0, watcher re-arms...
    assert w.observe(np.full(5, hover[-1])) == 0
    assert not w.active
    # ...and a fresh excursion raises exactly one more alert
    assert w.observe(hover + hover[-1]) == 1
    assert w.alerts == 2


def test_droop_watcher_matches_offline_delta_current_and_pdn():
    """Chunked delta-I and PDN voltage match the offline whole-trace
    delta_current + simulate, for any chunking."""
    from repro.power.pdn import PdnModel, delta_current
    from repro.stream import DroopWatcher

    rng = np.random.default_rng(3)
    power = rng.random(200) * 6.0
    pdn = PdnModel()
    di = delta_current(power, vdd=pdn.vdd)
    v = pdn.simulate(power)
    w = DroopWatcher(pdn=pdn, enter_ma=1e9)  # alerts irrelevant here
    for chunk in np.split(power, [7, 50, 51, 130]):
        w.observe(chunk)
    assert w.max_delta_i == di.max()  # bit-identical, not approx
    assert w.min_voltage == v.min()


def test_pdn_step_chunk_bit_identical_to_simulate():
    from repro.power.pdn import PdnModel

    rng = np.random.default_rng(4)
    power = rng.random(150) * 4.0
    pdn = PdnModel()
    want = pdn.simulate(power)
    state = pdn.equilibrium_state(float(power[0]))
    parts = []
    for chunk in np.split(power, [1, 12, 13, 99]):
        out, state = pdn.step_chunk(chunk, state)
        parts.append(out)
    np.testing.assert_array_equal(
        np.concatenate(parts).view(np.uint8), want.view(np.uint8)
    )


def test_budget_watcher_matches_offline_dvfs_run():
    """Streamed window-at-a-time governing == offline DvfsGovernor.run
    on the same readings (level trajectory and violation counts)."""
    from repro.flow.dvfs import DvfsGovernor
    from repro.stream import BudgetWatcher

    rng = np.random.default_rng(5)
    readings = rng.random(60) * 8.0
    gov = DvfsGovernor()
    offline = gov.run(readings)

    bw = BudgetWatcher(
        gov.policy.power_budget_mw, governor=DvfsGovernor()
    )
    for chunk in np.split(readings, [9, 10, 37]):
        bw.observe(chunk)
    st_ = bw.dvfs_state
    assert st_.budget_violations == offline.budget_violations
    assert st_.thermal_violations == offline.thermal_violations
    assert st_.n == readings.size
    assert st_.perf_acc / st_.n == pytest.approx(offline.performance)
    assert st_.energy_mj == pytest.approx(offline.energy_mj)
    # the watcher's own budget count is the raw reading comparison
    assert bw.violations == int(
        (readings > gov.policy.power_budget_mw).sum()
    )


def test_dvfs_step_reproduces_run():
    from repro.flow.dvfs import DvfsGovernor

    rng = np.random.default_rng(6)
    readings = rng.random(40) * 7.5
    gov = DvfsGovernor()
    offline = gov.run(readings)
    state = gov.start()
    steps = [gov.step(r, state) for r in readings]
    np.testing.assert_array_equal(
        np.array([s.level for s in steps]), offline.levels
    )
    np.testing.assert_array_equal(
        np.array([s.power_mw for s in steps]).view(np.uint8),
        offline.power_mw.view(np.uint8),
    )
    np.testing.assert_array_equal(
        np.array([s.temperature_c for s in steps]).view(np.uint8),
        offline.temperature_c.view(np.uint8),
    )
    assert state.budget_violations == offline.budget_violations
    assert state.thermal_violations == offline.thermal_violations
