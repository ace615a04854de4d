"""Micro-benchmarks of the fleet serving layer (``repro.serve``).

Times the same seeded load three ways — a direct single-process
:class:`StreamService` (the floor: no protocol, no shards), a one-shard
gateway (adds the framed protocol + tick loop), and a sharded gateway —
and reports ``sessions_per_sec`` / ``cycles_per_sec`` plus the p99
per-tick pump latency in ``extra_info``, so serving overhead and shard
scaling land in the ``BENCH_serve.json`` trajectory.

``test_perf_serve_placement`` additionally races the gateway's two
inference placements — inline GEMV vs a 2-worker :class:`WorkerPool`
over the shared-memory data plane — on an identical large-block fleet,
recording each arm's wall time and the shm arm's speedup over inline,
so whether the pool earns its keep is a measured number.

Every variant asserts bit-identical window readings against the offline
:class:`OpmMeter`, so the perf numbers can never drift away from a
correct configuration.
"""

import time

import numpy as np
import pytest

from repro.opm import OpmMeter, QuantizedModel
from repro.parallel import HAVE_SHM, WorkerPool, leaked_segments
from repro.serve import Gateway, LoadGenConfig, ModelRegistry, plan, run_load
from repro.stream import ProxyBlock, StreamConfig, StreamService, StreamSession

N_SESSIONS = 16
CYCLES = 4_096
CHUNK = 128
Q = 24
T = 8
SEED = 20211018

LOAD = LoadGenConfig(
    n_sessions=N_SESSIONS, cycles=CYCLES, chunk_cycles=CHUNK, seed=SEED,
)


@pytest.fixture(scope="module")
def qmodel():
    rng = np.random.default_rng(0)
    return QuantizedModel(
        proxies=np.arange(Q, dtype=np.int64),
        int_weights=rng.integers(-511, 512, size=Q),
        int_intercept=40,
        step=0.01,
        bits=10,
    )


@pytest.fixture(scope="module")
def plans(qmodel):
    return plan(LOAD, qmodel.q)


@pytest.fixture(scope="module")
def expected_windows(qmodel, plans):
    meter = OpmMeter(qmodel, t=T)
    return [meter.read(p.stimulus) for p in plans]


def _registry(qmodel):
    reg = ModelRegistry()
    reg.publish("v1", qmodel, activate=True)
    return reg


def _check(windows_per_session, expected_windows):
    for got, want in zip(windows_per_session, expected_windows):
        np.testing.assert_array_equal(
            np.asarray(got).view(np.uint8), want.view(np.uint8)
        )


def test_perf_serve_direct_service(
    benchmark, qmodel, plans, expected_windows
):
    """Floor: the same load through a bare StreamService (no serving)."""
    meter = OpmMeter(qmodel, t=T)
    cfg = StreamConfig(
        queue_depth=len(plans[0].chunks) + 1,
        window_ring_capacity=CYCLES // T + 1,
    )

    def run():
        sessions = []
        for k, p in enumerate(plans):
            blocks = [
                ProxyBlock(
                    start_cycle=i * CHUNK, toggles=c,
                    last=i == len(p.chunks) - 1,
                )
                for i, c in enumerate(p.chunks)
            ]
            sessions.append(
                StreamSession(f"s{k}", blocks, meter, config=cfg)
            )
        StreamService(meter, sessions).run()
        return [s.window_ring.values() for s in sessions]

    windows = benchmark.pedantic(run, rounds=3, iterations=1)
    _check(windows, expected_windows)
    total = N_SESSIONS * CYCLES
    benchmark.extra_info["sessions_per_sec"] = (
        f"{N_SESSIONS / benchmark.stats.stats.mean:.1f}"
    )
    benchmark.extra_info["cycles_per_sec"] = (
        f"{total / benchmark.stats.stats.mean:.0f}"
    )


@pytest.mark.parametrize("n_shards", [1, 4])
def test_perf_serve_gateway(
    benchmark, qmodel, plans, expected_windows, n_shards
):
    """The served path: framed protocol + tick loop + shard routing."""
    state = {}

    def run():
        gateway = Gateway(_registry(qmodel), n_shards=n_shards, t=T)
        report = run_load(gateway, LOAD)
        state["gateway"], state["report"] = gateway, report
        return report

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.cycles_total == N_SESSIONS * CYCLES
    assert report.dropped_blocks == 0
    # readings dict preserves open order == plan order
    _check(list(report.readings.values()), expected_windows)
    benchmark.extra_info["n_shards"] = str(n_shards)
    benchmark.extra_info["sessions_per_sec"] = (
        f"{report.sessions_per_sec:.1f}"
    )
    benchmark.extra_info["cycles_per_sec"] = (
        f"{report.cycles_per_sec:.0f}"
    )
    benchmark.extra_info["pump_latency_p99_s"] = (
        f"{state['gateway'].pump_latency_p99():.6f}"
    )


# --- placement race: inline GEMV vs a pool over the shm plane --------
#
# Sized so per-tick toggle traffic (~20 MB) dominates session
# bookkeeping: the shm arm stages every stacked block into a slab and
# ships ~100 B descriptors to two workers, the inline arm runs the same
# GEMV in the gateway's process.  Same fleet shape for both arms.

TR_SESSIONS = 32
TR_CYCLES = 8_192
TR_CHUNK = 2_048
TR_Q = 512
TR_T = 32
TR_SHARDS = 4
TR_WORKERS = 2
TR_SLAB = 128 << 20

TR_LOAD = LoadGenConfig(
    n_sessions=TR_SESSIONS, cycles=TR_CYCLES, chunk_cycles=TR_CHUNK,
    seed=SEED,
)

#: placement -> fastest round (s), so the shm arm can report its
#: speedup over the inline arm from the same session.
_BEST_S: dict[str, float] = {}


@pytest.fixture(scope="module")
def tr_qmodel():
    rng = np.random.default_rng(0)
    return QuantizedModel(
        proxies=np.arange(TR_Q, dtype=np.int64),
        int_weights=rng.integers(-511, 512, size=TR_Q),
        int_intercept=40,
        step=0.01,
        bits=10,
    )


@pytest.fixture(scope="module")
def tr_expected(tr_qmodel):
    meter = OpmMeter(tr_qmodel, t=TR_T)
    return [meter.read(p.stimulus) for p in plan(TR_LOAD, tr_qmodel.q)]


@pytest.mark.parametrize("placement", ["inline", "shm"])
def test_perf_serve_placement(
    benchmark, tr_qmodel, tr_expected, placement
):
    """Same fleet, same load — only where the GEMV runs moves."""
    if placement == "shm" and not HAVE_SHM:
        pytest.skip("multiprocessing.shared_memory unavailable")
    pool = (
        WorkerPool(workers=TR_WORKERS, transport="shm", slab_bytes=TR_SLAB)
        if placement == "shm" else None
    )
    state = {}

    def run():
        gateway = Gateway(
            _registry(tr_qmodel), n_shards=TR_SHARDS, t=TR_T, pool=pool,
        )
        report = run_load(gateway, TR_LOAD)
        state["gateway"], state["report"] = gateway, report
        return report

    try:
        run()  # warm up: fork + first-dispatch cost stays untimed
        report = benchmark.pedantic(run, rounds=3, iterations=1)
        assert report.cycles_total == TR_SESSIONS * TR_CYCLES
        assert report.dropped_blocks == 0
        _check(list(report.readings.values()), tr_expected)
        if pool is not None:
            plane = pool.active_plane
            assert plane is not None and plane.fallbacks == 0
    finally:
        if pool is not None:
            pool.close()
    assert leaked_segments() == []
    _BEST_S[placement] = benchmark.stats.stats.min
    benchmark.extra_info["placement"] = placement
    benchmark.extra_info["sessions_per_sec"] = (
        f"{report.sessions_per_sec:.1f}"
    )
    benchmark.extra_info["tick_p99_s"] = f"{report.tick_p99_s:.6f}"
    if placement == "shm" and "inline" in _BEST_S:  # absent under -k shm
        benchmark.extra_info["speedup_vs_inline"] = (
            f"{_BEST_S['inline'] / _BEST_S['shm']:.2f}"
        )


# --- overload: 2x offered load against a fixed admission capacity ----
#
# Sixteen clients race to open against a fleet capped at 8 live
# best-effort sessions (critical headroom 2x).  Every 4th offered
# session carries a droop watcher, so the gateway classes it critical:
# the acceptance bar is that *zero* droop sessions shed while the
# best-effort overflow does, the shed set is bit-identical run to run,
# and the p99 tick latency of the admitted sessions stays within 1.5x
# of the same fleet running uncontended (no admission, no overflow).

OV_SESSIONS = 16          # offered; capacity admits 10 (4 crit + 6 be)
OV_CYCLES = 4_096
OV_CHUNK = 512
OV_CAP = 8                # best-effort live-session cap

OV_LOAD = LoadGenConfig(
    n_sessions=OV_SESSIONS, cycles=OV_CYCLES, chunk_cycles=OV_CHUNK,
    seed=SEED,
)


def _tick_p99(durations):
    """Wall-clock per-tick p99 — smooth, unlike the log-histogram's
    power-of-two bucket edges (adjacent buckets are 2x apart, which a
    1.5x regression bound could never resolve)."""
    return float(np.percentile(np.asarray(durations), 99))


def _overload_drive(qmodel, plans):
    """Offer 2x capacity, run admitted sessions to completion.

    Returns ``(shed, admitted_names, windows, p99)`` where ``shed`` is
    the deterministic record of rejected opens.
    """
    from repro.errors import AdmissionError
    from repro.serve import AdmissionConfig
    from repro.stream.aggregate import DroopWatcher

    gateway = Gateway(
        _registry(qmodel), n_shards=2, t=T,
        admission=AdmissionConfig(
            open_rate=32.0, open_burst=64,
            push_rate=1024.0, push_burst=2048,
            max_live_sessions=OV_CAP, critical_headroom=2.0,
        ),
    )
    handles, shed = [], []
    for k, _p in enumerate(plans):
        critical = k % 4 == 0
        try:
            handles.append(gateway.open_session(
                f"ov{k}",
                droop=DroopWatcher() if critical else None,
            ))
        except AdmissionError as exc:
            shed.append((f"ov{k}", critical, exc.reason))
    steps = OV_CYCLES // OV_CHUNK
    durs = []
    for step in range(steps):
        for h in handles:
            chunk = plans[int(h.name.split("#")[0][2:])].chunks[step]
            gateway.push(h, chunk, last=step == steps - 1)
        t0 = time.perf_counter()
        gateway.tick()
        durs.append(time.perf_counter() - t0)
    while True:
        t0 = time.perf_counter()
        alive = gateway.tick()
        durs.append(time.perf_counter() - t0)
        if not alive:
            break
    windows = {h.name: h.pop_windows() for h in handles}
    gateway.close()
    return shed, [h.name for h in handles], windows, _tick_p99(durs)


def _uncontended_p99(qmodel, plans, admitted_idx):
    """The same admitted fleet — droop watchers and all — with no
    admission layer and no overflow pressure."""
    from repro.stream.aggregate import DroopWatcher

    gateway = Gateway(_registry(qmodel), n_shards=2, t=T)
    handles = [
        gateway.open_session(
            f"ov{k}", droop=DroopWatcher() if k % 4 == 0 else None,
        )
        for k in admitted_idx
    ]
    steps = OV_CYCLES // OV_CHUNK
    durs = []
    for step in range(steps):
        for h, k in zip(handles, admitted_idx):
            gateway.push(
                h, plans[k].chunks[step], last=step == steps - 1
            )
        t0 = time.perf_counter()
        gateway.tick()
        durs.append(time.perf_counter() - t0)
    while True:
        t0 = time.perf_counter()
        alive = gateway.tick()
        durs.append(time.perf_counter() - t0)
        if not alive:
            break
    gateway.close()
    return _tick_p99(durs)


def test_perf_serve_overload_shedding(benchmark, qmodel):
    """2x overload: deterministic best-effort sheds, bounded p99."""
    plans_ov = plan(OV_LOAD, qmodel.q)
    state = {"p99s": []}

    def run():
        shed, admitted, windows, p99 = _overload_drive(qmodel, plans_ov)
        state["shed"], state["admitted"] = shed, admitted
        state["windows"] = windows
        state["p99s"].append(p99)
        return shed

    shed = benchmark.pedantic(run, rounds=3, iterations=1)
    # Shedding is deterministic: every round rejected the same opens
    # for the same reasons (pedantic reran `run`; all rounds must agree
    # with the returned record).
    again, *_ = _overload_drive(qmodel, plans_ov)
    assert again == shed
    # Zero critical (droop-watcher) sessions shed; best-effort did shed.
    assert shed, "2x offered load must shed"
    assert all(not critical for _n, critical, _r in shed)
    assert {r for _n, _c, r in shed} == {"live_sessions"}
    admitted_idx = [int(n.split("#")[0][2:]) for n in state["admitted"]]
    assert [k for k in range(OV_SESSIONS) if k % 4 == 0] == [
        k for k in admitted_idx if k % 4 == 0
    ]
    # Admitted sessions stayed bit-exact under overload.
    meter = OpmMeter(qmodel, t=T)
    for name, k in zip(state["admitted"], admitted_idx):
        np.testing.assert_array_equal(
            np.asarray(state["windows"][name]),
            meter.read(plans_ov[k].stimulus),
        )
    # p99 tick latency for admitted work within 1.5x of uncontended.
    base = min(
        _uncontended_p99(qmodel, plans_ov, admitted_idx)
        for _ in range(3)
    )
    contended = min(state["p99s"])
    assert contended <= 1.5 * max(base, 1e-6), (
        f"admitted p99 {contended:.6f}s vs uncontended {base:.6f}s"
    )
    benchmark.extra_info["offered_sessions"] = str(OV_SESSIONS)
    benchmark.extra_info["admitted_sessions"] = str(len(admitted_idx))
    benchmark.extra_info["shed_sessions"] = str(len(shed))
    benchmark.extra_info["tick_p99_s"] = f"{contended:.6f}"
    benchmark.extra_info["uncontended_p99_s"] = f"{base:.6f}"
