"""Micro-benchmarks of the observability layer's hot-path overhead.

The contract the fleet relies on: instrumenting the stream hot path
with a real :class:`~repro.obs.trace.Tracer` (versus the zero-overhead
:data:`~repro.obs.trace.NULL_TRACER` default) costs **under 3%** of
wall time, and a :class:`~repro.obs.hist.LogHistogram` observation is
cheap enough to sit on every tick.  ``make bench-obs`` asserts that
contract.

The stream workload is pre-materialized proxy blocks (a plain list is a
valid session source) — no simulator, no training — so the measurement
isolates exactly the instrumented streaming math.
"""

import statistics
import time

import numpy as np
import pytest

from repro.obs.hist import LogHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.opm import OpmMeter, QuantizedModel
from repro.stream import StreamService, StreamSession
from repro.stream.source import ProxyBlock

CYCLES = 48_000
CHUNK = 1_024
Q = 24
SESSIONS = 4

#: Max tolerated tracing overhead on the stream hot path.
OVERHEAD_LIMIT = 0.03


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
def block_lists():
    rng = np.random.default_rng(1)
    lists = []
    for _ in range(SESSIONS):
        blocks = []
        for start in range(0, CYCLES, CHUNK):
            n = min(CHUNK, CYCLES - start)
            blocks.append(ProxyBlock(
                start_cycle=start,
                toggles=(rng.random((n, Q)) < 0.3).astype(np.uint8),
                last=start + n >= CYCLES,
            ))
        lists.append(blocks)
    return lists


def _run_stream(qmodel, block_lists, tracer=None) -> dict:
    meter = OpmMeter(qmodel, t=8)
    sessions = [
        StreamSession(f"s{k}", list(blocks), meter)
        for k, blocks in enumerate(block_lists)
    ]
    service = StreamService(
        meter, sessions, registry=MetricsRegistry(), tracer=tracer,
    )
    return service.run()


def test_perf_stream_tracing_overhead(benchmark, qmodel, block_lists):
    """Traced vs untraced stream run; the gap must stay under 3%.

    Both variants use a private registry (the exact histograms record
    in either case), so the measured delta is the tracer alone — span
    open/close, attribute capture, and finished-span collection.
    """
    _run_stream(qmodel, block_lists)  # warm caches before timing
    overhead, baseline = _measure_overhead(qmodel, block_lists, rounds=7)
    if overhead >= OVERHEAD_LIMIT:
        # One escalation on a noisy box: more rounds, keep the verdict.
        overhead, baseline = _measure_overhead(
            qmodel, block_lists, rounds=15
        )

    snap = benchmark.pedantic(
        lambda: _run_stream(qmodel, block_lists, tracer=Tracer()),
        rounds=1, iterations=1,
    )
    assert snap["counters"]["cycles_processed"] == SESSIONS * CYCLES
    benchmark.extra_info["baseline_s"] = f"{baseline:.6f}"
    benchmark.extra_info["tracing_overhead_pct"] = f"{overhead * 100:.3f}"
    assert overhead < OVERHEAD_LIMIT, (
        f"tracing overhead {overhead * 100:.2f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}% over {baseline:.6f}s baseline"
    )


def _measure_overhead(qmodel, block_lists, rounds: int) -> tuple:
    """(median per-round traced/untraced ratio - 1, min untraced time).

    Each round times the two variants back to back, so clock drift and
    allocator state hit both equally; the per-round ratio then isolates
    the tracer, and the median across rounds shrugs off the scheduling
    spikes that would dominate a min- or mean-based estimate.
    """
    ratios, base_times = [], []
    for _ in range(rounds):
        base = _timed(lambda: _run_stream(qmodel, block_lists))
        traced = _timed(
            lambda: _run_stream(qmodel, block_lists, tracer=Tracer())
        )
        base_times.append(base)
        ratios.append(traced / base)
    return statistics.median(ratios) - 1.0, min(base_times)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_perf_histogram_observe(benchmark):
    """Recording into the exact log-bucketed histogram, per value."""
    rng = np.random.default_rng(2)
    values = (10.0 ** rng.uniform(-5, 0, size=50_000)).tolist()

    def record():
        h = LogHistogram()
        for v in values:
            h.observe(v)
        return h

    best = min(_timed(record) for _ in range(5))
    h = benchmark.pedantic(record, rounds=1, iterations=1)
    assert h.count == len(values)
    benchmark.extra_info["observations_per_sec"] = (
        f"{len(values) / best:.0f}"
    )


def test_perf_span_open_close(benchmark):
    """Bare span enter/exit cost on a live tracer, per span."""
    n = 20_000

    def spans():
        tracer = Tracer()
        for _ in range(n):
            with tracer.span("bench.span"):
                pass
        return tracer

    best = min(_timed(spans) for _ in range(5))
    tracer = benchmark.pedantic(spans, rounds=1, iterations=1)
    assert len(tracer.spans) == n
    benchmark.extra_info["spans_per_sec"] = f"{n / best:.0f}"
