"""Micro-benchmarks of the streaming introspection pipeline.

Times end-to-end streaming throughput (simulate -> capture -> batched
OPM inference -> aggregate) as a function of concurrent session count,
so the batched-GEMV amortization and any per-session overhead are
visible as cycles/sec in the ``--benchmark-json`` output.

The quantized model is built directly from random integer weights over
monitorable nets — no training — so the benchmark isolates the stream
path itself.
"""

import numpy as np
import pytest

from repro.opm import OpmMeter, QuantizedModel
from repro.rtl import Simulator
from repro.stream import SimulatorSource, StreamService, StreamSession

CYCLES = 4_000
CHUNK = 256
Q = 24


@pytest.fixture(scope="module")
def core(ctx_n1):
    return ctx_n1.core


@pytest.fixture(scope="module")
def qmodel(core):
    rng = np.random.default_rng(0)
    proxies = np.sort(
        rng.choice(core.netlist.n_nets, size=Q, replace=False)
    )
    return QuantizedModel(
        proxies=proxies,
        int_weights=rng.integers(-511, 512, size=Q),
        int_intercept=40,
        step=0.01,
        bits=10,
    )


@pytest.mark.parametrize("n_sessions", [1, 2, 4])
def test_perf_stream_service(benchmark, core, qmodel, n_sessions):
    """Full streaming run: ``n_sessions`` concurrent per-core streams
    multiplexed through one batched inference path."""
    nl = core.netlist
    meter = OpmMeter(qmodel, t=8)
    sim = Simulator(nl, engine="packed")
    rng = np.random.default_rng(1)
    stims = [
        rng.integers(
            0, 2, size=(CYCLES, len(nl.input_ids)), dtype=np.uint8
        )
        for _ in range(n_sessions)
    ]

    def run():
        sessions = [
            StreamSession(
                f"s{k}",
                SimulatorSource(
                    nl, qmodel.proxies, stims[k],
                    chunk_cycles=CHUNK, simulator=sim,
                ),
                meter,
            )
            for k in range(n_sessions)
        ]
        service = StreamService(meter, sessions)
        return service.run()

    snap = benchmark.pedantic(run, rounds=3, iterations=1)
    assert snap["counters"]["cycles_processed"] == n_sessions * CYCLES
    benchmark.extra_info["n_sessions"] = str(n_sessions)
    benchmark.extra_info["cycles_per_sec"] = (
        f"{snap['gauges']['cycles_per_second']:.0f}"
    )
