"""The benchmark's workloads: the APOLLO training pipeline and two fleets.

Every workload has the same parts, driven by ``run.py``:

* ``setup(seed, tracer)`` builds what the program needs before it can
  do useful work: the gate-level core with its simulator and power
  analyzer, and, for the fleets, the trained model they serve.  It is
  timed as ``setup_s``.
* ``prepare(state)`` makes the seeded inputs and the expected outputs
  (harness work: neither set-up nor op).
* ``op(state, i, tracer)`` is one unit of user-visible work on input
  ``i`` of ``n_inputs``; it returns the outputs the check compares.
* ``check(state, outputs)`` raises :class:`CheckError` unless the op's
  outputs are correct.  It runs outside the timed region.

Layers are timed from outside: each call into a library layer is wrapped
in a :class:`repro.obs.trace.Tracer` span named after the layer (the
names in :data:`PIPELINE_LAYERS` and :data:`SERVE_LAYERS`).  With tracing
off the spans come from the library's null tracer and cost nothing.

Every workload exercises every layer, so every per-layer metric has a
measured value on every workload.  ``train`` runs the whole pipeline per
op and deploys the result to a small gateway; the fleets train the model
they serve during set-up and then serve one fleet per op.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import ApolloModel, ProxySelector
from repro.core.metrics import r2_score
from repro.core.solvers import ridge_fit
from repro.design import build_core
from repro.genbench import BenchmarkEvolver, GaConfig, PowerDataset
from repro.genbench.dataset import select_uniform_power
from repro.opm import OpmMeter, quantize_model
from repro.parallel import WorkerPool
from repro.power.analyzer import PowerAnalyzer
from repro.rtl.simulator import RecordSpec, Simulator
from repro.rtl.trace import ToggleTrace
from repro.serve import (
    Gateway,
    InprocClient,
    LoadGenConfig,
    ModelRegistry,
    build_report,
    plan,
)
from repro.uarch import CoreParams
from repro.uarch.pipeline import Pipeline

#: Span names of the paper pipeline, in pipeline order.
PIPELINE_LAYERS = (
    "ga", "uarch", "sim", "power", "features", "select", "relax", "quantize",
)
#: Span names of the serving path, in request order.
SERVE_LAYERS = ("deploy", "open", "push", "tick", "readout", "report")
#: Span attributes summed into per-layer counts.
COUNTS = ("ga_sims", "path_points", "frames", "ticks")

#: A cut-down core: ~7k nets, builds in well under a second.
CORE = CoreParams(
    name="bench",
    fetch_width=2,
    issue_width=2,
    retire_width=2,
    n_alu=2,
    n_mul=1,
    n_vec=1,
    vec_lanes=2,
    lsu_ports=1,
    iq_size=8,
    rob_size=16,
    bp_entries=16,
)

# Training pipeline shape (the same for every workload).
GA_POPULATION = 6
GA_GENERATIONS = 3
GA_PROGRAM_LENGTH = 16
EVAL_CYCLES = 128
TRAIN_PROGRAMS = 6          # dataset: 6 replayed programs x EVAL_CYCLES
SCREEN_WIDTH = 128
OPM_BITS = 10
MIN_R2 = 0.8                # a trained model explains its training data
TRAIN_INPUTS = 4            # GA seeds per ``train`` run
FLEET_Q = 24                # proxies of the model the fleets serve

# Deploy check of the ``train`` workload: one session per dataset program.
DEPLOY_T = 8
DEPLOY_CHUNK = 32
DEPLOY_SHARDS = 2


class CheckError(AssertionError):
    """An op produced a wrong output."""


@dataclass
class Env:
    """The built core and the objects every pipeline pass reuses."""

    core: object
    pipeline: Pipeline
    simulator: Simulator
    analyzer: PowerAnalyzer
    candidates: np.ndarray


def build_env() -> Env:
    core = build_core(CORE)
    return Env(
        core=core,
        pipeline=Pipeline(core.params),
        simulator=Simulator(core.netlist),
        analyzer=PowerAnalyzer(core.netlist),
        candidates=core.monitorable_nets(),
    )


# ---------------------------------------------------------------------- #
# The training pipeline, one span per layer
# ---------------------------------------------------------------------- #
def train_model(env: Env, seed: int, q: int, tracer) -> dict:
    """GA -> simulation -> power labels -> features -> MCP selection ->
    ridge relaxation -> quantized OPM; returns every intermediate the
    checks need."""
    cfg = GaConfig(
        population=GA_POPULATION,
        generations=GA_GENERATIONS,
        program_length=GA_PROGRAM_LENGTH,
        eval_cycles=EVAL_CYCLES,
        elite=1,
        seed=seed,
    )
    with tracer.span("ga") as sp:
        with BenchmarkEvolver(env.core, cfg) as evolver:
            ga = evolver.run()
        sp.set(ga_sims=evolver.n_simulated)
    chosen = select_uniform_power(ga.individuals, TRAIN_PROGRAMS, seed=seed)
    with tracer.span("uarch"):
        stims = np.stack([
            env.core.stimulus_for(
                env.pipeline.run(ind.program, EVAL_CYCLES)[0]
            )
            for ind in chosen
        ])
    with tracer.span("sim"):
        sim = env.simulator.run(stims, RecordSpec(full_trace=True))
    traces = [
        ToggleTrace(packed=sim.trace.packed[b:b + 1], n_nets=sim.trace.n_nets)
        for b in range(sim.batch)
    ]
    with tracer.span("power"):
        labels = np.concatenate(
            [env.analyzer.power_from_trace(t) for t in traces]
        )
    dataset = PowerDataset(
        trace=ToggleTrace.concat_cycles(traces),
        labels=labels,
        candidate_ids=env.candidates,
    )
    with tracer.span("features"):
        X = dataset.features()
    with tracer.span("select") as sp:
        sel = ProxySelector(screen_width=SCREEN_WIDTH).select(
            X, labels, q, candidate_ids=env.candidates
        )
        sp.set(path_points=len(sel.path_nnz))
    with tracer.span("relax"):
        cols = np.searchsorted(env.candidates, sel.proxies)
        Xq = X[:, cols]
        w, b = ridge_fit(Xq.astype(np.float64), labels)
        model = ApolloModel(
            proxies=sel.proxies, weights=w, intercept=b, selection=sel
        )
    with tracer.span("quantize"):
        qmodel = quantize_model(model, bits=OPM_BITS)
    return {
        "stims": stims,
        "labels": labels,
        "model": model,
        "qmodel": qmodel,
        "proxy_toggles": Xq,
    }


def check_model(env: Env, trained: dict) -> None:
    model = trained["model"]
    if not np.array_equal(
        env.candidates[np.searchsorted(env.candidates, model.proxies)],
        model.proxies,
    ):
        raise CheckError("selected proxies are not candidate nets")
    r2 = r2_score(
        trained["labels"], model.predict(trained["proxy_toggles"])
    )
    if not r2 >= MIN_R2:
        raise CheckError(f"trained model R^2 {r2:.3f} < {MIN_R2}")


def check_labels(env: Env, trained: dict) -> None:
    """Trace-based power labels agree with the simulator's own weighted
    toggle accumulator (the library's fused labelling path)."""
    fused = env.simulator.run(
        trained["stims"],
        RecordSpec(accumulators={"label": env.analyzer.label_weights()}),
    ).accum["label"].reshape(-1)
    if not np.allclose(trained["labels"], fused, rtol=1e-5, atol=1e-6):
        raise CheckError("power labels disagree with the fused accumulator")


# ---------------------------------------------------------------------- #
# The serving path, one span per layer
# ---------------------------------------------------------------------- #
def serve_fleet(
    qmodel, sessions, n_shards: int, t: int, tracer, pool=None
) -> dict:
    """Serve ``sessions`` (one list of toggle chunks each) closed-loop
    through a fresh gateway: every step pushes one chunk per session,
    ticks once, and reads every session's new windows.  With ``pool``
    the gateway runs inference on that (already started) worker pool,
    which outlives the gateway."""
    with tracer.span("deploy"):
        registry = ModelRegistry()
        registry.publish("v1", qmodel, activate=True)
        gateway = Gateway(registry, n_shards=n_shards, t=t, pool=pool)
        client = InprocClient(gateway)
    try:
        with tracer.span("open") as sp:
            names = [client.open(f"c{i % 4}") for i in range(len(sessions))]
            sp.set(frames=len(names))
        readings = {n: [] for n in names}

        def tick() -> bool:
            with tracer.span("tick") as sp:
                alive = client.tick()
                sp.set(ticks=1)
            with tracer.span("readout"):
                for n in names:
                    w = client.windows(n)
                    if w.size:
                        readings[n].append(w)
            return alive

        steps = max(len(chunks) for chunks in sessions)
        for step in range(steps):
            with tracer.span("push") as sp:
                sent = 0
                for name, chunks in zip(names, sessions):
                    if step < len(chunks):
                        client.push(
                            name, chunks[step], last=step == len(chunks) - 1
                        )
                        sent += 1
                sp.set(frames=sent)
            tick()
        while tick():
            pass
        with tracer.span("report"):
            report = build_report(gateway)
        handles = [gateway.handles[n] for n in names]
    finally:
        gateway.close(close_pool=False)
    return {
        "windows": [
            np.concatenate(readings[n]) if readings[n] else np.empty(0)
            for n in names
        ],
        "attributed": [h.attributed_sum_int for h in handles],
        "report": report,
    }


def expected_fleet(qmodel, sessions, t: int) -> dict:
    """Offline :class:`OpmMeter` readings for the same sessions."""
    meter = OpmMeter(qmodel, t=t)
    stims = [np.concatenate(chunks) for chunks in sessions]
    ints = [int(meter.per_cycle(s).sum()) for s in stims]
    return {
        "windows": [meter.read(s) for s in stims],
        "attributed": ints,
        "cycles": sum(s.shape[0] for s in stims),
        "energy_mwc": sum(i * qmodel.step for i in ints),
    }


def check_fleet(served: dict, expected: dict) -> None:
    """Served readings are bit-identical to the offline meter, and the
    fleet report's totals are exact."""
    for k, (got, want) in enumerate(
        zip(served["windows"], expected["windows"])
    ):
        if got.shape != want.shape or not np.array_equal(
            got.view(np.uint8), want.view(np.uint8)
        ):
            raise CheckError(f"session {k}: windows differ from OpmMeter")
    if served["attributed"] != expected["attributed"]:
        raise CheckError("integer energy attribution differs from OpmMeter")
    report = served["report"]
    if report.total_cycles != expected["cycles"]:
        raise CheckError(
            f"report counts {report.total_cycles} cycles, "
            f"expected {expected['cycles']}"
        )
    if report.total_energy_mwc != expected["energy_mwc"]:
        raise CheckError("report energy differs from the offline sum")
    if report.total_dropped_blocks:
        raise CheckError(f"{report.total_dropped_blocks} blocks dropped")


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class Workload:
    """Defaults shared by every workload."""

    #: Distinct inputs per run; op ``k`` runs on input ``k % n_inputs``.
    n_inputs = 1
    #: Timed set-ups per run (see ``run.py``).
    setup_repeats = 7

    def prepare(self, state: dict) -> None:
        pass

    def teardown(self, state: dict) -> None:
        """Release what ``setup`` started (processes, shared memory)."""


class Train(Workload):
    """One op trains a model end to end and deploys it: GA, simulation,
    power labels, MCP selection, relaxation and quantization dominate;
    the serving layers see a tiny fleet.  The GA seed differs per input,
    so a run averages over the data-dependent cost of MCP selection."""

    name = "train"
    n_inputs = TRAIN_INPUTS
    setup_repeats = 11          # set-up only builds the core: cheap
    q = 4

    def setup(self, seed: int, tracer) -> dict:
        return {"env": build_env(), "seed": seed, "labels_checked": False}

    def op(self, state: dict, i: int, tracer) -> dict:
        env = state["env"]
        trained = train_model(env, state["seed"] * 1000 + i, self.q, tracer)
        Xq = trained["proxy_toggles"]
        sessions = [
            [
                Xq[s + c:s + min(c + DEPLOY_CHUNK, EVAL_CYCLES)]
                for c in range(0, EVAL_CYCLES, DEPLOY_CHUNK)
            ]
            for s in range(0, Xq.shape[0], EVAL_CYCLES)
        ]
        served = serve_fleet(
            trained["qmodel"], sessions, DEPLOY_SHARDS, DEPLOY_T, tracer
        )
        return {"trained": trained, "sessions": sessions, "served": served}

    def check(self, state: dict, out: dict) -> None:
        env = state["env"]
        check_model(env, out["trained"])
        if not state["labels_checked"]:
            check_labels(env, out["trained"])
            state["labels_checked"] = True
        check_fleet(
            out["served"],
            expected_fleet(
                out["trained"]["qmodel"], out["sessions"], DEPLOY_T
            ),
        )


class Fleet(Workload):
    """One op serves a seeded fleet through a fresh gateway.  Set-up
    trains the served model with the same pipeline ``train`` times and,
    for a pooled fleet, starts the worker pool the gateways share."""

    def __init__(
        self, name: str, q: int, sessions: int, cycles: int, chunk: int,
        t: int, shards: int, workers: int = 0, slab_bytes: int = 0,
    ) -> None:
        self.name, self.q, self.t, self.shards = name, q, t, shards
        self.workers, self.slab_bytes = workers, slab_bytes
        self.load = dict(n_sessions=sessions, cycles=cycles,
                         chunk_cycles=chunk)

    def setup(self, seed: int, tracer) -> dict:
        env = build_env()
        trained = train_model(env, seed, self.q, tracer)
        pool = None
        if self.workers:
            pool = WorkerPool(
                workers=self.workers, transport="shm",
                slab_bytes=self.slab_bytes,
            )
            pool.map(abs, range(self.workers))  # fork the workers now
        return {"env": env, "seed": seed, "trained": trained, "pool": pool}

    def teardown(self, state: dict) -> None:
        if state["pool"] is not None:
            state["pool"].close()

    def prepare(self, state: dict) -> None:
        """Seeded session chunks and their offline expected readings."""
        qmodel = state["trained"]["qmodel"]
        plans = plan(
            LoadGenConfig(seed=state["seed"], **self.load), qmodel.q
        )
        state["sessions"] = [list(p.chunks) for p in plans]
        state["expected"] = expected_fleet(
            qmodel, state["sessions"], self.t
        )

    def op(self, state: dict, i: int, tracer) -> dict:
        return serve_fleet(
            state["trained"]["qmodel"], state["sessions"], self.shards,
            self.t, tracer, pool=state["pool"],
        )

    def check(self, state: dict, served: dict) -> None:
        if "model_checked" not in state:
            check_model(state["env"], state["trained"])
            state["model_checked"] = True
        check_fleet(served, state["expected"])


# Fleet shapes are the serving benchmark's (benchmarks/test_serve_perf.py).
# The served model is trained here instead of drawn at random, at the
# gateway fleet's width for both fleets: MCP selection of the transport
# fleet's 512 proxies would make set-up dominate the run.
WORKLOADS = {
    w.name: w
    for w in (
        Train(),
        # The gateway fleet: 16 sessions x 4096 cycles in 128-cycle
        # chunks, T=8, 4 shards, inference in process.
        Fleet("fleet-gateway", q=FLEET_Q, sessions=16, cycles=4096, chunk=128,
              t=8, shards=4),
        # The transport fleet: 32 sessions x 8192 cycles in 2048-cycle
        # chunks, T=32, 4 shards, inference on a 2-worker pool over the
        # shared-memory data plane (GEMV coalescing on).
        Fleet("fleet-shm", q=FLEET_Q, sessions=32, cycles=8192, chunk=2048,
              t=32, shards=4, workers=2, slab_bytes=128 << 20),
    )
}
