"""End-to-end chaos harness: a faulted pipeline must match a clean one.

:func:`run_chaos` runs the training pipeline (GA micro-benchmark
evolution -> training-dataset collection -> APOLLO selection/relaxation
-> fixed-point quantization) twice:

1. a **baseline** run — serial, uncached, no faults;
2. a **faulted** run — cached, worker-pooled, and driven under a
   seeded :class:`~repro.resilience.faults.FaultPlan` that kills
   workers, raises transients, corrupts cache entries, and interrupts
   stage boundaries.  Every interrupt is handled the way production
   would handle a crashed process: the stage is called again.  The GA
   and the dataset build are pure functions of their inputs, so each
   gets the runs it finished back from the cache and simulates only
   the rest.  The cache starts empty, so a re-run on the same output
   directory fires the whole plan again.

The harness then compares the two quantized models **bit for bit**.
A match is the whole point of the resilience layer: faults may cost
time, but they may never change the answer.  The ``apollo-repro chaos``
subcommand wraps this function; chaos property tests drive it (and the
individual fault sites) directly.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import AdmissionError, ResilienceError, TransientFault
from repro.obs.trace import NULL_TRACER
from repro.resilience.faults import FaultInjector, FaultPlan

__all__ = [
    "CHAOS_SITES",
    "SERVE_CHAOS_SITES",
    "ChaosReport",
    "ServeChaosReport",
    "run_chaos",
    "run_chaos_serve",
]

#: Fault sites a default chaos plan draws from — exactly the ones the
#: GA + dataset + training pipeline passes through.
CHAOS_SITES: dict[str, tuple[str, ...]] = {
    "pool.map": ("kill_worker", "transient"),
    "cache.read": ("corrupt",),
    "cache.write": ("transient",),
    "ga.generation": ("interrupt",),
    "dataset.train.wave": ("interrupt",),
}

#: Fault sites a serve chaos plan draws from — the serving hot path.
#: ``serve.tick`` fires inside the gateway between gather and apply
#: (the loss-free failover window), ``pool.map`` inside the worker
#: pool, ``stream.source`` on pull-session source pulls, and
#: ``serve.admission`` is fired by the chaos driver itself to flood
#: the gateway with best-effort opens mid-load.
SERVE_CHAOS_SITES: dict[str, tuple[str, ...]] = {
    "serve.tick": ("kill_shard", "slab_overflow"),
    "pool.map": ("kill_worker",),
    "stream.source": ("stall",),
    "serve.admission": ("flood",),
}


@dataclass
class ChaosReport:
    """Outcome of one chaos experiment (JSON-ready via :meth:`to_dict`)."""

    seed: int
    match: bool
    restarts: int
    injected: list[dict]
    plan: dict
    baseline_sha256: str
    faulted_sha256: str
    baseline_seconds: float
    faulted_seconds: float
    design: str = "m0"
    scale: str = "tiny"
    engine: str = "packed"
    workers: int = 2
    out_dir: str | None = None
    stages: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "match": self.match,
            "restarts": self.restarts,
            "injected": self.injected,
            "plan": self.plan,
            "baseline_sha256": self.baseline_sha256,
            "faulted_sha256": self.faulted_sha256,
            "baseline_seconds": self.baseline_seconds,
            "faulted_seconds": self.faulted_seconds,
            "design": self.design,
            "scale": self.scale,
            "engine": self.engine,
            "workers": self.workers,
            "out_dir": self.out_dir,
            "stages": self.stages,
        }

    def render(self) -> str:
        lines = [
            f"chaos seed {self.seed}: "
            + ("MATCH — faulted run is bit-identical" if self.match
               else "MISMATCH — faulted run diverged"),
            f"  design {self.design} · scale {self.scale} · engine "
            f"{self.engine} · workers {self.workers}",
            f"  faults injected: {len(self.injected)}  "
            f"stage restarts: {self.restarts}",
            f"  baseline {self.baseline_seconds:.2f}s  "
            f"faulted {self.faulted_seconds:.2f}s",
            f"  model sha256 {self.baseline_sha256[:16]} vs "
            f"{self.faulted_sha256[:16]}",
        ]
        for site, kind, at in sorted(
            (f["site"], f["kind"], f["at"]) for f in self.injected
        ):
            lines.append(f"    {site:<18} {kind:<12} arrival {at}")
        return "\n".join(lines)


def _model_sha256(qmodel) -> str:
    """Content hash over every array/scalar the artifact persists."""
    h = hashlib.sha256()
    for arr in (
        np.asarray(qmodel.proxies, dtype=np.int64),
        np.asarray(qmodel.int_weights, dtype=np.int64),
        np.asarray([qmodel.int_intercept], dtype=np.int64),
        np.asarray([qmodel.step], dtype=np.float64),
        np.asarray([qmodel.bits], dtype=np.int64),
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _models_equal(a, b) -> bool:
    return (
        np.array_equal(a.proxies, b.proxies)
        and np.array_equal(a.int_weights, b.int_weights)
        and a.int_intercept == b.int_intercept
        and a.step == b.step
        and a.bits == b.bits
    )


def _check_sites(plan: FaultPlan, sites: dict, harness: str) -> None:
    """Refuse a plan that schedules faults at a site ``harness`` never
    fires: such a spec would do nothing, silently."""
    unknown = sorted({spec.site for spec in plan.faults} - sites.keys())
    if unknown:
        raise ResilienceError(
            f"the {harness} harness never fires fault site(s) "
            f"{', '.join(unknown)} (it fires {', '.join(sorted(sites))})"
        )


def _restartable(fn, counters: dict, label: str, max_restarts: int, cache):
    """Crash-restart driver: call ``fn()`` again on interrupts.

    ``fn`` is one pipeline stage; an escaped :class:`TransientFault`
    models the process dying at a stage boundary, and the next call
    models the operator (or supervisor) restarting it.  Every stage is
    a pure function of its inputs, so a restart resumes from the
    finished work its cache holds.  A restarted process would have lost
    the cache's memory tier, so it is dropped before the next call, and
    the finished work comes back from disk (through the ``cache.read``
    fault site).
    """
    for _attempt in range(max_restarts + 1):
        try:
            return fn()
        except TransientFault:
            if cache is not None:
                cache.clear_memory()
            counters["restarts"] += 1
            counters.setdefault("by_stage", {}).setdefault(label, 0)
            counters["by_stage"][label] += 1
    raise ResilienceError(
        f"stage {label!r} did not complete within {max_restarts} restarts"
    )


def _pipeline(
    core,
    scale,
    seed: int,
    engine: str,
    workers: int,
    cache,
    faults,
    tracer,
    counters: dict,
    max_restarts: int,
    stages: dict | None = None,
):
    """GA -> training dataset -> APOLLO -> quantized model."""
    from repro.core.model import train_apollo
    from repro.core.selection import _abs_corr
    from repro.genbench import (
        BenchmarkEvolver,
        GaConfig,
        build_training_dataset,
    )
    from repro.opm import quantize_model

    def timed(name):
        t0 = time.perf_counter()

        def done():
            if stages is not None:
                stages[name] = round(time.perf_counter() - t0, 4)

        return done

    done = timed("ga")
    cfg = GaConfig(
        population=scale.ga_population,
        generations=scale.ga_generations,
        eval_cycles=scale.ga_benchmark_cycles,
        seed=seed,
    )
    evolver = BenchmarkEvolver(
        core,
        cfg,
        engine=engine,
        tracer=tracer,
        workers=workers,
        cache=cache,
        faults=faults,
    )
    try:
        ga = _restartable(evolver.run, counters, "ga", max_restarts, cache)
    finally:
        evolver.close()
    done()

    done = timed("dataset")
    train = _restartable(
        lambda: build_training_dataset(
            core,
            ga,
            target_cycles=scale.train_cycles,
            replay_cycles=scale.ga_benchmark_cycles,
            seed=seed,
            engine=engine,
            workers=workers,
            cache=cache,
            faults=faults,
        ),
        counters, "dataset", max_restarts, cache,
    )
    done()

    done = timed("train")
    # Correlation screen + MCP selection + ridge relaxation, the same
    # shape ExperimentContext uses (inlined so the chaos pipeline has no
    # hidden disk caches of its own).
    ids = train.candidate_ids
    X = train.features(ids)
    if X.shape[1] > scale.screen_width:
        corr = _abs_corr(X.astype(np.float32), train.labels)
        keep = np.sort(
            np.argsort(-corr, kind="stable")[: scale.screen_width]
        )
        X = X[:, keep]
        ids = ids[keep]
    q = max(4, min(scale.max_quickstart_q, X.shape[1] // 4))
    model = train_apollo(
        np.ascontiguousarray(X),
        train.labels,
        q=q,
        candidate_ids=np.asarray(ids),
        tracer=tracer,
    )
    qmodel = quantize_model(model)
    done()
    return qmodel


def run_chaos(
    seed: int = 0,
    design: str = "m0",
    scale: str | None = "tiny",
    engine: str = "packed",
    workers: int = 2,
    out_dir: str | Path | None = None,
    plan: FaultPlan | None = None,
    n_faults: int = 6,
    max_at: int = 3,
    tracer=None,
) -> ChaosReport:
    """Run the faulted-vs-clean pipeline comparison; see module docs.

    Parameters
    ----------
    seed:
        Seeds both the pipeline (GA etc.) and, when ``plan`` is not
        given, the random :class:`FaultPlan` — the whole experiment is
        reproducible from this one number.
    design, scale, engine, workers:
        Pipeline configuration for both runs.  The baseline runs
        serial/uncached regardless of ``workers``; the faulted run uses
        the worker pool and the cache.
    out_dir:
        Where the faulted run's disk cache (``cache/``, emptied before
        the run), the report JSON, and the run manifest land.  A
        temporary directory is used when omitted.
    plan:
        Explicit :class:`FaultPlan`; default is
        ``FaultPlan.random(seed, sites=CHAOS_SITES, ...)``.  A plan that
        names a site outside :data:`CHAOS_SITES` raises
        :class:`ResilienceError` before any work.
    """
    import tempfile

    from repro.config import get_scale
    from repro.design import build_core
    from repro.obs.provenance import RunManifest, config_hash
    from repro.parallel.cache import EvalCache
    from repro.uarch import A77_LIKE, M0_LIKE, N1_LIKE

    params = {"m0": M0_LIKE, "n1": N1_LIKE, "a77": A77_LIKE}.get(design)
    if params is None:
        raise ResilienceError(f"unknown design {design!r}")
    plan = plan or FaultPlan.random(
        seed, sites=CHAOS_SITES, n_faults=n_faults, max_at=max_at
    )
    _check_sites(plan, CHAOS_SITES, "chaos")
    scale_obj = get_scale(scale if isinstance(scale, str) else None)
    tracer = tracer or NULL_TRACER
    core = build_core(params)
    # Every scheduled fault can fire at most once, so interrupts (the
    # only kind that escapes a stage) bound the restart count.
    max_restarts = len(plan.faults) + 1

    tmp = None
    if out_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="apollo-chaos-")
        out_dir = tmp.name
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        t0 = time.perf_counter()
        baseline = _pipeline(
            core, scale_obj, seed, engine,
            workers=1, cache=None, faults=None,
            tracer=tracer, counters={"restarts": 0}, max_restarts=0,
        )
        baseline_s = time.perf_counter() - t0

        injector = FaultInjector(plan)
        # A cache left by an earlier run would answer every lookup, and
        # the plan's cache and pool faults would never fire.
        cache_dir = out / "cache"
        if cache_dir.exists():
            shutil.rmtree(cache_dir)
        cache = EvalCache(disk_dir=cache_dir, faults=injector)
        counters: dict = {"restarts": 0}
        stages: dict = {}
        t0 = time.perf_counter()
        faulted = _pipeline(
            core, scale_obj, seed, engine,
            workers=workers, cache=cache, faults=injector,
            tracer=tracer, counters=counters,
            max_restarts=max_restarts, stages=stages,
        )
        faulted_s = time.perf_counter() - t0

        report = ChaosReport(
            seed=seed,
            match=_models_equal(baseline, faulted),
            restarts=counters["restarts"],
            injected=[
                {"site": site, "kind": kind, "at": at}
                for site, kind, at in injector.fired
            ],
            plan=plan.to_dict(),
            baseline_sha256=_model_sha256(baseline),
            faulted_sha256=_model_sha256(faulted),
            baseline_seconds=round(baseline_s, 4),
            faulted_seconds=round(faulted_s, 4),
            design=design,
            scale=scale_obj.name,
            engine=engine,
            workers=workers,
            out_dir=None if tmp is not None else str(out),
            stages=stages,
        )

        manifest = RunManifest(
            run="chaos",
            design=design,
            scale=scale_obj.name,
            seed=seed,
            engine=engine,
            config={"workers": workers, "n_faults": len(plan.faults)},
            extra={
                "match": report.match,
                "restarts": report.restarts,
                "config_hash": config_hash(plan.to_dict()),
            },
        )
        manifest.record_fault_plan(injector)
        for name, wall in stages.items():
            manifest.add_stage(name, wall)
        manifest.save(out / "chaos.manifest.json")
        (out / "chaos.report.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        return report
    finally:
        if tmp is not None:
            tmp.cleanup()


# ------------------------------------------------------------------ #
# Serving chaos: a faulted fleet must match a fault-free one
# ------------------------------------------------------------------ #

#: Synthetic serving model shape (mirrors the serve demo: no RTL
#: needed to exercise the gateway).
_SERVE_Q = 6
_SERVE_T = 8


@dataclass
class ServeChaosReport:
    """Outcome of one serve chaos experiment (``make chaos-serve``)."""

    seed: int
    match: bool
    mismatches: list[str]
    injected: list[dict]
    plan: dict
    shards: int
    workers: int
    sessions: int
    floods_attempted: int
    floods_shed: int
    floods_admitted: int
    requeued_blocks: int
    seq_gaps: int
    baseline_sha256: str
    faulted_sha256: str
    baseline_seconds: float
    faulted_seconds: float
    out_dir: str | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "match": self.match,
            "mismatches": self.mismatches,
            "injected": self.injected,
            "plan": self.plan,
            "shards": self.shards,
            "workers": self.workers,
            "sessions": self.sessions,
            "floods_attempted": self.floods_attempted,
            "floods_shed": self.floods_shed,
            "floods_admitted": self.floods_admitted,
            "requeued_blocks": self.requeued_blocks,
            "seq_gaps": self.seq_gaps,
            "baseline_sha256": self.baseline_sha256,
            "faulted_sha256": self.faulted_sha256,
            "baseline_seconds": self.baseline_seconds,
            "faulted_seconds": self.faulted_seconds,
            "out_dir": self.out_dir,
        }

    def render(self) -> str:
        lines = [
            f"chaos-serve seed {self.seed}: "
            + ("MATCH — faulted fleet is bit-identical" if self.match
               else "MISMATCH — faulted fleet diverged"),
            f"  shards {self.shards} · workers {self.workers} · "
            f"sessions {self.sessions}",
            f"  faults injected: {len(self.injected)}  "
            f"requeued blocks: {self.requeued_blocks}  "
            f"seq gaps: {self.seq_gaps}",
            f"  admission floods: {self.floods_attempted} attempted, "
            f"{self.floods_shed} shed, {self.floods_admitted} admitted",
            f"  baseline {self.baseline_seconds:.2f}s  "
            f"faulted {self.faulted_seconds:.2f}s",
            f"  report sha256 {self.baseline_sha256[:16]} vs "
            f"{self.faulted_sha256[:16]}",
        ]
        for site, kind, at in sorted(
            (f["site"], f["kind"], f["at"]) for f in self.injected
        ):
            lines.append(f"    {site:<18} {kind:<14} arrival {at}")
        for reason in self.mismatches:
            lines.append(f"    MISMATCH: {reason}")
        return "\n".join(lines)


class _ArraySource:
    """Replay pre-planned toggle chunks as a pull-mode stream source."""

    def __init__(self, chunks) -> None:
        self.chunks = list(chunks)

    def __iter__(self):
        from repro.stream.source import ProxyBlock

        start = 0
        last_i = len(self.chunks) - 1
        for i, chunk in enumerate(self.chunks):
            yield ProxyBlock(
                start_cycle=start, toggles=chunk, last=i == last_i
            )
            start += chunk.shape[0]


def _serve_model(seed: int, bits: int = 8):
    """Tiny synthetic quantized model (same shape the serve demo uses)."""
    from repro.opm.quantize import QuantizedModel

    rng = np.random.default_rng(seed)
    limit = (1 << (bits - 1)) - 1
    return QuantizedModel(
        proxies=np.arange(_SERVE_Q, dtype=np.int64),
        int_weights=rng.integers(1, limit, size=_SERVE_Q).astype(np.int64),
        int_intercept=5,
        step=0.01,
        bits=bits,
    )


def _drive_serve(
    seed: int,
    push_plans,
    pull_plans,
    shards: int,
    workers: int,
    admission_cfg,
    injector,
    tracer,
) -> dict:
    """Drive one gateway over the shared plans; return everything the
    comparison needs.  ``injector=None`` is the fault-free baseline;
    with an injector the gateway, pool, and pull sources all pass
    through it and the driver floods admission on schedule.  With
    ``workers > 1`` the pool owns a shared-memory plane, so inference
    dispatches over it (the gateway's only pool placement)."""
    from repro.parallel.pool import WorkerPool
    from repro.serve.gateway import Gateway
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry()
    registry.publish("v1", _serve_model(seed), activate=True)

    floods_attempted = floods_shed = floods_admitted = 0
    pool = WorkerPool(
        workers=workers, tracer=tracer, transport="shm", faults=injector,
    )
    gateway = Gateway(
        registry,
        n_shards=shards,
        t=_SERVE_T,
        pool=pool,
        tracer=tracer,
        admission=admission_cfg,
        faults=injector,
    )

    handles = []
    for p in push_plans:
        handles.append(gateway.open_session(p.core_id))
    for p in pull_plans:
        source = _ArraySource(p.chunks)
        if injector is not None:
            source = injector.wrap_source(source)
        handles.append(gateway.open_session(p.core_id, source=source))

    def flood() -> None:
        nonlocal floods_attempted, floods_shed, floods_admitted
        for spec in injector.fire("serve.admission"):
            if spec.kind != "flood":
                continue
            for _ in range(3):
                floods_attempted += 1
                try:
                    extra = gateway.open_session(f"flood{spec.at}")
                except AdmissionError:
                    floods_shed += 1
                else:
                    # Must not happen under the live-session watermark;
                    # close it so the drain below still terminates and
                    # let the report comparison flag the divergence.
                    floods_admitted += 1
                    gateway.close_session(extra)

    steps = max(len(p.chunks) for p in push_plans)
    for step in range(steps):
        for handle, p in zip(handles, push_plans):
            if step < len(p.chunks):
                gateway.push(
                    handle, p.chunks[step],
                    last=step == len(p.chunks) - 1,
                )
        if injector is not None:
            flood()
        gateway.tick()
    gateway.drain()

    from repro.serve.report import build_report

    fleet = build_report(gateway)
    windows = {h.name: h.pop_windows() for h in handles}
    seq_gaps = requeued = 0
    for h in handles:
        stats = h.session.stats()
        requeued += int(stats.get("requeued_blocks", 0))
        seq_gaps += int(stats.get("seq_gaps", 0))
        if stats.get("take_seq") != stats.get("ingest_seq"):
            seq_gaps += 1
    gateway.close()
    return {
        "report": fleet,
        "windows": windows,
        "handles": [h.name for h in handles],
        "floods_attempted": floods_attempted,
        "floods_shed": floods_shed,
        "floods_admitted": floods_admitted,
        "requeued_blocks": requeued,
        "seq_gaps": seq_gaps,
    }


def _normalized_report(fleet) -> dict:
    """Fleet report dict minus the fields faults legitimately change.

    ``ticks`` (recovery costs extra ticks), ``shard_respawns`` (the
    whole point of a kill), and per-session ``health`` (a healed stall
    may leave a session degraded) — everything else, power totals
    included, must be bit-identical.
    """
    doc = json.loads(json.dumps(fleet.to_dict()))
    doc["totals"].pop("ticks", None)
    doc["totals"].pop("shard_respawns", None)
    for rec in doc.get("ranked", []):
        rec.pop("health", None)
    return doc


def _report_sha256(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


def run_chaos_serve(
    seed: int = 0,
    shards: int = 2,
    workers: int = 2,
    out_dir: str | Path | None = None,
    plan: FaultPlan | None = None,
    n_faults: int = 8,
    max_at: int = 4,
    tracer=None,
) -> ServeChaosReport:
    """Serve-layer chaos gate: a faulted fleet must match a clean one.

    Drives the same seeded load (six push sessions and two pull
    sessions, closed-loop) through two gateways:

    1. a **baseline** — no faults, admission control active;
    2. a **faulted** run under a seeded :class:`FaultPlan` drawn from
       :data:`SERVE_CHAOS_SITES`: shards killed *between* gather and
       apply (stranding in-flight blocks), pool workers SIGKILLed,
       pull sources stalled, shm slabs forced to overflow, and the
       admission layer flooded with best-effort opens mid-load.  An
       explicit ``plan`` that names any other site raises
       :class:`ResilienceError` before any work.

    The gate then asserts, bit for bit:

    * the two fleet reports are identical once the fields faults
      legitimately change (ticks, respawns, health) are stripped —
      power totals, per-session energy, cycles, and windows included;
    * every session's streamed windows equal the baseline's **and** an
      offline :class:`~repro.opm.meter.OpmMeter` over the same planned
      stimulus;
    * no session saw a sequence gap (``take_seq == ingest_seq``,
      ``seq_gaps == 0`` — loss-free failover);
    * every flood open was shed.
    """
    from repro.obs.provenance import RunManifest, config_hash
    from repro.obs.trace import NULL_TRACER as _NULL
    from repro.serve.admission import AdmissionConfig
    from repro.serve.loadgen import LoadGenConfig
    from repro.serve.loadgen import plan as load_plan

    tracer = tracer or _NULL
    plan = plan or FaultPlan.random(
        seed, sites=SERVE_CHAOS_SITES, n_faults=n_faults, max_at=max_at
    )
    _check_sites(plan, SERVE_CHAOS_SITES, "chaos-serve")
    n_push, n_pull = 6, 2
    push_plans = load_plan(
        LoadGenConfig(
            n_sessions=n_push, cycles=192, chunk_cycles=32, seed=seed,
        ),
        _SERVE_Q,
    )
    pull_plans = load_plan(
        LoadGenConfig(
            n_sessions=n_pull, cycles=192, chunk_cycles=32,
            seed=seed + 1000, n_cores=2,
        ),
        _SERVE_Q,
    )
    admission_cfg = AdmissionConfig(
        open_rate=8.0,
        open_burst=16,
        push_rate=64.0,
        push_burst=128,
        max_live_sessions=n_push + n_pull,
    )

    tmp = None
    if out_dir is None:
        import tempfile

        tmp = tempfile.TemporaryDirectory(prefix="apollo-chaos-serve-")
        out_dir = tmp.name
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        t0 = time.perf_counter()
        baseline = _drive_serve(
            seed, push_plans, pull_plans, shards, workers, admission_cfg, injector=None, tracer=tracer,
        )
        baseline_s = time.perf_counter() - t0

        injector = FaultInjector(plan)
        t0 = time.perf_counter()
        faulted = _drive_serve(
            seed, push_plans, pull_plans, shards, workers, admission_cfg, injector=injector, tracer=tracer,
        )
        faulted_s = time.perf_counter() - t0

        mismatches: list[str] = []
        base_doc = _normalized_report(baseline["report"])
        fault_doc = _normalized_report(faulted["report"])
        if base_doc != fault_doc:
            mismatches.append("fleet report diverged from baseline")
        if baseline["handles"] != faulted["handles"]:
            mismatches.append("session names diverged (shed opens leaked "
                              "into the open sequence)")
        # Per-session windows: faulted == baseline == offline meter.
        from repro.opm.meter import OpmMeter

        meter = OpmMeter(_serve_model(seed), t=_SERVE_T)
        all_plans = list(push_plans) + list(pull_plans)
        for name, p in zip(faulted["handles"], all_plans):
            offline = meter.read(p.stimulus)
            got = faulted["windows"].get(name)
            base = baseline["windows"].get(name)
            if got is None or not np.array_equal(got, base):
                mismatches.append(
                    f"{name}: faulted windows diverge from baseline"
                )
            elif not np.array_equal(got, offline):
                mismatches.append(
                    f"{name}: faulted windows diverge from offline meter"
                )
        if faulted["seq_gaps"]:
            mismatches.append(
                f"{faulted['seq_gaps']} session sequence gaps (failover "
                "lost or double-counted blocks)"
            )
        if faulted["floods_admitted"]:
            mismatches.append(
                f"{faulted['floods_admitted']} flood opens admitted past "
                "the live-session watermark"
            )
        if any(s.kind == "flood" for s in plan.faults) and (
            faulted["floods_attempted"] == 0
        ):
            mismatches.append("flood faults planned but never attempted")

        report = ServeChaosReport(
            seed=seed,
            match=not mismatches,
            mismatches=mismatches,
            injected=[
                {"site": site, "kind": kind, "at": at}
                for site, kind, at in injector.fired
            ],
            plan=plan.to_dict(),
            shards=shards,
            workers=workers,
            sessions=len(faulted["handles"]),
            floods_attempted=faulted["floods_attempted"],
            floods_shed=faulted["floods_shed"],
            floods_admitted=faulted["floods_admitted"],
            requeued_blocks=faulted["requeued_blocks"],
            seq_gaps=faulted["seq_gaps"],
            baseline_sha256=_report_sha256(base_doc),
            faulted_sha256=_report_sha256(fault_doc),
            baseline_seconds=round(baseline_s, 4),
            faulted_seconds=round(faulted_s, 4),
            out_dir=None if tmp is not None else str(out),
        )

        manifest = RunManifest(
            run="chaos-serve",
            design="synthetic",
            scale="serve",
            seed=seed,
            config={
                "shards": shards,
                "workers": workers,
                "n_faults": len(plan.faults),
            },
            extra={
                "match": report.match,
                "requeued_blocks": report.requeued_blocks,
                "config_hash": config_hash(plan.to_dict()),
            },
        )
        manifest.record_fault_plan(injector)
        manifest.save(out / "chaos-serve.manifest.json")
        (out / "chaos-serve.report.json").write_text(
            json.dumps(report.to_dict(), indent=2) + "\n"
        )
        return report
    finally:
        if tmp is not None:
            tmp.cleanup()
