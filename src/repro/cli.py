"""Command-line interface: regenerate the paper's tables and figures.

Examples::

    apollo-repro list
    apollo-repro info
    apollo-repro run fig10 --scale small
    apollo-repro run-all --scale default --out results/
    apollo-repro stream --scale tiny --sessions 4 --cycles 100000
    apollo-repro chaos --seed 7 --workers 2
    apollo-repro trace results/trace-demo/trace.json
    apollo-repro manifest results/trace-demo/manifest.json
    apollo-repro serve --demo --out results/serve-demo
    apollo-repro serve --metrics-port 9464 --postmortem-dir results/pm
    apollo-repro loadgen --sessions 8 --shards 2 --seed 3
    apollo-repro fleet-report results/serve-demo/fleet-report.json
    apollo-repro obs top --url http://127.0.0.1:9464/metrics

The ``stream`` subcommand runs the bounded-memory streaming
introspection pipeline (``repro.stream``) end-to-end: it loads a saved
:class:`~repro.opm.quantize.QuantizedModel` (``--model``) or
quick-trains one, streams one workload per session through batched OPM
inference, and prints the final metrics snapshot as JSON.

``trace`` renders a span tree from a :mod:`repro.obs` export (JSONL or
Chrome trace-event JSON, auto-detected); ``manifest`` renders a
provenance sidecar's identity block and stage-time table — both work
from the exported files alone, no pipeline state needed.

The serving layer (:mod:`repro.serve`) gets three subcommands:
``serve`` runs the fleet gateway (``--demo`` for the self-checking
in-process demo, otherwise a TCP server on the framed protocol; with
``--metrics-port`` it also exposes OpenMetrics text on a side port, and
with ``--postmortem-dir`` a flight recorder dumps post-mortem JSON on
shard demotion or SIGTERM), ``loadgen`` drives a seeded load through an
in-process gateway and prints throughput/latency JSON, and
``fleet-report`` renders a saved fleet report as markdown.

``obs top`` polls a running gateway's ``/metrics`` endpoint and renders
the exact latency histograms (count / mean / p50..p999) and busiest
counters as a terminal table — a dependency-free ``top`` for the fleet.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.config import SCALES
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.rtl.simulator import ENGINES

__all__ = ["main"]


def _cmd_list(_args) -> int:
    print("available experiments:")
    for exp_id, (_fn, design) in sorted(EXPERIMENTS.items()):
        print(f"  {exp_id:<10} (default design: {design})")
    return 0


def _cmd_info(args) -> int:
    from repro.design import build_core
    from repro.uarch import A77_LIKE, N1_LIKE

    for params in (N1_LIKE, A77_LIKE):
        core = build_core(params)
        s = core.netlist.summary()
        print(
            f"{params.name}: {s['nets']} nets, {s['regs']} FFs, "
            f"{s['comb']} gates, {s['clk']} clock domains, "
            f"area {core.netlist.total_area():.0f} GE"
        )
    print(f"scales: {', '.join(SCALES)}")
    return 0


def _eval_cache(args):
    """Shared on-disk EvalCache when ``--cache-dir`` was given."""
    if not getattr(args, "cache_dir", None):
        return None
    from repro.parallel import EvalCache

    return EvalCache(disk_dir=Path(args.cache_dir))


def _run_one(exp_id: str, ctx_cache: dict, args, cache=None) -> str:
    _fn, design = EXPERIMENTS[exp_id]
    design = args.design or design
    key = (design, args.scale)
    if key not in ctx_cache:
        ctx_cache[key] = ExperimentContext(
            design=design,
            scale=args.scale,
            workers=getattr(args, "workers", 1),
            eval_cache=cache,
        )
    # perf_counter, not time.time: wall-clock can step backwards under
    # NTP adjustment and would report a negative duration.
    t0 = time.perf_counter()
    result = run_experiment(exp_id, ctx=ctx_cache[key])
    rendered = result.render() + f"\n\n[{time.perf_counter() - t0:.1f}s]"
    return rendered


def _cmd_run(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; try 'apollo-repro "
            "list'",
            file=sys.stderr,
        )
        return 2
    ctx_cache: dict = {}
    text = _run_one(args.experiment, ctx_cache, args, cache=_eval_cache(args))
    print(text)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"written to {path}")
    return 0


def _cmd_run_all(args) -> int:
    out_dir = Path(args.out or "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx_cache: dict = {}
    cache = _eval_cache(args)
    failures = []
    for exp_id in sorted(EXPERIMENTS):
        print(f"=== {exp_id} ===", flush=True)
        try:
            text = _run_one(exp_id, ctx_cache, args, cache=cache)
        except Exception as exc:  # keep going; report at the end
            failures.append((exp_id, str(exc)))
            print(f"FAILED: {exc}", file=sys.stderr)
            continue
        (out_dir / f"{exp_id}.txt").write_text(text + "\n")
        summary_line = text.splitlines()[-3:]
        print("\n".join(line for line in summary_line if line))
    print(f"\nresults written to {out_dir}/")
    if failures:
        print("failures:", failures, file=sys.stderr)
        return 1
    return 0


def _cmd_stream(args) -> int:
    from repro.errors import ServeError
    from repro.experiments import ExperimentContext
    from repro.flow.dvfs import DvfsGovernor
    from repro.genbench.workloads import workload_suite
    from repro.opm import QuantizedModel, quantize_model
    from repro.stream import StreamConfig, service_for_programs

    ctx = ExperimentContext(
        design=args.design or "n1",
        scale=args.scale,
        workers=args.workers,
        eval_cache=_eval_cache(args),
    )
    if args.model_version and not args.registry:
        print(
            "--model-version needs --registry (a model registry "
            "directory to resolve the version in)",
            file=sys.stderr,
        )
        return 2
    if args.registry:
        from repro.serve import ModelRegistry

        try:
            reg = ModelRegistry.open(args.registry)
            qmodel = reg.get(reg.resolve(args.model_version))
        except ServeError as exc:
            print(f"cannot pin model version: {exc}", file=sys.stderr)
            return 2
    elif args.model:
        qmodel = QuantizedModel.load(args.model)
    else:
        q = args.q or ctx.default_q()
        print(
            f"# quick-training APOLLO (design={ctx.design}, "
            f"scale={ctx.scale.name}, Q={q})",
            file=sys.stderr,
        )
        qmodel = quantize_model(ctx.apollo(q), bits=args.bits)
    if args.save_model:
        qmodel.save(args.save_model)
        print(f"# model saved to {args.save_model}", file=sys.stderr)

    # hmmer_like first: the Fig. 16 long benchmark is the headline
    # streaming workload, then the rest of the suite round-robins.
    programs = list(workload_suite().values())
    programs = [
        programs[i % len(programs)] for i in range(args.sessions)
    ]
    governor = DvfsGovernor() if args.budget_mw is not None else None
    service = service_for_programs(
        ctx.core,
        qmodel,
        programs,
        cycles=args.cycles,
        t=args.t,
        chunk_cycles=args.chunk_cycles,
        engine=args.engine,
        config=StreamConfig(
            queue_depth=args.queue_depth,
            pump_blocks=args.pump_blocks,
            drain_blocks=args.drain_blocks,
        ),
        droop_enter_ma=args.droop_enter_ma,
        budget_mw=args.budget_mw,
        governor=governor,
    )
    snapshot = service.run()
    text = json.dumps(snapshot, indent=2)
    print(text)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"# snapshot written to {path}", file=sys.stderr)
    return 0


def _serve_registry(args):
    """Open (or quick-build) the model registry a serve command uses."""
    from repro.opm import quantize_model
    from repro.serve import ModelRegistry

    if args.registry:
        return ModelRegistry.open(args.registry)
    from repro.experiments import ExperimentContext

    ctx = ExperimentContext(
        design=args.design or "n1", scale=args.scale or "tiny"
    )
    q = args.q or ctx.default_q()
    print(
        f"# no --registry: quick-training one model version "
        f"(design={ctx.design}, scale={ctx.scale.name}, Q={q})",
        file=sys.stderr,
    )
    registry = ModelRegistry()
    registry.publish(
        "v1", quantize_model(ctx.apollo(q), bits=args.bits), activate=True
    )
    return registry


def _serve_pool(args):
    if getattr(args, "workers", 1) <= 1:
        return None
    from repro.parallel import WorkerPool

    # The gateway dispatches to a pool only over its shared-memory plane.
    return WorkerPool(workers=args.workers, transport="shm")


def _cmd_serve(args) -> int:
    from repro.errors import ServeError

    if args.demo:
        from repro.serve.demo import main as demo_main

        demo_argv = ["--out", args.out or "results/serve-demo",
                     "--seed", str(args.seed)]
        return demo_main(demo_argv)

    import asyncio
    import signal

    from repro.serve import Gateway, GatewayServer

    try:
        registry = _serve_registry(args)
    except ServeError as exc:
        print(f"cannot open registry: {exc}", file=sys.stderr)
        return 2

    recorder = None
    tracer = None
    pm_dir = None
    if args.postmortem_dir:
        from repro.obs import FlightRecorder
        from repro.obs.trace import Tracer

        pm_dir = Path(args.postmortem_dir)
        recorder = FlightRecorder()
        tracer = Tracer()
    gateway = Gateway(
        registry, n_shards=args.shards, t=args.t,
        pool=_serve_pool(args), tracer=tracer,
        flight_recorder=recorder, postmortem_dir=pm_dir,
    )

    async def _run() -> None:
        server = GatewayServer(
            gateway, host=args.host, port=args.port,
            metrics_port=args.metrics_port,
        )
        await server.start()
        print(
            f"# serving on {args.host}:{server.port} "
            f"({args.shards} shards, active model "
            f"{registry.active_version})",
            file=sys.stderr,
        )
        if server.metrics_port is not None:
            print(
                f"# metrics on http://{args.host}:{server.metrics_port}"
                "/metrics",
                file=sys.stderr,
            )
        stop = asyncio.Event()

        def _on_sigterm() -> None:
            # Dump the black box *before* the event loop unwinds — a
            # terminated fleet should leave evidence, not silence.
            if recorder is not None and pm_dir is not None:
                path = recorder.dump(
                    pm_dir / "postmortem-sigterm.json", reason="SIGTERM"
                )
                if path is not None:
                    print(f"# post-mortem: {path}", file=sys.stderr)
            stop.set()

        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loop: serve without the handler
        try:
            if args.max_seconds is not None:
                await asyncio.wait_for(stop.wait(), args.max_seconds)
            else:
                await stop.wait()
        except asyncio.TimeoutError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    print(json.dumps(gateway.snapshot(), indent=2))
    return 0


def _render_obs_top(samples: dict, pattern: str = "") -> str:
    """One terminal frame: histogram table + busiest counters."""
    hists: dict[str, dict] = {}
    counters: dict[str, float] = {}
    for key, value in samples.items():
        if "{quantile=" in key:
            base, _, rest = key.partition('{quantile="')
            hists.setdefault(base, {})[rest.rstrip('"}')] = value
        elif key.endswith("_count") and "{" not in key:
            hists.setdefault(key[: -len("_count")], {})["count"] = value
        elif key.endswith("_sum") and "{" not in key:
            hists.setdefault(key[: -len("_sum")], {})["sum"] = value
        elif key.endswith("_total") and "{" not in key:
            counters[key[: -len("_total")]] = value
    lines = []
    shown = sorted(
        n for n, h in hists.items()
        if pattern in n and h.get("count", 0) > 0 and "p99" in h
    )
    if shown:
        lines.append(
            f"{'histogram':<40} {'count':>8} {'mean':>10} {'p50':>10} "
            f"{'p90':>10} {'p99':>10} {'p999':>10}"
        )
        for name in shown:
            h = hists[name]
            count = h.get("count", 0)
            mean = h.get("sum", 0.0) / count if count else 0.0
            lines.append(
                f"{name:<40} {int(count):>8} {mean:>10.3g} "
                f"{h.get('p50', 0.0):>10.3g} {h.get('p90', 0.0):>10.3g} "
                f"{h.get('p99', 0.0):>10.3g} {h.get('p999', 0.0):>10.3g}"
            )
        lines.append("")
    busiest = sorted(
        ((v, n) for n, v in counters.items() if pattern in n),
        reverse=True,
    )[:12]
    if busiest:
        lines.append(f"{'counter':<52} {'total':>12}")
        for value, name in busiest:
            lines.append(f"{name:<52} {value:>12g}")
    return "\n".join(lines) if lines else "(no matching samples)"


def _cmd_obs_top(args) -> int:
    import urllib.error
    import urllib.request

    from repro.obs import parse_openmetrics

    n = 0
    while True:
        try:
            with urllib.request.urlopen(args.url, timeout=5) as resp:
                text = resp.read().decode()
        except (urllib.error.URLError, OSError, TimeoutError) as exc:
            print(f"cannot scrape {args.url}: {exc}", file=sys.stderr)
            return 1
        frame = _render_obs_top(parse_openmetrics(text), args.filter)
        if sys.stdout.isatty() and args.iterations != 1:
            print("\x1b[2J\x1b[H", end="")
        print(f"# {args.url}  (refresh {args.interval}s)")
        print(frame)
        n += 1
        if args.iterations and n >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_loadgen(args) -> int:
    from repro.errors import ServeError
    from repro.serve import Gateway, LoadGenConfig, build_report, run_load

    try:
        registry = _serve_registry(args)
        gateway = Gateway(
            registry, n_shards=args.shards, t=args.t,
            pool=_serve_pool(args),
        )
        report = run_load(
            gateway,
            LoadGenConfig(
                n_sessions=args.sessions,
                cycles=args.cycles,
                chunk_cycles=args.chunk_cycles,
                seed=args.seed,
                mode=args.mode,
                density=args.density,
            ),
        )
    except ServeError as exc:
        print(f"loadgen failed: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report.to_dict(), indent=2)
    print(text)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"# load report written to {path}", file=sys.stderr)
    if args.fleet_out:
        path = Path(args.fleet_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(build_report(gateway).to_dict(), indent=2) + "\n"
        )
        print(f"# fleet report written to {path}", file=sys.stderr)
    return 0


def _cmd_fleet_report(args) -> int:
    from repro.errors import ServeError
    from repro.serve import FleetReport

    try:
        data = json.loads(Path(args.report).read_text())
        fleet = FleetReport.from_dict(data)
    except (OSError, ValueError, ServeError) as exc:
        print(f"cannot load fleet report: {exc}", file=sys.stderr)
        return 2
    print(fleet.render_markdown(k=args.top))
    return 0


def _cmd_chaos(args) -> int:
    from repro.resilience import FaultPlan, run_chaos

    plan = None
    if args.plan:
        plan = FaultPlan.from_dict(json.loads(Path(args.plan).read_text()))
    report = run_chaos(
        seed=args.seed,
        design=args.design or "m0",
        scale=args.scale or "tiny",
        engine=args.engine,
        workers=args.workers,
        out_dir=args.out,
        plan=plan,
        n_faults=args.faults,
    )
    print(report.render())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.match else 1


def _cmd_chaos_serve(args) -> int:
    from repro.resilience import FaultPlan, run_chaos_serve

    plan = None
    if args.plan:
        plan = FaultPlan.from_dict(json.loads(Path(args.plan).read_text()))
    report = run_chaos_serve(
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        out_dir=args.out,
        plan=plan,
        n_faults=args.faults,
    )
    print(report.render())
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.match else 1


def _cmd_trace(args) -> int:
    from repro.errors import ObsError
    from repro.obs.trace import load_trace, render_tree

    try:
        roots = load_trace(args.trace)
    except (ObsError, ValueError, KeyError) as exc:
        print(f"cannot load trace: {exc}", file=sys.stderr)
        return 2
    if not roots:
        print("trace contains no spans", file=sys.stderr)
        return 1
    print(render_tree(roots, max_attrs=args.attrs))
    return 0


def _cmd_manifest(args) -> int:
    from repro.errors import ObsError
    from repro.obs.provenance import RunManifest

    try:
        manifest = RunManifest.load(args.manifest)
    except (ObsError, ValueError) as exc:
        print(f"cannot load manifest: {exc}", file=sys.stderr)
        return 2
    print(manifest.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="apollo-repro",
        description="APOLLO (MICRO 2021) reproduction experiment driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")
    sub.add_parser("info", help="print design/scale information")

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment")
    p_run.add_argument("--design", choices=["n1", "a77"], default=None)
    p_run.add_argument("--scale", choices=list(SCALES), default=None)
    p_run.add_argument("--out", default=None, help="write rendering here")
    p_run.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (1 = serial; results are "
        "bit-identical for any value)",
    )
    p_run.add_argument(
        "--cache-dir", default=None,
        help="on-disk evaluation cache directory (content-addressed; "
        "safe to share between runs)",
    )

    p_all = sub.add_parser("run-all", help="run every experiment")
    p_all.add_argument("--design", choices=["n1", "a77"], default=None)
    p_all.add_argument("--scale", choices=list(SCALES), default=None)
    p_all.add_argument(
        "--out", default="results",
        help="output directory (default: results)",
    )
    p_all.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (1 = serial; results are "
        "bit-identical for any value)",
    )
    p_all.add_argument(
        "--cache-dir", default=None,
        help="on-disk evaluation cache directory (content-addressed; "
        "safe to share between runs)",
    )

    p_stream = sub.add_parser(
        "stream",
        help="run the streaming introspection pipeline end-to-end",
    )
    p_stream.add_argument(
        "--design", choices=["n1", "a77"], default=None
    )
    p_stream.add_argument("--scale", choices=list(SCALES), default=None)
    p_stream.add_argument(
        "--model", default=None,
        help="saved QuantizedModel (.npz); omit to quick-train",
    )
    p_stream.add_argument(
        "--registry", default=None,
        help="model registry directory (repro.serve); overrides --model",
    )
    p_stream.add_argument(
        "--model-version", default=None,
        help="pin a registry model version (default: the active one); "
        "requires --registry",
    )
    p_stream.add_argument(
        "--workers", type=int, default=1,
        help="simulation worker processes (1 = serial; results are "
        "bit-identical for any value)",
    )
    p_stream.add_argument(
        "--cache-dir", default=None,
        help="on-disk evaluation cache directory (content-addressed; "
        "safe to share between runs)",
    )
    p_stream.add_argument(
        "--save-model", default=None,
        help="persist the (quick-trained) quantized model here",
    )
    p_stream.add_argument(
        "--q", type=int, default=0,
        help="proxy count for quick-training (0 = context default)",
    )
    p_stream.add_argument("--bits", type=int, default=10)
    p_stream.add_argument(
        "--sessions", type=int, default=4,
        help="number of concurrent per-core streams",
    )
    p_stream.add_argument(
        "--cycles", type=int, default=100_000,
        help="stream duration per session (cycles)",
    )
    p_stream.add_argument("--chunk-cycles", type=int, default=256)
    p_stream.add_argument(
        "--t", type=int, default=8,
        help="OPM averaging window (power of two)",
    )
    p_stream.add_argument(
        "--engine", choices=list(ENGINES), default="packed"
    )
    p_stream.add_argument("--queue-depth", type=int, default=8)
    p_stream.add_argument("--pump-blocks", type=int, default=1)
    p_stream.add_argument("--drain-blocks", type=int, default=1)
    p_stream.add_argument(
        "--droop-enter-ma", type=float, default=2.0,
        help="delta-I droop-precursor alert threshold (mA)",
    )
    p_stream.add_argument(
        "--budget-mw", type=float, default=None,
        help="power budget for violation events + DVFS governing (mW)",
    )
    p_stream.add_argument(
        "--out", default=None, help="also write the JSON snapshot here"
    )

    def _add_serve_common(p) -> None:
        p.add_argument(
            "--registry", default=None,
            help="model registry directory; omit to quick-train one "
            "version in memory",
        )
        p.add_argument("--design", choices=["n1", "a77"], default=None)
        p.add_argument("--scale", choices=list(SCALES), default=None)
        p.add_argument(
            "--q", type=int, default=0,
            help="proxy count for quick-training (0 = context default)",
        )
        p.add_argument("--bits", type=int, default=10)
        p.add_argument(
            "--shards", type=int, default=2,
            help="gateway shard count",
        )
        p.add_argument(
            "--t", type=int, default=8,
            help="OPM averaging window (power of two)",
        )
        p.add_argument(
            "--workers", type=int, default=1,
            help="inference worker processes (1 = inline; more run the "
            "GEMV on a pool over shared memory; results are "
            "bit-identical for any value)",
        )

    p_serve = sub.add_parser(
        "serve",
        help="run the fleet telemetry gateway (TCP framed protocol, "
        "or --demo for the self-checking in-process demo)",
    )
    _add_serve_common(p_serve)
    p_serve.add_argument(
        "--demo", action="store_true",
        help="run the self-checking loadgen -> gateway -> fleet-report "
        "demo instead of a TCP server",
    )
    p_serve.add_argument("--seed", type=int, default=7)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = pick a free one, printed on start)",
    )
    p_serve.add_argument(
        "--max-seconds", type=float, default=None,
        help="stop serving after this long (default: run until Ctrl-C)",
    )
    p_serve.add_argument(
        "--out", default=None,
        help="output directory for --demo reports",
    )
    p_serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="expose OpenMetrics text on this side port "
        "(0 = pick a free one, printed on start; default: disabled)",
    )
    p_serve.add_argument(
        "--postmortem-dir", default=None,
        help="attach a flight recorder; dump post-mortem JSON here on "
        "shard demotion or SIGTERM",
    )

    p_load = sub.add_parser(
        "loadgen",
        help="drive a seeded load through an in-process gateway and "
        "print throughput/latency JSON",
    )
    _add_serve_common(p_load)
    p_load.add_argument("--sessions", type=int, default=8)
    p_load.add_argument(
        "--cycles", type=int, default=512,
        help="cycles pushed per session",
    )
    p_load.add_argument("--chunk-cycles", type=int, default=64)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = push/tick lockstep, open = burst then drain",
    )
    p_load.add_argument(
        "--density", type=float, default=0.3,
        help="P(toggle bit set) in the generated stimulus",
    )
    p_load.add_argument(
        "--out", default=None, help="also write the load JSON here"
    )
    p_load.add_argument(
        "--fleet-out", default=None,
        help="also write the fleet report JSON here "
        "(renderable by fleet-report)",
    )

    p_fleet = sub.add_parser(
        "fleet-report",
        help="render a saved fleet report (JSON) as markdown",
    )
    p_fleet.add_argument(
        "report", help="fleet report JSON (serve --demo / loadgen "
        "--fleet-out output)",
    )
    p_fleet.add_argument(
        "--top", type=int, default=10,
        help="rows in the ranked sessions table",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="run the training pipeline under a seeded fault plan and "
        "verify the final model is bit-identical to a fault-free run",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0,
        help="seeds the pipeline and the random fault plan",
    )
    p_chaos.add_argument(
        "--design", choices=["m0", "n1", "a77"], default=None
    )
    p_chaos.add_argument("--scale", choices=list(SCALES), default=None)
    p_chaos.add_argument(
        "--engine", choices=list(ENGINES), default="packed"
    )
    p_chaos.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the faulted run (baseline is serial)",
    )
    p_chaos.add_argument(
        "--faults", type=int, default=6,
        help="faults drawn into a random plan",
    )
    p_chaos.add_argument(
        "--plan", default=None,
        help="explicit fault-plan JSON file (overrides --seed's plan)",
    )
    p_chaos.add_argument(
        "--out", default=None,
        help="directory for checkpoints/cache/report (default: temp)",
    )
    p_chaos.add_argument(
        "--json", action="store_true",
        help="also print the full JSON report",
    )

    p_cserve = sub.add_parser(
        "chaos-serve",
        help="drive a seeded fleet load under a fault plan (shard kills, "
        "worker kills, source stalls, slab overflows, admission floods) "
        "and verify the fleet report is bit-identical to a fault-free run",
    )
    p_cserve.add_argument(
        "--seed", type=int, default=0,
        help="seeds the load plan and the random fault plan",
    )
    p_cserve.add_argument("--shards", type=int, default=2)
    p_cserve.add_argument(
        "--workers", type=int, default=2,
        help="worker pool size (both runs use the same pool shape; "
        "more than 1 dispatches over shared memory)",
    )
    p_cserve.add_argument(
        "--faults", type=int, default=8,
        help="faults drawn into a random plan",
    )
    p_cserve.add_argument(
        "--plan", default=None,
        help="explicit fault-plan JSON file (overrides --seed's plan)",
    )
    p_cserve.add_argument(
        "--out", default=None,
        help="directory for the report + manifest (default: temp)",
    )
    p_cserve.add_argument(
        "--json", action="store_true",
        help="also print the full JSON report",
    )

    p_trace = sub.add_parser(
        "trace", help="render a span tree from an exported trace file"
    )
    p_trace.add_argument(
        "trace", help="trace export (.jsonl or Chrome-trace .json)"
    )
    p_trace.add_argument(
        "--attrs", type=int, default=4,
        help="max attributes shown per span",
    )

    p_manifest = sub.add_parser(
        "manifest", help="render a run-provenance manifest sidecar"
    )
    p_manifest.add_argument("manifest", help="manifest .json sidecar")

    p_obs = sub.add_parser(
        "obs", help="observability utilities for a running gateway"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_top = obs_sub.add_parser(
        "top",
        help="poll a gateway's /metrics endpoint and render latency "
        "histograms + busiest counters",
    )
    p_top.add_argument(
        "--url", default="http://127.0.0.1:9464/metrics",
        help="OpenMetrics endpoint (serve --metrics-port)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between scrapes",
    )
    p_top.add_argument(
        "--iterations", type=int, default=0,
        help="stop after this many frames (0 = until Ctrl-C)",
    )
    p_top.add_argument(
        "--filter", default="",
        help="only show samples whose name contains this substring",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "info":
        return _cmd_info(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "fleet-report":
        return _cmd_fleet_report(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "chaos-serve":
        return _cmd_chaos_serve(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "manifest":
        return _cmd_manifest(args)
    if args.command == "obs":
        return _cmd_obs_top(args)
    parser.error("unreachable")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
