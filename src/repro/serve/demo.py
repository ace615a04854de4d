"""Self-checking fleet serving demo (the ``make serve-demo`` target).

Runs the whole serving story at tiny scale, in-process, in seconds:

1. publish two model generations (``v1`` active, ``v2`` staged) into a
   :class:`~repro.serve.registry.ModelRegistry`;
2. drive a 2-shard :class:`~repro.serve.gateway.Gateway` with a seeded
   closed-loop load (:mod:`repro.serve.loadgen`) — every chunk crosses
   the framed protocol via the in-process client;
3. **hot swap** to ``v2`` and **kill shard 0** mid-run, then drive a
   second load wave — new sessions pin ``v2``, the dead shard respawns
   with zero session loss;
4. build the :class:`~repro.serve.report.FleetReport` and self-check,
   bit-exactly:

   * every session's streamed T-window readings equal an offline
     :class:`~repro.opm.meter.OpmMeter` run over the same (re-planned,
     seeded) stimulus — ``np.array_equal``, no tolerance;
   * every session's integer energy accounting equals the offline
     per-cycle integer sum;
   * the report's fleet energy total equals the sum of the per-session
     offline totals (same expression, same order — float-equal).

The run is fully observed: a real :class:`~repro.obs.trace.Tracer`
(the Chrome export lands next to the reports), a two-process
:class:`~repro.parallel.pool.WorkerPool` running the batched GEMV over
its shared-memory plane, and a
:class:`~repro.obs.flightrec.FlightRecorder` whose post-mortem fires at
the injected shard death.  Two extra self-checks ride on that:

   * the post-mortem JSON exists, loads, and the power readings it
     recorded for the first wave equal the offline meter bit for bit —
     dead-shard evidence is trustworthy evidence;
   * the exported trace contains at least one tick whose span tree
     links ``client.tick -> serve.tick -> serve.shard.gather ->
     serve.gemv.task`` under a single trace id — one client tick, one
     connected cross-process trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro.obs.flightrec import FlightRecorder, load_postmortem
from repro.obs.trace import Tracer, load_trace
from repro.opm.meter import OpmMeter
from repro.opm.quantize import QuantizedModel
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import HAVE_SHM, leaked_segments
from repro.serve.gateway import Gateway
from repro.serve.loadgen import LoadGenConfig, plan, run_load
from repro.serve.registry import ModelRegistry
from repro.serve.report import build_report

__all__ = ["run_demo", "main"]

_Q = 6
_T = 8


def _make_model(seed: int, bits: int = 8) -> QuantizedModel:
    """A tiny synthetic quantized model (no RTL needed to serve)."""
    rng = np.random.default_rng(seed)
    limit = (1 << (bits - 1)) - 1
    return QuantizedModel(
        proxies=np.arange(_Q, dtype=np.int64),
        int_weights=rng.integers(1, limit, size=_Q).astype(np.int64),
        int_intercept=5,
        step=0.01,
        bits=bits,
    )


def run_demo(out_dir: str | Path, seed: int = 7) -> dict:
    """Run the serving demo; returns the report dict after self-checks."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    registry = ModelRegistry()
    registry.publish("v1", _make_model(seed), activate=True)
    registry.publish("v2", _make_model(seed + 1))

    tracer = Tracer()
    recorder = FlightRecorder(capacity=512)
    pool = WorkerPool(workers=2, tracer=tracer, transport="shm")
    try:
        gateway = Gateway(
            registry,
            n_shards=2,
            t=_T,
            pool=pool,
            tracer=tracer,
            flight_recorder=recorder,
            postmortem_dir=out,
        )

        wave1 = LoadGenConfig(
            n_sessions=4, cycles=192, chunk_cycles=32, seed=seed,
        )
        report1 = run_load(gateway, wave1)

        # Mid-run fleet events: stage the new model, lose a shard.
        # The kill demotes shard 0's health, which triggers the flight
        # recorder's post-mortem dump into ``out``.
        gateway.swap_model("v2")
        gateway.kill_shard(0, reason="demo-injected death")

        wave2 = LoadGenConfig(
            n_sessions=4, cycles=192, chunk_cycles=32, seed=seed + 100,
        )
        report2 = run_load(gateway, wave2)
    finally:
        pool.close()
    if leaked_segments():
        raise AssertionError(
            f"leaked shared-memory segments after pool close: "
            f"{leaked_segments()}"
        )

    trace_path = tracer.to_chrome(out / "trace.json")

    fleet = build_report(gateway)
    _self_check(gateway, registry, [(wave1, report1), (wave2, report2)])
    _check_postmortem(out / "postmortem-shard-0-failed.json",
                      registry, wave1)
    _check_trace_chain(trace_path)

    report_json = out / "fleet-report.json"
    report_md = out / "fleet-report.md"
    report_json.write_text(json.dumps(fleet.to_dict(), indent=2) + "\n")
    report_md.write_text(fleet.render_markdown() + "\n")
    print(fleet.render_markdown())
    print(f"\n# report: {report_json}", file=sys.stderr)
    print(f"# report: {report_md}", file=sys.stderr)
    print(f"# trace:  {trace_path}", file=sys.stderr)
    return fleet.to_dict()


def _self_check(gateway, registry, waves) -> None:
    """Exact (bit-level) agreement between served and offline readings."""
    handles = list(gateway.handles.values())
    expected_versions = ["v1"] * 4 + ["v2"] * 4
    got_versions = [h.version for h in handles]
    if got_versions != expected_versions:
        raise AssertionError(
            f"hot swap pinning broke: {got_versions} != "
            f"{expected_versions}"
        )
    if not any(s.respawns >= 1 for s in gateway.shards):
        raise AssertionError("killed shard never respawned")

    cursor = 0
    offline_total = 0.0
    for cfg, load in waves:
        q = registry.get("v1").q
        plans = plan(cfg, q)
        for p in plans:
            handle = handles[cursor]
            cursor += 1
            meter = registry.meter(handle.version, _T)
            stim = p.stimulus
            # 1) streamed windows == offline meter, bit for bit
            offline_windows = meter.read(stim)
            streamed = load.readings[handle.name]
            if not np.array_equal(streamed, offline_windows):
                raise AssertionError(
                    f"{handle.name}: streamed windows diverge from "
                    f"offline OpmMeter"
                )
            # 2) integer energy accounting is exact
            per_cycle = meter.per_cycle(stim)
            offline_int = int(per_cycle.sum())
            if handle.attributed_sum_int != offline_int:
                raise AssertionError(
                    f"{handle.name}: attributed integer sum "
                    f"{handle.attributed_sum_int} != offline "
                    f"{offline_int}"
                )
            if handle.session.cycles_processed != stim.shape[0]:
                raise AssertionError(
                    f"{handle.name}: cycle loss "
                    f"({handle.session.cycles_processed} of "
                    f"{stim.shape[0]})"
                )
            offline_total += offline_int * meter.qmodel.step
    # 3) report totals equal the per-session offline sum exactly
    from repro.serve.report import build_report as _rebuild

    fleet = _rebuild(gateway)
    if fleet.total_energy_mwc != offline_total:
        raise AssertionError(
            f"fleet energy {fleet.total_energy_mwc!r} != offline "
            f"{offline_total!r}"
        )
    print(
        f"# self-check passed: {len(handles)} sessions bit-identical "
        f"to offline, fleet energy {fleet.total_energy_mwc:.4f} "
        f"mW-cycles exact",
        file=sys.stderr,
    )


def _check_postmortem(path: Path, registry, wave1: LoadGenConfig) -> None:
    """The injected shard death must leave trustworthy evidence.

    The dump fired at :meth:`Gateway.kill_shard`, so its rings hold the
    first wave only; every power reading recorded in the shard lanes
    must equal the offline meter bit for bit.
    """
    if not path.exists():
        raise AssertionError(f"no post-mortem at {path}")
    doc = load_postmortem(path)
    if "shard-0" not in doc["reason"]:
        raise AssertionError(
            f"post-mortem reason does not name the dead shard: "
            f"{doc['reason']!r}"
        )
    recorded: dict[str, list] = {}
    for lane, events in doc["lanes"].items():
        for ev in events:
            if ev.get("kind") == "windows":
                recorded.setdefault(ev["session"], []).extend(
                    ev["windows"]
                )
    if not recorded:
        raise AssertionError("post-mortem recorded no power readings")
    q = registry.get("v1").q
    plans = plan(wave1, q)
    meter = registry.meter("v1", _T)
    for i, p in enumerate(plans):
        name = f"{p.core_id}#{i}"
        offline = meter.read(p.stimulus)
        got = np.asarray(recorded.get(name, []), dtype=np.float64)
        if not np.array_equal(got, offline):
            raise AssertionError(
                f"post-mortem readings for {name} diverge from the "
                f"offline meter ({got.size} vs {offline.size} windows)"
            )
    print(
        f"# post-mortem check passed: {path.name} holds bit-exact "
        f"readings for {len(plans)} sessions",
        file=sys.stderr,
    )


def _check_trace_chain(trace_path: Path) -> None:
    """One client tick must render as one connected cross-process tree:
    ``client.tick -> serve.tick -> serve.shard.gather ->
    serve.gemv.task`` all under a single trace id."""
    roots = load_trace(trace_path)
    by_id = {}

    def index(span):
        by_id[span.span_id] = span
        for c in span.children:
            index(c)

    for r in roots:
        index(r)

    chain = ("client.tick", "serve.tick", "serve.shard.gather",
             "serve.gemv.task")
    if not HAVE_SHM:  # no shared-memory plane: the gateway infers inline
        chain = chain[:-1]
    for span in by_id.values():
        if span.name != chain[-1]:
            continue
        walk = span
        names = [walk.name]
        while walk.parent_id is not None and walk.parent_id in by_id:
            walk = by_id[walk.parent_id]
            names.append(walk.name)
        names.reverse()
        if (
            tuple(names[-len(chain):]) == chain
            and len({by_id[s].trace_id for s in _chain_ids(span, by_id)})
            == 1
        ):
            print(
                f"# trace check passed: {' -> '.join(chain)} connected "
                f"under trace {span.trace_id}",
                file=sys.stderr,
            )
            return
    raise AssertionError(
        f"no connected {' -> '.join(chain)} chain in {trace_path}"
    )


def _chain_ids(span, by_id) -> list[int]:
    ids = [span.span_id]
    while span.parent_id is not None and span.parent_id in by_id:
        span = by_id[span.parent_id]
        ids.append(span.span_id)
    return ids


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="self-checking fleet serving demo "
        "(loadgen -> sharded gateway -> fleet report)"
    )
    parser.add_argument(
        "--out", default="results/serve-demo",
        help="output directory for fleet-report.json / fleet-report.md",
    )
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    run_demo(args.out, seed=args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
