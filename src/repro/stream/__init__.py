"""Bounded-memory streaming introspection pipeline (fleet-scale OPM).

The offline flows (:mod:`repro.flow`) materialize a whole trace, then
analyze it.  This package runs the same chain — simulate -> capture
proxy toggles -> OPM inference -> aggregate -> alert — *incrementally*
over fixed-size chunks, with explicit state handoff at every layer, so
a stream of millions of cycles needs memory for one chunk per session:

* :mod:`repro.stream.source` — chunked proxy-block sources
  (:class:`SimulatorSource`, :class:`TraceSource`);
* :mod:`repro.stream.session` — per-core sessions with bounded queues,
  drop-oldest backpressure, and degraded T-cycle fallback, multiplexed
  through batched OPM inference by :class:`StreamService`;
* :mod:`repro.stream.aggregate` — droop-precursor alerts with
  hysteresis, power-budget checks feeding the
  :class:`~repro.flow.dvfs.DvfsGovernor`.

A session emits two readings: the per-cycle OPM integer (scaled to mW;
it feeds droop detection) and the T-cycle window average (it feeds
power budgets).  Callers collect them through
:attr:`SessionHooks.on_ingest`; a degraded session pauses only droop
detection, so every reading still reaches the hook.  The service
writes its totals and per-session gauges into the shared
:class:`~repro.obs.metrics.MetricsRegistry` at
:meth:`StreamService.snapshot` and at the end of
:meth:`StreamService.run`.

The streamed per-cycle and T-window readings are bit-identical to
:class:`~repro.opm.meter.OpmMeter` on the whole trace (property-tested
against both simulator engines).
"""

from __future__ import annotations

from repro.opm.meter import OpmMeter
from repro.stream.aggregate import BudgetWatcher, DroopWatcher
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.stream.session import (
    SessionHooks,
    StreamConfig,
    StreamService,
    StreamSession,
)
from repro.stream.source import ProxyBlock, SimulatorSource, TraceSource

__all__ = [
    "ProxyBlock",
    "SimulatorSource",
    "TraceSource",
    "SessionHooks",
    "StreamConfig",
    "StreamSession",
    "StreamService",
    "DroopWatcher",
    "BudgetWatcher",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "service_for_programs",
]


def service_for_programs(
    core,
    qmodel,
    programs,
    cycles: int,
    t: int = 8,
    chunk_cycles: int = 256,
    engine: str = "packed",
    config: StreamConfig | None = None,
    pdn=None,
    droop_enter_ma: float | None = None,
    budget_mw: float | None = None,
    governor=None,
    registry: MetricsRegistry | None = None,
    tracer=None,
) -> StreamService:
    """Wire one session per program into a ready-to-run service.

    The per-core path mirrors :class:`~repro.flow.multicore`'s socket
    model — one workload per core, one session per core here — and all
    sessions share the process's compiled simulator for the design.
    ``qmodel`` is a :class:`~repro.opm.quantize.QuantizedModel`; pass
    ``droop_enter_ma`` and/or ``budget_mw`` to enable the alert layers.
    """
    meter = OpmMeter(qmodel, t=t)
    config = config or StreamConfig()
    sessions = []
    for i, program in enumerate(programs):
        source = SimulatorSource.from_program(
            core,
            qmodel.proxies,
            program,
            cycles,
            chunk_cycles=chunk_cycles,
            engine=engine,
            tracer=tracer,
        )
        droop = (
            DroopWatcher(pdn=pdn, enter_ma=droop_enter_ma)
            if droop_enter_ma is not None
            else None
        )
        budget = (
            BudgetWatcher(budget_mw, governor=governor)
            if budget_mw is not None
            else None
        )
        name = f"core{i}-{getattr(program, 'name', 'workload')}"
        sessions.append(
            StreamSession(
                name, source, meter, config=config,
                droop=droop, budget=budget,
            )
        )
    return StreamService(meter, sessions, registry=registry, tracer=tracer)
