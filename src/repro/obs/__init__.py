"""Unified observability for the APOLLO pipeline (``repro.obs``).

The pipeline's own claim — per-cycle power visibility at negligible
overhead — deserves the same treatment applied to itself.  This package
is a dependency-free (stdlib + the repo's error types) observability
layer shared by every subsystem:

* :mod:`repro.obs.trace` — :class:`Tracer` with nested spans (monotonic
  start/duration, attributes, thread-safe collection), a zero-overhead
  :data:`NULL_TRACER` default, serializable :class:`SpanContext` for
  cross-process propagation (with :meth:`Tracer.record_remote` to
  stitch worker-measured timings back in), named process lanes, and
  exporters to JSONL and Chrome ``chrome://tracing`` trace-event JSON;
* :mod:`repro.obs.hist` — :class:`LogHistogram`, exact log-bucketed
  mergeable latency histograms whose quantiles come from bucket ranks,
  never sampling;
* :mod:`repro.obs.metrics` — the shared counter/gauge/histogram
  registry any layer publishes operational metrics into;
* :mod:`repro.obs.expo` — OpenMetrics text exposition and its parser,
  backing the gateway's ``GET /metrics`` side port and ``apollo-repro
  obs top``;
* :mod:`repro.obs.flightrec` — :class:`FlightRecorder`, bounded
  per-lane ring buffers dumped atomically to post-mortem JSON on shard
  death, health demotion, or SIGTERM;
* :mod:`repro.obs.provenance` — :class:`RunManifest`, a JSON sidecar
  capturing config hashes, seeds, engine choice, proxy count Q, model
  artifact version, and per-stage wall/CPU time.

Hot paths accept an optional ``tracer=`` (default: no-op): the GA
(:class:`~repro.genbench.ga.BenchmarkEvolver`), the MCP solver
(:func:`~repro.core.solvers.coordinate_descent`), proxy selection and
relaxation (:class:`~repro.core.selection.ProxySelector`,
:func:`~repro.core.model.train_apollo`), the gate-level simulator, the
design-time flow, and the streaming service.  ``apollo-repro trace`` and
``apollo-repro manifest`` render the exported artifacts.
"""

from __future__ import annotations

from repro.obs.expo import parse_openmetrics, render_openmetrics
from repro.obs.flightrec import FlightRecorder, load_postmortem
from repro.obs.hist import LogHistogram
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    default_registry,
)
from repro.obs.provenance import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    load_trace,
    render_tree,
)

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "load_trace",
    "render_tree",
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "default_registry",
    "FlightRecorder",
    "load_postmortem",
    "render_openmetrics",
    "parse_openmetrics",
    "RunManifest",
    "config_hash",
    "MANIFEST_SCHEMA_VERSION",
]
