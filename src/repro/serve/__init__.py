"""Fleet-scale OPM telemetry serving (gateway, shards, registry).

The offline and streaming layers answer "what does this core draw";
this package answers it for a *fleet*: many concurrent telemetry
sessions, multiplexed over a small framed protocol into sharded
:class:`~repro.stream.session.StreamService` workers, metering with
versioned models that can be hot-swapped without touching in-flight
sessions — the high-volume deployment story of the APOLLO paper
(millions of shipped cores reporting through one introspection plane).

* :mod:`repro.serve.registry` — versioned model store, atomic
  activation, per-``(version, T)`` meter cache;
* :mod:`repro.serve.shard` — health-driven shard lifecycle
  (drain -> respawn) and stable sha256 session routing;
* :mod:`repro.serve.protocol` — the length-prefixed JSON+binary frame
  encoding shared by the TCP transport and the in-process client, with
  every length prefix bounded before its bytes are read;
* :mod:`repro.serve.gateway` — the front door: sessions, ticks,
  hot swap, fault injection, fleet snapshots;
* :mod:`repro.serve.loadgen` — seeded open/closed-loop load driver;
* :mod:`repro.serve.report` — ranked fleet rollups (JSON + markdown)
  with exact integer power accounting.

Everything stays bit-identical to a single-process
:class:`~repro.stream.session.StreamService` run: sharding, batching,
worker pools and hot swap never touch the per-session integer math.
"""

from __future__ import annotations

from repro.serve.admission import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.gateway import (
    AsyncTelemetryClient,
    Gateway,
    GatewayServer,
    InprocClient,
    PushSource,
    SessionHandle,
)
from repro.serve.loadgen import (
    LoadGenConfig,
    LoadReport,
    SessionPlan,
    plan,
    run_load,
)
from repro.serve.protocol import (
    FrameBuffer,
    decode_array,
    decode_frame,
    encode_array,
    encode_frame,
    read_frame,
)
from repro.serve.registry import ModelRegistry
from repro.serve.report import FleetReport, build_report
from repro.serve.shard import Shard, ShardRouter, infer_task

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "PRIORITY_CRITICAL",
    "PRIORITY_BEST_EFFORT",
    "AsyncTelemetryClient",
    "Gateway",
    "GatewayServer",
    "InprocClient",
    "PushSource",
    "SessionHandle",
    "LoadGenConfig",
    "LoadReport",
    "SessionPlan",
    "plan",
    "run_load",
    "FrameBuffer",
    "encode_frame",
    "decode_frame",
    "read_frame",
    "encode_array",
    "decode_array",
    "ModelRegistry",
    "FleetReport",
    "build_report",
    "Shard",
    "ShardRouter",
    "infer_task",
]
