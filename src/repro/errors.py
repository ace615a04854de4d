"""Exception hierarchy for the APOLLO reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class.  Subclasses group errors by the
subsystem that raised them.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetlistError",
    "SimulationError",
    "StimulusError",
    "PowerModelError",
    "SelectionError",
    "DatasetError",
    "IsaError",
    "OpmError",
    "ObsError",
    "StreamError",
    "ServeError",
    "AdmissionError",
    "ExperimentError",
    "ParallelError",
    "ResilienceError",
    "CheckpointError",
    "TransientFault",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class NetlistError(ReproError):
    """Raised for malformed netlists (bad fanin, combinational loops, ...)."""


class SimulationError(ReproError):
    """Raised when RTL simulation cannot proceed."""


class StimulusError(SimulationError):
    """Raised when stimulus does not match a design's input ports."""


class IsaError(ReproError):
    """Raised for malformed instructions or assembly text."""


class DatasetError(ReproError):
    """Raised when feature/label collection produces inconsistent data."""


class PowerModelError(ReproError):
    """Raised by power-model training or inference."""


class SelectionError(PowerModelError):
    """Raised when proxy selection cannot satisfy the request."""


class OpmError(ReproError):
    """Raised by OPM construction, quantization, or simulation."""


class ObsError(ReproError):
    """Raised by the observability layer (tracing, provenance)."""


class StreamError(ReproError):
    """Raised by the streaming introspection pipeline."""


class ServeError(StreamError):
    """Raised by the fleet serving layer (gateway, shards, registry).

    Derives from :class:`StreamError` so existing stream-level error
    handling (the CLI, the service tests) catches serving failures
    without new except clauses."""


class AdmissionError(ServeError):
    """Raised when the serving admission layer sheds a request.

    Carries a machine-readable ``reason`` (``"open_rate"``,
    ``"live_sessions"``, ``"push_rate"``, ``"queue_depth"``,
    ``"latency"``) so clients and the wire protocol can distinguish
    *shed* (retry later, the service is protecting itself) from
    *rejected* (the request itself is malformed)."""

    def __init__(self, message: str, reason: str = "shed") -> None:
        super().__init__(message)
        self.reason = reason


class ExperimentError(ReproError):
    """Raised by experiment drivers (bad ids, missing artifacts, ...)."""


class ParallelError(ReproError):
    """Raised by the parallel execution layer (pool/cache misuse)."""


class ResilienceError(ReproError):
    """Raised by the resilience layer (checkpointing, retries, faults)."""


class CheckpointError(ResilienceError):
    """Raised for missing, corrupt, or incompatible checkpoints."""


class TransientFault(ResilienceError):
    """A recoverable injected or transient fault; retry policies treat
    it as retryable by default."""
