"""Shared operational metrics: counters, gauges, histograms.

One registry every layer — the GA, the solvers, the flows, the
streaming service, the serving gateway — publishes into.  The
vocabulary stays deliberately small and Prometheus-flavored: counters,
gauges, and exact mergeable :class:`~repro.obs.hist.LogHistogram` s.
``snapshot()`` is plain JSON-serializable data, so fleet tooling can
scrape a run without touching NumPy objects.

Misuse raises :class:`~repro.errors.StreamError`.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from repro.errors import StreamError
from repro.obs.hist import LogHistogram

__all__ = [
    "Counter",
    "Gauge",
    "LogHistogram",
    "MetricsRegistry",
    "default_registry",
]


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise StreamError(f"counter {self.name!r} cannot decrease")
        self.value += int(n)


@dataclass
class Gauge:
    """Last-observed value (queue depth, session health, ...)."""

    name: str
    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


@dataclass
class MetricsRegistry:
    """Name -> metric container with one-call JSON snapshots.

    Metric *creation* (the get-or-create lookups) and ``snapshot()``
    hold an internal lock, so shards running on gateway worker threads
    and the asyncio exposition endpoint can hit one registry
    concurrently without corrupting the dicts.  Updates on an already
    created metric object remain lock-free (single attribute writes).
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    hists: dict[str, LogHistogram] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False,
    )

    def counter(self, name: str) -> Counter:
        with self._lock:
            if name not in self.counters:
                self.counters[name] = Counter(name)
            return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            if name not in self.gauges:
                self.gauges[name] = Gauge(name)
            return self.gauges[name]

    def hist(
        self,
        name: str,
        lo: float = 1e-6,
        hi: float = 1e3,
        growth: float = 2 ** 0.25,
    ) -> LogHistogram:
        """Get-or-create a mergeable :class:`LogHistogram`."""
        with self._lock:
            if name not in self.hists:
                self.hists[name] = LogHistogram(lo=lo, hi=hi, growth=growth)
            return self.hists[name]

    def snapshot(self) -> dict:
        """Plain-data view of every metric (JSON-serializable)."""
        with self._lock:
            counters = dict(self.counters)
            gauges = dict(self.gauges)
            hists = dict(self.hists)
        return {
            "counters": {
                n: c.value for n, c in sorted(counters.items())
            },
            "gauges": {
                n: g.value for n, g in sorted(gauges.items())
            },
            "hists": {
                n: h.snapshot() for n, h in sorted(hists.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)


_DEFAULT_REGISTRY: MetricsRegistry | None = None
_DEFAULT_REGISTRY_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide shared registry (created on first use).

    Layers that are not handed an explicit registry can publish here, so
    one snapshot covers a whole in-process pipeline.  Creation is
    double-checked under a module lock so concurrent first callers (the
    asyncio gateway's shards) share one instance.
    """
    global _DEFAULT_REGISTRY
    if _DEFAULT_REGISTRY is None:
        with _DEFAULT_REGISTRY_LOCK:
            if _DEFAULT_REGISTRY is None:
                _DEFAULT_REGISTRY = MetricsRegistry()
    return _DEFAULT_REGISTRY
