"""OpenMetrics text exposition for a :class:`MetricsRegistry`.

:func:`render_openmetrics` turns a registry snapshot into the
OpenMetrics/Prometheus text format — counters, gauges, and
:class:`~repro.obs.hist.LogHistogram` s with cumulative
``_bucket{le="..."}`` series plus ``_sum``/``_count`` — so
any scraper (or ``apollo-repro obs top``) can read live gateway state
off the ``GET /metrics`` side port.

Dotted internal metric names map to the exposition charset by replacing
every non ``[a-zA-Z0-9_]`` character with ``_``
(``serve.tick.latency`` -> ``serve_tick_latency``); shard/version
components stay inside the name rather than labels, keeping the
renderer dependency-free and the mapping trivially invertible for our
own vocabulary.

:func:`parse_openmetrics` is the inverse used by the CLI poller and the
tests: it reads the sample lines (ignoring comments) back into a flat
``{name or name{labels}: value}`` dict.
"""

from __future__ import annotations

import re

__all__ = ["render_openmetrics", "parse_openmetrics"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(name: str) -> str:
    out = _NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def render_openmetrics(registry) -> str:
    """Render a registry (or a plain ``snapshot()`` dict) to text."""
    snap = registry if isinstance(registry, dict) else registry.snapshot()
    lines: list[str] = []

    for name, value in snap.get("counters", {}).items():
        n = _sanitize(name)
        lines.append(f"# TYPE {n} counter")
        lines.append(f"{n}_total {_fmt(value)}")

    for name, value in snap.get("gauges", {}).items():
        n = _sanitize(name)
        lines.append(f"# TYPE {n} gauge")
        lines.append(f"{n} {_fmt(value)}")

    for name, h in snap.get("hists", {}).items():
        n = _sanitize(name)
        lines.append(f"# TYPE {n} histogram")
        lo, growth = float(h["lo"]), float(h["growth"])
        cum = 0
        for k in sorted(int(b) for b in h["buckets"]):
            cum += int(h["buckets"][str(k)])
            edge = lo * growth ** k
            lines.append(f'{n}_bucket{{le="{_fmt(edge)}"}} {cum}')
        lines.append(f'{n}_bucket{{le="+Inf"}} {cum}')
        lines.append(f"{n}_sum {_fmt(h['sum'])}")
        lines.append(f"{n}_count {h['count']}")
        for qname in ("p50", "p90", "p99", "p999"):
            if qname in h:
                lines.append(
                    f'{n}{{quantile="{qname}"}} {_fmt(h[qname])}'
                )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*(?:\{[^}]*\})?)\s+(?P<value>\S+)$"
)


def parse_openmetrics(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{sample_name: value}``.

    Inverse of :func:`render_openmetrics` for our own output: comment
    and ``# EOF`` lines are skipped, label sets stay part of the key
    verbatim (``foo_bucket{le="0.1"}``).
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            continue
        raw = m.group("value")
        value = {
            "+Inf": float("inf"), "-Inf": float("-inf"), "NaN": float("nan"),
        }.get(raw)
        if value is None:
            try:
                value = float(raw)
            except ValueError:
                continue
        out[m.group("name")] = value
    return out
