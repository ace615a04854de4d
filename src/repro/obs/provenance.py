"""Run provenance: what produced a result, captured as a JSON sidecar.

A :class:`RunManifest` records everything needed to interpret (or
re-run) a pipeline result without the process that made it: design and
scale, every seed, the simulation engine, the proxy count Q, a hash of
the configuration, the model-artifact schema version, and per-stage
wall/CPU times.  ``save()`` writes it as a JSON sidecar next to the
results it describes; ``apollo-repro manifest <file>`` renders it.

Stage times come from either source:

* ``with manifest.stage("ga"):`` — measures wall (``perf_counter``) and
  CPU (``process_time``) around a block;
* ``manifest.record_tracer(tracer)`` — imports every *root* span of a
  :class:`~repro.obs.trace.Tracer` as a stage (wall time only), so a
  traced run gets its manifest for free.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from contextlib import contextmanager
from pathlib import Path

from repro.errors import ObsError
from repro.resilience.atomic import atomic_write_bytes

__all__ = ["RunManifest", "config_hash", "MANIFEST_SCHEMA_VERSION"]

#: Sidecar schema version; bump on incompatible layout changes.
MANIFEST_SCHEMA_VERSION = 1

_FORMAT = "apollo-repro-manifest"


def config_hash(config) -> str:
    """Stable short hash of a configuration mapping/dataclass-dict.

    Canonical JSON (sorted keys, ``str`` fallback for exotic values)
    hashed with SHA-256; 12 hex chars is plenty to distinguish configs
    while staying readable in tables.
    """
    blob = json.dumps(
        config, sort_keys=True, default=str, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


class RunManifest:
    """Provenance for one pipeline run; serializes to a JSON sidecar."""

    def __init__(
        self,
        run: str,
        design: str | None = None,
        scale: str | None = None,
        seed: int | None = None,
        engine: str | None = None,
        q: int | None = None,
        config: dict | None = None,
        model_schema_version: int | None = None,
        extra: dict | None = None,
    ) -> None:
        self.run = run
        self.design = design
        self.scale = scale
        self.seed = seed
        self.engine = engine
        self.q = q
        self.config = dict(config) if config else None
        self.config_hash = config_hash(self.config) if self.config else None
        self.model_schema_version = model_schema_version
        self.extra = dict(extra) if extra else {}
        self.created_at = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        self.host = platform.node() or "unknown"
        self.python = platform.python_version()
        self.stages: dict[str, dict] = {}

    # ------------------------------------------------------------------ #
    def add_stage(
        self, name: str, wall_s: float, cpu_s: float | None = None
    ) -> None:
        """Record one stage's timings (accumulates on repeated names)."""
        st = self.stages.setdefault(name, {"wall_s": 0.0, "cpu_s": None})
        st["wall_s"] += float(wall_s)
        if cpu_s is not None:
            st["cpu_s"] = (st["cpu_s"] or 0.0) + float(cpu_s)

    @contextmanager
    def stage(self, name: str):
        """Measure a block's wall + CPU time as stage ``name``."""
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield self
        finally:
            self.add_stage(
                name,
                time.perf_counter() - w0,
                time.process_time() - c0,
            )

    def record_tracer(self, tracer) -> None:
        """Import every root span of a tracer as a stage (wall only)."""
        for span in tracer.roots:
            self.add_stage(span.name, span.duration)

    # ------------------------------------------------------------------ #
    def record_fault_plan(self, injector_or_plan) -> None:
        """Record the chaos fault plan (and what actually fired).

        Accepts a :class:`~repro.resilience.FaultInjector` (recording
        both plan and fired log) or a bare
        :class:`~repro.resilience.FaultPlan`.  Stored under
        ``extra["fault_plan"]`` so a faulted run's manifest is a full
        reproduction recipe.
        """
        if hasattr(injector_or_plan, "summary"):
            self.extra["fault_plan"] = injector_or_plan.summary()
        else:
            self.extra["fault_plan"] = {
                "plan": injector_or_plan.to_dict(),
                "fired": [],
            }

    @property
    def total_wall_s(self) -> float:
        return sum(st["wall_s"] for st in self.stages.values())

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "format": _FORMAT,
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "run": self.run,
            "created_at": self.created_at,
            "host": self.host,
            "python": self.python,
            "design": self.design,
            "scale": self.scale,
            "seed": self.seed,
            "engine": self.engine,
            "q": self.q,
            "config_hash": self.config_hash,
            "config": self.config,
            "model_schema_version": self.model_schema_version,
            "stages": self.stages,
            "extra": self.extra,
        }

    def save(self, path: str | Path) -> Path:
        """Write the sidecar atomically; conventionally
        ``<results>.manifest.json``."""
        return atomic_write_bytes(
            path, (json.dumps(self.to_dict(), indent=2) + "\n").encode()
        )

    @classmethod
    def sidecar_for(cls, results_path: str | Path) -> Path:
        """The conventional sidecar location next to a results file."""
        p = Path(results_path)
        return p.with_name(p.name + ".manifest.json")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        p = Path(path)
        if not p.exists():
            raise ObsError(f"no manifest at {p}")
        data = json.loads(p.read_text())
        if data.get("format") != _FORMAT:
            raise ObsError(
                f"{p} is not an {_FORMAT} sidecar "
                f"(format={data.get('format')!r})"
            )
        version = int(data.get("schema_version", 0))
        if version > MANIFEST_SCHEMA_VERSION:
            raise ObsError(
                f"{p} uses manifest schema v{version}, newer than "
                f"supported v{MANIFEST_SCHEMA_VERSION}"
            )
        m = cls(
            run=data.get("run", "unknown"),
            design=data.get("design"),
            scale=data.get("scale"),
            seed=data.get("seed"),
            engine=data.get("engine"),
            q=data.get("q"),
            config=data.get("config"),
            model_schema_version=data.get("model_schema_version"),
            extra=data.get("extra"),
        )
        m.created_at = data.get("created_at", m.created_at)
        m.host = data.get("host", m.host)
        m.python = data.get("python", m.python)
        # A stored hash wins over the recomputed one (the sidecar is the
        # record of what ran, even if hashing rules ever change).
        if data.get("config_hash"):
            m.config_hash = data["config_hash"]
        m.stages = {
            str(k): {
                "wall_s": float(v.get("wall_s", 0.0)),
                "cpu_s": (
                    None if v.get("cpu_s") is None else float(v["cpu_s"])
                ),
            }
            for k, v in (data.get("stages") or {}).items()
        }
        return m

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Human-readable summary: identity block + stage-time table."""
        lines = [f"run: {self.run}   [{self.created_at}]"]
        for label, value in (
            ("design", self.design),
            ("scale", self.scale),
            ("seed", self.seed),
            ("engine", self.engine),
            ("Q", self.q),
            ("config hash", self.config_hash),
            ("model schema", self.model_schema_version),
            ("host", f"{self.host} (python {self.python})"),
        ):
            if value is not None:
                lines.append(f"  {label:<13} {value}")
        for k, v in self.extra.items():
            lines.append(f"  {k:<13} {v}")
        if self.stages:
            lines.append("")
            lines.append(
                f"  {'stage':<26} {'wall [s]':>10} {'cpu [s]':>10}"
            )
            for name, st in self.stages.items():
                cpu = (
                    f"{st['cpu_s']:>10.3f}" if st["cpu_s"] is not None
                    else f"{'-':>10}"
                )
                lines.append(
                    f"  {name:<26} {st['wall_s']:>10.3f} {cpu}"
                )
            lines.append(
                f"  {'total':<26} {self.total_wall_s:>10.3f}"
            )
        return "\n".join(lines)
