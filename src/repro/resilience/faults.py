"""Deterministic fault injection for the training pipeline.

A :class:`FaultPlan` is a seeded, JSON-serializable list of
:class:`FaultSpec` entries — *which* failure to inject (``kind``),
*where* (``site``), and at which arrival count (``at``).  A
:class:`FaultInjector` executes a plan: components call
``injector.fire(site)`` at their fault points, and the injector returns
the specs scheduled for that exact arrival.  The same seed always
produces the same plan and the same firing sequence, so every chaos
test is a reproducible experiment, not a flake generator.

Sites and kinds currently wired through the pipeline:

======================  ======================================================
``pool.map``            ``kill_worker`` (SIGKILL one live worker),
                        ``transient`` (raise before dispatch)
``cache.read``          ``corrupt`` (truncate the disk entry first)
``cache.write``         ``transient`` (I/O error; retried by policy)
``checkpoint.write``    ``truncate`` (torn payload), ``transient``
``stream.source``       ``stall`` (``duration`` empty pulls), ``transient``
``ga.generation``       ``interrupt`` (simulated crash at a stage boundary)
``dataset.train.wave``  ``interrupt`` (likewise ``dataset.test.wave``)
======================  ======================================================

``transient`` and ``interrupt`` both raise
:class:`~repro.errors.TransientFault`; the distinction is semantic —
transients are retried in place, interrupts model a killed process that
a later run resumes: the GA from its newest checkpoint, a dataset build
from the runs its :class:`~repro.parallel.EvalCache` already holds.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for
from pathlib import Path

import numpy as np

from repro.errors import ResilienceError, TransientFault
from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultySource",
    "truncate_file",
]

#: site -> kinds a random plan may schedule there.
DEFAULT_SITES: dict[str, tuple[str, ...]] = {
    "pool.map": ("kill_worker", "transient"),
    "cache.read": ("corrupt",),
    "cache.write": ("transient",),
    "checkpoint.write": ("truncate",),
    "stream.source": ("stall", "transient"),
    "ga.generation": ("interrupt",),
    "dataset.train.wave": ("interrupt",),
    "dataset.test.wave": ("interrupt",),
}


#: Upper bound on how long an injected worker kill waits for the
#: executor to notice the death.
_KILL_WAIT_S = 10.0


def truncate_file(path: str | Path, keep_frac: float = 0.5) -> None:
    """Chop a file to a prefix of itself (a simulated torn write)."""
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb+") as fh:
        fh.truncate(max(1, int(size * keep_frac)))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` at the ``at``-th arrival of ``site``."""

    site: str
    kind: str
    at: int
    duration: int = 1

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ResilienceError("fault arrival counts are 1-based")
        if self.duration < 1:
            raise ResilienceError("fault duration must be >= 1")

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "at": self.at,
            "duration": self.duration,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of scheduled faults."""

    seed: int
    faults: tuple[FaultSpec, ...] = ()

    @classmethod
    def random(
        cls,
        seed: int,
        sites: dict[str, tuple[str, ...]] | None = None,
        n_faults: int = 6,
        max_at: int = 3,
    ) -> "FaultPlan":
        """Draw a deterministic plan from ``seed``.

        Every (site, kind) pair in ``sites`` is eligible; ``n_faults``
        draws pick a pair and a 1-based arrival in ``[1, max_at]``.
        Duplicate (site, at) draws collapse to the first.
        """
        sites = DEFAULT_SITES if sites is None else sites
        pairs = [
            (site, kind)
            for site in sorted(sites)
            for kind in sites[site]
        ]
        if not pairs:
            raise ResilienceError("fault plan needs at least one site")
        rng = np.random.default_rng(seed)
        chosen: dict[tuple[str, int], FaultSpec] = {}
        for _ in range(n_faults):
            site, kind = pairs[int(rng.integers(len(pairs)))]
            at = int(rng.integers(1, max_at + 1))
            duration = (
                int(rng.integers(1, 4)) if kind == "stall" else 1
            )
            chosen.setdefault(
                (site, at),
                FaultSpec(site=site, kind=kind, at=at, duration=duration),
            )
        faults = tuple(
            sorted(chosen.values(), key=lambda s: (s.site, s.at))
        )
        return cls(seed=seed, faults=faults)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            faults=tuple(
                FaultSpec(
                    site=str(s["site"]),
                    kind=str(s["kind"]),
                    at=int(s["at"]),
                    duration=int(s.get("duration", 1)),
                )
                for s in data.get("faults", [])
            ),
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` against named fault points.

    Components call :meth:`fire` (or the raising shorthand
    :meth:`raise_if`) each time execution passes their fault point; the
    injector matches the per-site arrival count against the plan.  A
    ``None``-plan injector is inert and always safe to call.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.plan = plan or FaultPlan(seed=0)
        self.metrics = metrics if metrics is not None else default_registry()
        self._counts: dict[str, int] = {}
        #: (site, kind, arrival) log of every fault actually injected.
        self.fired: list[tuple[str, str, int]] = []

    def fire(self, site: str) -> list[FaultSpec]:
        """Register one arrival at ``site``; return its scheduled faults."""
        n = self._counts.get(site, 0) + 1
        self._counts[site] = n
        specs = [
            s for s in self.plan.faults if s.site == site and s.at == n
        ]
        for s in specs:
            self.fired.append((site, s.kind, n))
            self.metrics.counter("resilience.faults.injected").inc()
        return specs

    def raise_if(self, site: str) -> list[FaultSpec]:
        """:meth:`fire`, raising on ``transient``/``interrupt`` kinds.

        Returns the fired specs so callers can also apply non-raising
        kinds (``truncate``, ``corrupt``) in the same arrival.
        """
        specs = self.fire(site)
        for s in specs:
            if s.kind in ("transient", "interrupt"):
                raise TransientFault(
                    f"injected {s.kind} fault at {site} (arrival {s.at})"
                )
        return specs

    def kill_one_worker(self, executor) -> bool:
        """SIGKILL one live process of a ``ProcessPoolExecutor``.

        Returns once the process has exited and the executor has marked
        itself broken (at most ``_KILL_WAIT_S`` seconds), so the next
        dispatch meets ``BrokenProcessPool``.  Returning at once would
        race the executor's manager thread, which handles ready results
        before it checks worker sentinels: the surviving worker could
        finish the whole next map before the death is noticed.
        """
        procs = list(getattr(executor, "_processes", {}).values())
        if not any(p.is_alive() for p in procs):
            # Executors spawn workers lazily on first submit; force one
            # up so the kill lands on a real process, not thin air.
            executor.submit(os.getpid).result()
            procs = list(getattr(executor, "_processes", {}).values())
        for proc in procs:
            if proc.is_alive() and proc.pid:
                os.kill(proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + _KILL_WAIT_S
                wait_for([proc.sentinel], _KILL_WAIT_S)
                while (not getattr(executor, "_broken", True)
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
                return True
        return False

    def wrap_source(self, source, site: str = "stream.source"):
        """Wrap a stream source so its pulls pass through this injector."""
        return FaultySource(source, self, site=site)

    def summary(self) -> dict:
        """JSON-ready record of the plan and what actually fired."""
        return {
            "plan": self.plan.to_dict(),
            "fired": [
                {"site": site, "kind": kind, "at": at}
                for site, kind, at in self.fired
            ],
        }


class FaultySource:
    """A stream source whose pulls pass through a fault injector.

    ``stall`` faults make the next ``duration`` pulls raise
    :class:`TransientFault` without consuming the underlying source —
    the data is late, never lost — and ``transient`` faults raise once.
    """

    def __init__(
        self, source, injector: FaultInjector, site: str = "stream.source"
    ) -> None:
        self.source = source
        self.injector = injector
        self.site = site

    def __iter__(self):
        return _FaultyIterator(iter(self.source), self.injector, self.site)


class _FaultyIterator:
    def __init__(self, it, injector: FaultInjector, site: str) -> None:
        self._it = it
        self._injector = injector
        self._site = site
        self._stall = 0

    def __iter__(self):
        return self

    def __next__(self):
        for spec in self._injector.fire(self._site):
            if spec.kind == "stall":
                self._stall += spec.duration
            elif spec.kind == "transient":
                raise TransientFault(
                    f"injected transient fault at {self._site} "
                    f"(arrival {spec.at})"
                )
        if self._stall > 0:
            self._stall -= 1
            raise TransientFault(f"injected stall at {self._site}")
        return next(self._it)
