"""Process-pool execution with a deterministic serial twin.

:class:`WorkerPool` is the one fan-out primitive the training pipeline
uses (GA generations, dataset groups, tuning grids, experiment fan-out).
Its contract:

* **Order-preserving**: ``map(fn, items)`` returns results in item
  order, whatever order workers finish in — so reductions downstream
  are independent of scheduling.
* **Deterministic**: ``fn`` must be a pure function of its item (plus
  per-process state seeded identically everywhere); under that contract
  the pool's output is bit-identical to ``[fn(x) for x in items]`` for
  any worker count.
* **Graceful degradation**: the serial path is used outright when
  ``workers <= 1`` or there are fewer items than workers (spawn cost
  would dominate).  If the pool itself breaks — a worker dies, the task
  won't pickle — the batch is retried once on a freshly spawned pool
  (transient worker deaths heal in place); only a second consecutive
  failure demotes the pool to serial, re-runs the batch in-process, and
  marks it degraded.  :meth:`WorkerPool.reset` restores a degraded pool
  to full service.  Application exceptions raised by ``fn`` are *not*
  swallowed: they propagate to the caller unchanged.

Health is tracked by a shared :class:`~repro.resilience.retry.HealthState`
machine (``ok -> degraded -> failed``) exposed as ``pool.health``;
``pool.degraded`` remains as the boolean view of it.

Task functions must be module-level (picklable); closures over local
state belong in per-process state seeded via ``initializer`` /
:func:`repro.parallel.tasks.seed_state` instead.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ParallelError, TransientFault
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import NULL_TRACER
from repro.parallel import shm as _shm
from repro.resilience.retry import HealthState

__all__ = ["WorkerPool", "default_workers", "payload_nbytes"]

#: Exceptions that mean "the pool broke", as opposed to "the task
#: failed"; only these trigger the respawn retry / serial fallback.
_POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError, OSError, TransientFault)


def _traced_task(envelope):
    """Run ``fn(item)`` in a worker, returning result + timing evidence.

    The timestamps are raw ``time.perf_counter()`` readings: forked
    children share CLOCK_MONOTONIC with the parent on Linux, so the
    parent tracer converts them with :meth:`Tracer.rel` and stitches the
    worker's execution into the distributed trace as a remote span.
    """
    fn, item = envelope
    t0 = time.perf_counter()
    result = fn(item)
    return result, os.getpid(), t0, time.perf_counter() - t0


def default_workers() -> int:
    """Worker count for ``workers=0``: the machine's CPU count."""
    return os.cpu_count() or 1


def payload_nbytes(obj) -> int:
    """Cheap wire-size estimate of a task payload, without pickling.

    Arrays dominate real payloads, and their pickled size is ``nbytes``
    plus a small frame — so summing ``nbytes`` over the structure gives
    a faithful IPC-bytes signal at nearly zero cost (measuring with
    ``pickle.dumps`` would double the hot path's serialization work).
    Non-array leaves are charged a small flat overhead.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes + 64
    if isinstance(obj, (bytes, bytearray)):
        return len(obj) + 8
    if isinstance(obj, str):
        return len(obj) + 8
    if isinstance(obj, (tuple, list)):
        return 16 + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return 16 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if hasattr(obj, "__dataclass_fields__"):
        return 64 + sum(
            payload_nbytes(getattr(obj, f))
            for f in obj.__dataclass_fields__
        )
    return 32


_SPAWN_FALLBACK_WARNED = False

#: How often pool workers check that their parent is still alive.
_WATCHDOG_INTERVAL_S = 2.0


def _parent_watchdog(parent_pid: int) -> None:
    """Hard-exit the worker once its parent is gone.

    A SIGKILLed parent never runs atexit, and the shared
    ``resource_tracker`` only unlinks leftover shared-memory segments
    after *every* process holding its pipe has died — which orphaned
    executor workers, blocked forever on a dead call queue, never
    would.  Reparenting (``getppid`` changing) is the death signal;
    ``os._exit`` skips Python teardown on a process whose work can no
    longer be collected by anyone.
    """
    while os.getppid() == parent_pid:
        time.sleep(_WATCHDOG_INTERVAL_S)
    os._exit(1)


def _worker_init(parent_pid: int, initializer, initargs) -> None:
    """Every pool worker: start the parent watchdog, then user init."""
    import threading

    threading.Thread(
        target=_parent_watchdog, args=(parent_pid,), daemon=True
    ).start()
    if initializer is not None:
        initializer(*initargs)


def _start_method() -> str:
    """Pick the multiprocessing start method for pool executors.

    ``REPRO_MP_START`` overrides (fork/spawn/forkserver).  Otherwise
    prefer fork — low spawn latency, inherits the parent's imports —
    and fall back to spawn with a one-time warning on platforms without
    it.  Task functions are module-level (the pool's existing pickling
    contract), so they travel to spawned workers unchanged.
    """
    import multiprocessing

    override = os.environ.get("REPRO_MP_START")
    if override:
        if override not in multiprocessing.get_all_start_methods():
            raise ParallelError(
                f"REPRO_MP_START={override!r} is not available here "
                f"(have: {multiprocessing.get_all_start_methods()})"
            )
        return override
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    global _SPAWN_FALLBACK_WARNED
    if not _SPAWN_FALLBACK_WARNED:
        _SPAWN_FALLBACK_WARNED = True
        warnings.warn(
            "fork start method unavailable on this platform; WorkerPool "
            "is falling back to spawn (slower worker startup, same "
            "results)",
            RuntimeWarning,
            stacklevel=2,
        )
    return "spawn"


class WorkerPool:
    """Order-preserving map over a process pool, with serial fallback.

    Parameters
    ----------
    workers:
        Process count.  ``<= 1`` never spawns (pure serial); ``0`` means
        :func:`default_workers`.
    initializer, initargs:
        Run once in every worker process at spawn — the place to build
        expensive per-process state (compiled simulators, pipelines) via
        :mod:`repro.parallel.tasks`.  The *parent* process must seed the
        equivalent state itself when the serial path may run.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; every ``map`` becomes
        a ``parallel.map`` span (label, items, workers, fallbacks).
    metrics:
        :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``parallel.pool.*`` counters; defaults to the process-global
        registry.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; the
        ``pool.map`` site can kill a live worker or raise a transient
        error on a scheduled parallel dispatch, exercising the respawn
        and serial-fallback paths deterministically.
    transport:
        ``"pickle"`` (default, fully portable) ships task payloads
        through the executor pipes; ``"shm"`` additionally owns a
        :class:`~repro.parallel.shm.ShmDataPlane` (``pool.plane``) so
        shm-aware callers can pass ~100-byte descriptors instead of
        arrays.  The serve gateway dispatches to a pool only through
        that plane.  ``transport="shm"`` on a platform without
        ``multiprocessing.shared_memory`` warns once and behaves
        exactly like ``"pickle"``.
    slab_bytes:
        Per-lane capacity of the shm request arena's two slabs; the
        result arena gets ``slab_bytes // 4`` per lane.  Ignored for
        the pickle transport.
    """

    def __init__(
        self,
        workers: int = 1,
        initializer: Callable | None = None,
        initargs: tuple = (),
        tracer=None,
        metrics: MetricsRegistry | None = None,
        faults=None,
        transport: str = "pickle",
        slab_bytes: int = 8 << 20,
    ) -> None:
        if workers < 0:
            raise ParallelError(f"workers must be >= 0, got {workers}")
        if transport not in ("pickle", "shm"):
            raise ParallelError(
                f"transport must be 'pickle' or 'shm', got {transport!r}"
            )
        if transport == "shm" and not _shm.HAVE_SHM:
            warnings.warn(
                "multiprocessing.shared_memory unavailable; WorkerPool "
                "transport falls back to pickle",
                RuntimeWarning,
                stacklevel=2,
            )
            transport = "pickle"
        self.workers = default_workers() if workers == 0 else workers
        self.transport = transport
        self._slab_bytes = slab_bytes
        self._plane: _shm.ShmDataPlane | None = None
        self._initializer = initializer
        self._initargs = initargs
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics if metrics is not None else default_registry()
        self.faults = faults
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self.health = HealthState()
        self._last_failure: str | None = None
        self._task_bytes = self.metrics.hist(
            "parallel.pool.task_bytes", lo=1.0, hi=float(2 << 40), growth=2.0
        )
        self._publish_health()

    def _publish_health(self) -> None:
        """Mirror pool health into the registry (0/1/2 gauge) so
        schedulers above (the serve gateway) can route on it without
        reaching into pool internals."""
        self.metrics.gauge("parallel.pool.health").set(self.health.code)

    # ------------------------------------------------------------------ #
    @property
    def degraded(self) -> bool:
        """Whether a pool failure has demoted this pool to serial."""
        return not self.health.ok

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (until a :meth:`reset`)."""
        return self._closed

    @property
    def parallel(self) -> bool:
        """Whether this pool may run tasks out-of-process."""
        return self.workers > 1 and self.health.ok and not self._closed

    @property
    def plane(self) -> "_shm.ShmDataPlane | None":
        """The shm data plane (lazily created); None on pickle transport.

        The plane's lifetime follows the pool: ``close()`` unlinks its
        segments **and pins the pool closed** — a closed pool never
        resurrects a fresh plane (that silently leaked segments when a
        dispatch raced ``close()``); only an explicit :meth:`reset`
        reopens it.  ``reset()`` recycles the plane alongside the
        executor.
        """
        if self.transport != "shm" or self._closed:
            return None
        if self._plane is None or self._plane.closed:
            self._plane = _shm.ShmDataPlane(slab_bytes=self._slab_bytes)
        return self._plane

    @property
    def active_plane(self) -> "_shm.ShmDataPlane | None":
        """The plane only if one is already open (never creates one)."""
        if self._plane is not None and not self._plane.closed:
            return self._plane
        return None

    def _close_plane(self) -> None:
        if self._plane is not None:
            self._plane.close()
            self._plane = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # ProcessPoolExecutor (unlike multiprocessing.Pool) surfaces
            # dead workers as BrokenProcessPool instead of hanging; the
            # start method prefers fork, falling back to spawn where
            # fork doesn't exist (see _start_method).
            import multiprocessing

            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context(_start_method()),
                initializer=_worker_init,
                initargs=(
                    os.getpid(), self._initializer, self._initargs,
                ),
            )
        return self._executor

    def _degrade(self, reason: str, wait: bool = True) -> None:
        self.health.degrade(reason)
        self.metrics.counter("parallel.pool.degraded").inc()
        self._publish_health()
        self._shutdown_executor(wait=wait)
        self._last_failure = reason

    def _shutdown_executor(self, wait: bool = True) -> None:
        if self._executor is not None:
            # wait=True so the executor's management thread and pipes
            # are fully torn down (wait=False leaves a wakeup fd that
            # trips an OSError in the interpreter's atexit hook).  The
            # exception is a pickling failure, whose wedged feeder
            # thread would make the wait deadlock.
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def reset(self) -> None:
        """Restore a degraded pool to full (parallel) service.

        Drops any broken executor so the next ``map`` spawns fresh
        workers, and returns health to OK.  The shm plane (if any) is
        recycled too — old segments are unlinked now and a fresh plane
        appears on next use, so a reset never strands ``/dev/shm``
        entries.  Safe to call on a healthy pool (no-op beyond the
        recycles).
        """
        self._shutdown_executor()
        self._close_plane()
        self._closed = False  # reset is the documented way to revive
        self.health.reset("pool reset")
        self.metrics.counter("parallel.pool.resets").inc()
        self._publish_health()

    # ------------------------------------------------------------------ #
    def _map_parallel(self, fn: Callable, items: list) -> list:
        """One parallel dispatch attempt (may raise ``_POOL_FAILURES``)."""
        if self.faults is not None:
            specs = self.faults.raise_if("pool.map")
            if any(s.kind == "kill_worker" for s in specs):
                self.faults.kill_one_worker(self._ensure_executor())
        return list(self._ensure_executor().map(fn, items))

    def map(
        self,
        fn: Callable,
        items: Sequence | Iterable,
        label: str = "map",
        span_ctx=None,
        timings: list | None = None,
    ) -> list:
        """``[fn(x) for x in items]``, possibly across processes.

        Results come back in item order.  Exceptions raised by ``fn``
        propagate.  Pool-level failures (dead worker, broken pipe) get
        one retry on a freshly spawned pool; if that also fails, the
        batch is re-run in-process serially and the pool marks itself
        degraded for subsequent calls (until :meth:`reset`).  Tasks that
        fail to pickle are a deterministic defect, not a transient: they
        degrade immediately without a respawn attempt.

        ``span_ctx`` (a :class:`~repro.obs.trace.SpanContext`, or a
        sequence of them — one per item) turns on traced task
        envelopes: each parallel task measures itself in the worker and
        the pool stitches a ``<label>.task`` remote span per item — in
        a ``worker-<os pid>`` lane — under that item's parent.
        ``timings``, when a list, receives one ``(pid, start_raw,
        duration)`` tuple per item (parallel dispatches only).
        """
        items = list(items)
        serial = not self.parallel or len(items) < self.workers
        if not serial:
            # An unpicklable task wedges the executor's feeder thread
            # (its shutdown would then deadlock), so catch it up front
            # and degrade before the executor ever sees the task.
            try:
                pickle.dumps(fn)
            except Exception as exc:
                self._degrade(f"task not picklable: {exc}")
                serial = True
        traced = span_ctx is not None and not serial
        if not serial:
            for x in items:
                self._task_bytes.observe(payload_nbytes(x))

        def dispatch() -> list:
            if not traced:
                return self._map_parallel(fn, items)
            envelopes = self._map_parallel(
                _traced_task, [(fn, x) for x in items]
            )
            out = []
            for i, (result, pid, t0_raw, dur) in enumerate(envelopes):
                out.append(result)
                if timings is not None:
                    timings.append((pid, t0_raw, dur))
                ctx = (
                    span_ctx[i]
                    if isinstance(span_ctx, (list, tuple)) else span_ctx
                )
                if ctx is not None:
                    self.tracer.record_remote(
                        f"{label}.task",
                        ctx,
                        start=self.tracer.rel(t0_raw),
                        duration=dur,
                        lane=f"worker-{pid}",
                        index=i,
                    )
            return out

        with self.tracer.span(
            "parallel.map",
            label=label,
            n_items=len(items),
            workers=self.workers,
            serial=serial,
        ) as sp:
            if serial:
                self.metrics.counter("parallel.pool.serial_maps").inc()
                return [fn(x) for x in items]
            try:
                results = dispatch()
            except _POOL_FAILURES as exc:
                results = None
                if not isinstance(exc, pickle.PicklingError):
                    # A dead worker is often transient (OOM kill, fault
                    # injection): spawn a fresh pool and retry the batch
                    # once before giving up on parallelism.
                    self._shutdown_executor(wait=True)
                    self.metrics.counter("parallel.pool.respawns").inc()
                    try:
                        results = dispatch()
                        self.metrics.counter(
                            "parallel.pool.respawn_recoveries"
                        ).inc()
                        if sp:
                            sp.set(respawned=True)
                    except _POOL_FAILURES as exc2:
                        exc = exc2
                        results = None
                if results is None:
                    # The *pool* failed twice (or the task can't move
                    # between processes at all): rerun serially so the
                    # caller still gets an answer, and stop trying to
                    # spawn.  (An unpicklable *item* — a pickling
                    # failure the up-front check can't see — leaves the
                    # feeder thread wedged; don't wait on it.)
                    self._degrade(
                        f"{type(exc).__name__}: {exc}",
                        wait=not isinstance(exc, pickle.PicklingError),
                    )
                    if sp:
                        sp.set(fallback=str(exc))
                    return [fn(x) for x in items]
            self.metrics.counter("parallel.pool.parallel_maps").inc()
            self.metrics.counter("parallel.pool.tasks").inc(len(items))
            return results

    def shard(self, n_items: int) -> list[slice]:
        """Contiguous near-even slices covering ``range(n_items)``.

        At most ``workers`` shards, never an empty one.  With the
        width-independent accumulator reduction, any shard plan yields
        bit-identical results, so the plan only affects load balance.
        """
        n_shards = max(1, min(self.workers, n_items))
        bounds = [
            round(k * n_items / n_shards) for k in range(n_shards + 1)
        ]
        return [
            slice(lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
            if hi > lo
        ]

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut down workers and unlink shm segments (idempotent).

        A closed pool stays usable for *serial* maps (the fallback the
        serving layer leans on during teardown races) but never spawns
        workers or shm segments again; :meth:`reset` revives it.
        """
        self._closed = True
        self._shutdown_executor()
        self._close_plane()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "degraded" if self.degraded else (
            "parallel" if self.workers > 1 else "serial"
        )
        return (
            f"WorkerPool(workers={self.workers}, {state}, "
            f"transport={self.transport})"
        )
