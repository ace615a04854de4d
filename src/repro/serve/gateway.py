"""The fleet telemetry gateway: many sessions, sharded, hot-swappable.

The :class:`Gateway` is the serving front door.  It owns a
:class:`~repro.serve.registry.ModelRegistry` (which model version new
sessions pin), a ring of :class:`~repro.serve.shard.Shard` s (where
sessions live), and an optional :class:`~repro.parallel.pool.WorkerPool`
(where each shard's batched GEMV may run).  Sessions come in two
flavours:

* **push** sessions — a client streams toggle chunks in over the framed
  protocol (:mod:`repro.serve.protocol`), via the asyncio transport
  (:class:`GatewayServer` / :class:`AsyncTelemetryClient`) or the
  in-process :class:`InprocClient`;
* **source** sessions — the gateway pulls from any
  :mod:`repro.stream.source` iterable (the bit-identity tests attach
  :class:`~repro.stream.source.SimulatorSource` s this way).

Time advances in deterministic **ticks**: one tick pumps every live
shard, runs every pending inference group (inline or on the pool), and
scatters results — the fleet-scale analogue of
:meth:`StreamService.step`, and bit-identical to it session by session
because the per-session math is untouched by sharding, batching, model
mixing, or pool placement.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import AdmissionError, BreakerOpenError, ServeError
from repro.obs.expo import render_openmetrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, SpanContext
from repro.parallel.shm import qmodel_digest
from repro.resilience.breaker import CircuitBreaker
from repro.serve.admission import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CRITICAL,
    AdmissionConfig,
    AdmissionController,
)
from repro.serve.protocol import (
    decode_array,
    decode_frame,
    encode_array,
    encode_frame,
    read_frame,
)
from repro.serve.registry import ModelRegistry
from repro.serve.shard import (
    Shard,
    ShardRouter,
    ShmGemvTask,
    _gemv,
    serve_gemv_task,
)
from repro.stream.session import (
    SessionHooks,
    StreamConfig,
    StreamSession,
)
from repro.stream.source import ProxyBlock

__all__ = [
    "PushSource",
    "SessionHandle",
    "Gateway",
    "InprocClient",
    "GatewayServer",
    "AsyncTelemetryClient",
]


class PushSource:
    """Client-pushed proxy blocks behind a bounded drop-oldest buffer.

    The serving twin of the pull sources in :mod:`repro.stream.source`:
    ``push`` appends a chunk (dropping the *oldest* buffered chunk when
    ``max_pending`` is exceeded — freshest-data-wins, accounted), and
    iteration yields buffered chunks until the client ``close`` s the
    stream and the buffer empties.
    """

    def __init__(self, q: int, max_pending: int = 4096) -> None:
        if q < 1:
            raise ServeError("push source needs q >= 1 proxy columns")
        if max_pending < 1:
            raise ServeError("max_pending must be >= 1")
        self.q = int(q)
        self.max_pending = int(max_pending)
        self._buf: deque[ProxyBlock] = deque()
        self.closed = False
        self.cycles_pushed = 0
        self.blocks_pushed = 0
        self.dropped_blocks = 0
        self.dropped_cycles = 0

    @property
    def pending(self) -> int:
        return len(self._buf)

    def push(self, toggles: np.ndarray, last: bool = False) -> bool:
        """Buffer one chunk; returns False if an old chunk was dropped."""
        if self.closed:
            raise ServeError("push on a closed session")
        arr = np.asarray(toggles, dtype=np.uint8)
        if arr.ndim != 2 or arr.shape[1] != self.q:
            raise ServeError(
                f"expected (cycles, {self.q}) toggles, got {arr.shape}"
            )
        if arr.shape[0] == 0:
            raise ServeError("pushed chunk must cover at least one cycle")
        block = ProxyBlock(
            start_cycle=self.cycles_pushed, toggles=arr, last=last
        )
        self.cycles_pushed += block.n_cycles
        self.blocks_pushed += 1
        kept = True
        if len(self._buf) >= self.max_pending:
            lost = self._buf.popleft()
            self.dropped_blocks += 1
            self.dropped_cycles += lost.n_cycles
            kept = False
        self._buf.append(block)
        if last:
            self.closed = True
        return kept

    def close(self) -> None:
        """No more pushes; buffered chunks still drain."""
        self.closed = True

    def __iter__(self):
        return self

    def __next__(self) -> ProxyBlock:
        if self._buf:
            return self._buf.popleft()
        if self.closed:
            raise StopIteration
        # Deliberately NOT a ServeError/StreamError: those are treated
        # as transient source stalls by StreamSession.pump, and this is
        # a gateway bug (pumps must be bounded by PushSource.pending).
        raise RuntimeError(
            "pump on an empty open push source (gateway bug)"
        )


class _PushSession(StreamSession):
    """A session whose pump never outruns its push buffer."""

    def __init__(self, name, push: PushSource, meter, **kw) -> None:
        super().__init__(name, push, meter, **kw)
        self._push = push

    def pump(self, max_blocks: int | None = None) -> int:
        n = self.config.pump_blocks if max_blocks is None else max_blocks
        # One extra pull is allowed on a closed empty buffer: that pull
        # is the StopIteration that marks the session exhausted.
        avail = self._push.pending + (1 if self._push.closed else 0)
        n = min(n, avail)
        if n <= 0:
            return 0
        return super().pump(n)


@dataclass
class SessionHandle:
    """Gateway-side record of one telemetry session.

    Accumulates what the fleet report needs (per-proxy toggle counts for
    attribution, peak window, emitted-window outbox for clients) via the
    session's :class:`~repro.stream.session.SessionHooks` — the session
    itself never learns it is being served.
    """

    name: str
    core_id: str
    version: str
    session: StreamSession
    push: PushSource | None
    shard_index: int
    opened_tick: int
    toggle_counts: np.ndarray = field(repr=False, default=None)
    peak_window_mw: float = 0.0
    windows_seen: int = 0
    priority: str = PRIORITY_BEST_EFFORT
    deadline_ticks: int | None = None
    last_activity_tick: int = 0  # last open/push/ping, for idle reaping
    last_progress_tick: int = 0  # last acknowledged drain, for deadlines
    deadline_downgrades: int = 0
    client_seq: int = 0  # next expected client data-frame sequence
    out_seq: int = 0  # next server windows-frame sequence
    _outbox: deque = field(default_factory=deque, repr=False)
    _done: bool = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def qmodel(self):
        return self.session.opm_stream.meter.qmodel

    def pop_windows(self) -> np.ndarray:
        """Drain the emitted-window outbox (mW, oldest first)."""
        if not self._outbox:
            return np.empty(0, dtype=np.float64)
        out = np.concatenate(list(self._outbox))
        self._outbox.clear()
        return out

    # ------------------------------------------------------------ #
    # Exact integer accounting: sum over processed cycles of the
    # per-cycle OPM integers equals weights . toggle_counts +
    # intercept * cycles — no float accumulation drift, so fleet
    # totals can be checked bit-exactly against offline readings.
    # ------------------------------------------------------------ #
    @property
    def attributed_sum_int(self) -> int:
        qm = self.qmodel
        return int(
            self.toggle_counts @ qm.int_weights
            + qm.int_intercept * self.session.cycles_processed
        )

    @property
    def mean_mw(self) -> float:
        n = self.session.cycles_processed
        if n == 0:
            return 0.0
        return self.attributed_sum_int * self.qmodel.step / n

    def proxy_contributions_mw(self) -> np.ndarray:
        """Per-proxy mean attributed power (mW), intercept excluded."""
        n = self.session.cycles_processed
        qm = self.qmodel
        if n == 0:
            return np.zeros(qm.q, dtype=np.float64)
        return (
            self.toggle_counts.astype(np.float64)
            * qm.int_weights
            * qm.step
            / n
        )

    def record(self) -> dict:
        """JSON-ready session record for snapshots and fleet reports."""
        sess = self.session
        stats = sess.stats()
        rec = {
            "name": self.name,
            "core_id": self.core_id,
            "model_version": self.version,
            "shard": self.shard_index,
            "done": self.done,
            "cycles": sess.cycles_processed,
            "attributed_sum_int": self.attributed_sum_int,
            "step": self.qmodel.step,
            "mean_mw": self.mean_mw,
            "peak_window_mw": self.peak_window_mw,
            "windows": self.windows_seen,
            "dropped_blocks": sess.dropped_blocks
            + (self.push.dropped_blocks if self.push is not None else 0),
            "droop_alerts": stats.get("droop_alerts", 0),
            "budget_violations": stats.get("budget_violations", 0),
            "priority": self.priority,
            "health": sess.health.state.value,
            "proxy_mw": [float(v) for v in self.proxy_contributions_mw()],
            "intercept_mw": float(
                self.qmodel.int_intercept * self.qmodel.step
            ),
        }
        return rec


class Gateway:
    """Sharded, hot-swappable multiplexer of telemetry sessions."""

    def __init__(
        self,
        registry: ModelRegistry,
        n_shards: int = 2,
        t: int = 8,
        config: StreamConfig | None = None,
        pool=None,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        push_buffer_blocks: int = 4096,
        flight_recorder=None,
        postmortem_dir: str | Path | None = None,
        admission: AdmissionConfig | AdmissionController | None = None,
        idle_timeout_ticks: int | None = None,
        dispatch_breaker: CircuitBreaker | None = None,
        faults=None,
    ) -> None:
        if n_shards < 1:
            raise ServeError("gateway needs at least one shard")
        self.registry = registry
        self.t = int(t)
        self.config = config or StreamConfig()
        #: Where each tick's GEMV runs: on this pool when it is parallel
        #: and owns a shared-memory plane (``WorkerPool(transport=
        #: "shm")``), inline otherwise (see :meth:`_dispatch_plane`).
        self.pool = pool
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or NULL_TRACER
        self.push_buffer_blocks = int(push_buffer_blocks)
        self.shards = [
            Shard(i, tracer=self.tracer) for i in range(n_shards)
        ]
        self.router = ShardRouter(self.shards)
        self.handles: dict[str, SessionHandle] = {}
        self._seq = 0
        self.ticks = 0
        #: Exact per-tick wall-latency histogram (log-bucketed,
        #: mergeable); quantiles come from bucket ranks, not samples.
        self.tick_hist = self.metrics.hist("serve.tick.latency")
        self.flightrec = flight_recorder
        self.postmortem_dir = (
            Path(postmortem_dir) if postmortem_dir is not None else None
        )
        #: Admission control: None admits everything (the historical
        #: behaviour); an AdmissionConfig builds a controller on this
        #: gateway's metrics; a ready controller is used as-is.
        if isinstance(admission, AdmissionConfig):
            admission = AdmissionController(admission, metrics=self.metrics)
        self.admission = admission
        #: Idle reaping: push sessions with no buffered or queued data
        #: and no client activity for this many ticks are closed (their
        #: processed readings survive; they just stop pinning a model
        #: version and a queue slot).  None disables.
        self.idle_timeout_ticks = (
            int(idle_timeout_ticks) if idle_timeout_ticks is not None
            else None
        )
        #: Deterministic fault injector; the tick fires the
        #: ``serve.tick`` site once per tick (kinds: ``kill_shard``,
        #: ``slab_overflow``) so chaos plans can kill shards mid-tick
        #: and overflow the shm slabs on schedule.
        self.faults = faults
        self._overflow_ticks = 0
        #: Breaker around pool dispatch: while open, inference runs
        #: inline (slower, still bit-identical) instead of hammering a
        #: failing pool; closes again via a half-open probe.
        self.dispatch_breaker = dispatch_breaker or CircuitBreaker(
            name="serve.dispatch",
            metrics=self.metrics,
            flightrec=self.flightrec,
        )
        # Lifecycle: close() during an in-flight tick (a dispatch
        # callback or another thread) defers teardown until the tick
        # completes, so results staged in the shm plane are copied out
        # before the plane is unlinked.
        self._lock = threading.RLock()
        self._closed = False
        self._close_requested = False
        self._close_pool = True
        self._in_tick = False
        if self.flightrec is not None:
            self.flightrec.attach_tracer(
                self.tracer,
                lane_of=lambda sp: self.tracer.lane_name(sp.pid),
            )
            for shard in self.shards:
                self.flightrec.watch_health(
                    shard.lane, shard.health,
                    on_demote=self._on_shard_demote,
                )

    def _on_shard_demote(self, lane, old, new, reason) -> None:
        """A shard left OK: capture the post-mortem before state moves on."""
        self.metrics.counter("serve.health.demotions").inc()
        if self.postmortem_dir is None or self.flightrec is None:
            return
        path = self.flightrec.dump(
            self.postmortem_dir / f"postmortem-{lane}-{new}.json",
            reason=f"{lane} {old}->{new}: {reason}",
        )
        if path is not None:
            self.metrics.counter("serve.postmortems").inc()

    # -------------------------------------------------------------- #
    # Session lifecycle
    # -------------------------------------------------------------- #
    def open_session(
        self,
        core_id: str,
        version: str | None = None,
        t: int | None = None,
        source=None,
        config: StreamConfig | None = None,
        droop=None,
        budget=None,
        priority: str | None = None,
        deadline_ticks: int | None = None,
    ) -> SessionHandle:
        """Open one telemetry session, pinned to a model version.

        ``version=None`` pins the registry's *active* version at this
        moment — a later :meth:`swap_model` never retroactively moves
        this session.  With ``source=None`` the session is push-mode
        (feed it via :meth:`push`); otherwise the gateway pulls from
        ``source`` like any :mod:`repro.stream` source.

        ``priority`` defaults to ``"critical"`` when a droop or budget
        watcher is attached (those sessions exist to catch power
        emergencies, so admission sheds them last) and ``"besteffort"``
        otherwise.  ``deadline_ticks`` is the session's tick budget:
        pending work older than that is downgraded to the degraded
        T-cycle fallback instead of computed late.  Admission-shed
        opens raise :class:`~repro.errors.AdmissionError` *before* any
        gateway state changes — a shed open consumes nothing.
        """
        if self._closed:
            raise ServeError("open_session on a closed gateway")
        if priority is None:
            priority = (
                PRIORITY_CRITICAL
                if droop is not None or budget is not None
                else PRIORITY_BEST_EFFORT
            )
        if self.admission is not None:
            self.admission.admit_open(
                core_id,
                priority,
                self.ticks,
                sum(1 for h in self.handles.values() if not h.done),
            )
        version = self.registry.resolve(version)
        meter = self.registry.meter(version, self.t if t is None else t)
        name = f"{core_id}#{self._seq}"
        self._seq += 1

        handle_ref: list[SessionHandle] = []

        def on_drain(_sess, blocks):
            # Fires at ack time (results scattered back), so a block
            # replayed after a shard death is attributed exactly once.
            h = handle_ref[0]
            h.last_progress_tick = self.ticks
            for b in blocks:
                h.toggle_counts += b.toggles.sum(axis=0, dtype=np.int64)

        def on_ingest(_sess, _per_cycle_mw, windows_mw):
            if windows_mw.size:
                h = handle_ref[0]
                h._outbox.append(np.array(windows_mw, dtype=np.float64))
                h.windows_seen += int(windows_mw.size)
                peak = float(windows_mw.max())
                if peak > h.peak_window_mw:
                    h.peak_window_mw = peak
                if self.flightrec is not None:
                    self.flightrec.record(
                        f"shard-{h.shard_index}",
                        "windows",
                        session=h.name,
                        version=h.version,
                        windows=[float(v) for v in windows_mw],
                    )

        def on_done(_sess):
            handle_ref[0]._done = True
            self.metrics.counter("serve.sessions.closed").inc()

        hooks = SessionHooks(
            on_drain=on_drain, on_ingest=on_ingest, on_done=on_done
        )
        cfg = config or self.config
        if source is None:
            push = PushSource(
                meter.qmodel.q, max_pending=self.push_buffer_blocks
            )
            sess: StreamSession = _PushSession(
                name, push, meter, config=cfg, hooks=hooks,
                droop=droop, budget=budget,
            )
        else:
            push = None
            sess = StreamSession(
                name, source, meter, config=cfg, hooks=hooks,
                droop=droop, budget=budget,
            )
        shard = self.router.shard_for(core_id, version)
        handle = SessionHandle(
            name=name,
            core_id=core_id,
            version=version,
            session=sess,
            push=push,
            shard_index=shard.index,
            opened_tick=self.ticks,
            toggle_counts=np.zeros(meter.qmodel.q, dtype=np.int64),
            priority=priority,
            deadline_ticks=(
                int(deadline_ticks) if deadline_ticks is not None else None
            ),
            last_activity_tick=self.ticks,
            last_progress_tick=self.ticks,
        )
        handle_ref.append(handle)
        shard.add_session(sess)
        self.handles[name] = handle
        self.metrics.counter("serve.sessions.opened").inc()
        with self.tracer.span(
            "serve.session.open",
            session=name, version=version, shard=shard.index,
        ):
            pass
        return handle

    def _resolve(self, handle_or_name) -> SessionHandle:
        if isinstance(handle_or_name, SessionHandle):
            return handle_or_name
        try:
            return self.handles[handle_or_name]
        except KeyError:
            raise ServeError(
                f"unknown session {handle_or_name!r}"
            ) from None

    def push(
        self, handle_or_name, toggles, last: bool = False,
        seq: int | None = None,
    ) -> None:
        """Feed one toggle chunk into a push-mode session.

        ``seq`` (when clients stamp one) must be the session's next
        data-frame sequence number; a mismatch is counted and rejected,
        so a dropped or re-ordered frame can never silently corrupt
        the stream.  Shed pushes raise
        :class:`~repro.errors.AdmissionError` before any data is
        buffered.
        """
        handle = self._resolve(handle_or_name)
        if handle.push is None:
            raise ServeError(
                f"session {handle.name!r} is source-backed; it cannot "
                "accept pushed data"
            )
        if self.admission is not None:
            self.admission.admit_push(
                handle.core_id,
                handle.priority,
                self.ticks,
                handle.push.pending + handle.session.pending_blocks,
                latency_p99_s=self.pump_latency_p99(),
            )
        if seq is not None:
            if int(seq) != handle.client_seq:
                self.metrics.counter("serve.protocol.seq_gaps").inc()
                raise ServeError(
                    f"session {handle.name!r}: data frame seq {seq} "
                    f"(expected {handle.client_seq}) — frame lost or "
                    "re-ordered"
                )
            handle.client_seq += 1
        handle.last_activity_tick = self.ticks
        kept = handle.push.push(toggles, last=last)
        self.metrics.counter("serve.push.blocks").inc()
        if not kept:
            self.metrics.counter("serve.push.dropped").inc()

    def ping(self, handle_or_name=None) -> dict:
        """Keepalive: refresh a session's idle clock (or just ask the
        gateway's tick).  Returns the pong payload."""
        out = {"tick": self.ticks}
        if handle_or_name is not None:
            handle = self._resolve(handle_or_name)
            handle.last_activity_tick = self.ticks
            out["session"] = handle.name
            out["done"] = handle.done
        self.metrics.counter("serve.pings").inc()
        return out

    def close_session(self, handle_or_name) -> None:
        """Client finished: no more data; buffered chunks still drain."""
        handle = self._resolve(handle_or_name)
        if handle.push is not None:
            handle.push.close()

    # -------------------------------------------------------------- #
    # Fleet control
    # -------------------------------------------------------------- #
    def swap_model(self, version: str) -> None:
        """Hot swap: new sessions pin ``version``; in-flight unaffected.

        With a shared-memory plane, resident weights whose digest no
        live session references any more are retired from the vault —
        workers re-publish lazily if the digest ever comes back.
        """
        self.registry.activate(version)
        self.metrics.counter("serve.model.swaps").inc()
        self._retire_unused_weights()
        with self.tracer.span("serve.model.swap", version=version):
            pass

    def kill_shard(self, index: int, reason: str = "injected") -> None:
        """Fail one shard (fault injection / tests); respawns next tick."""
        self.shards[index].kill(reason)
        self._refresh_metrics()

    @property
    def has_live_sessions(self) -> bool:
        return any(not h.done for h in self.handles.values())

    # -------------------------------------------------------------- #
    # Inference: gathered groups -> fused units -> GEMV results
    # -------------------------------------------------------------- #
    def _dispatch_plane(self):
        """The shm plane pool dispatch stages into; None means inline.

        The placement rule: a tick's units go to the pool only when it
        is parallel and owns a shared-memory plane (``WorkerPool(
        transport="shm")``).  No pool, a serial, degraded or closed
        pool, or a pool without a plane all serve inline.
        """
        pool = self.pool
        if pool is None or not pool.parallel or pool.transport != "shm":
            return None
        return pool.plane

    def _infer(self, flat: list, sp) -> list:
        """Run every gathered group's GEMV; returns per-group results.

        ``flat`` is ``(group, version, gather_ctx)`` per drain group in
        shard order.  Groups sharing a weights digest (possibly on
        different shards) fuse into one inference unit.  With a
        dispatch plane the units ship to the pool as ~100-byte
        shared-memory descriptors; otherwise they run inline.  Unit
        results are sliced back to group order by row ranges, which is
        bit-identical to per-group inference because every output row
        is an independent integer dot product.
        """
        if not flat:
            return []
        t_inf = time.perf_counter()
        by_digest: dict[str, list[int]] = {}
        for i, (group, _v, _c) in enumerate(flat):
            by_digest.setdefault(
                qmodel_digest(group.meter.qmodel), []
            ).append(i)
        unit_indices = list(by_digest.values())
        plane = self._dispatch_plane()
        if plane is not None:
            # Fusing must amortize, not serialize: a homogeneous fleet
            # would fuse to a single unit and starve the pool, so fused
            # units are split back up to the worker count (at group
            # granularity, balanced by rows).  Weight dedup is kept —
            # sibling units share the digest.
            unit_indices = self._split_units(
                unit_indices, flat, self.pool.workers
            )
        if plane is not None and len(unit_indices) > 1:
            # Dispatch runs under the breaker: repeated pool-path
            # failures trip it open and inference falls back inline
            # (slower, still bit-identical) until a half-open probe
            # finds the pool healthy again.
            try:
                unit_results = self.dispatch_breaker.call(
                    self._dispatch_units, plane, unit_indices, flat, sp,
                )
            except (BreakerOpenError, *self.dispatch_breaker.trip_on):
                self.metrics.counter("serve.breaker.inline_fallbacks").inc()
                unit_results = [
                    self._inline_unit(u, flat) for u in unit_indices
                ]
        else:
            unit_results = [self._inline_unit(u, flat) for u in unit_indices]
        results: list = [None] * len(flat)
        for indices, arr in zip(unit_indices, unit_results):
            off = 0
            for i in indices:
                r = flat[i][0].rows
                results[i] = arr[off:off + r]
                off += r
        self.metrics.hist("serve.infer_seconds").observe(
            time.perf_counter() - t_inf
        )
        return results

    @staticmethod
    def _unit_mats(indices: list, flat: list) -> list:
        return [m for i in indices for m in flat[i][0].mats]

    @staticmethod
    def _split_units(unit_indices: list, flat: list, target: int) -> list:
        """Split fused units until there are ``target`` (or no splits
        remain).  Greedy largest-first, cutting each unit's group list
        at the row midpoint; deterministic, order-preserving within a
        unit, and bit-identical under the row-independence of the GEMV.
        """
        units = [list(u) for u in unit_indices]

        def rows_of(u: list) -> int:
            return sum(flat[i][0].rows for i in u)

        while len(units) < target:
            cand = max(
                (u for u in units if len(u) > 1),
                key=rows_of,
                default=None,
            )
            if cand is None:
                break
            units.remove(cand)
            half = rows_of(cand) // 2
            acc = 0
            cut = len(cand) - 1
            for j, i in enumerate(cand[:-1]):
                acc += flat[i][0].rows
                if acc >= half:
                    cut = j + 1
                    break
            units.append(cand[:cut])
            units.append(cand[cut:])
        return units

    def _inline_unit(self, indices: list, flat: list) -> np.ndarray:
        """One unit's GEMV in this process."""
        qm = flat[indices[0]][0].meter.qmodel
        mats = self._unit_mats(indices, flat)
        t_g = time.perf_counter()
        stacked = mats[0] if len(mats) == 1 else np.concatenate(mats, axis=0)
        out = _gemv(stacked, qm.int_weights, qm.int_intercept)
        self.metrics.hist(
            f"serve.gemv.latency.{flat[indices[0]][1]}"
        ).observe(time.perf_counter() - t_g)
        return out

    def _stage_shm_task(self, plane, indices: list, flat: list):
        """Stage one unit in the arenas; None when it cannot be staged.

        The stacked toggle matrix is written block-by-block straight
        into a request slab (the path's single memcpy); the result
        region is parent-preallocated so the worker writes output in
        place and a dead worker can never leak a segment it owns;
        weights go to (or are found in) the vault by digest.
        """
        if self._overflow_ticks > 0:
            # Injected slab overflow (chaos ``slab_overflow`` kind):
            # behave exactly as if the arenas were full.
            return None
        stacked = plane.requests.write_concat(self._unit_mats(indices, flat))
        if stacked is None:
            return None
        out = plane.results.alloc((stacked.shape[0],), np.int64)
        if out is None:
            return None
        qm = flat[indices[0]][0].meter.qmodel
        wref = plane.vault.ensure(
            qmodel_digest(qm), qm.int_weights, qm.int_intercept
        )
        return ShmGemvTask(stacked, wref, out[0])

    def _dispatch_units(self, plane, unit_indices: list, flat: list, sp):
        """Pool dispatch of inference units over the shm plane.

        Each unit ships as a :class:`ShmGemvTask` of descriptors.  A
        unit that cannot be staged (arena full, or an injected slab
        overflow) runs inline instead and is counted in
        ``plane.fallbacks`` — the plane degrades per unit, never fails.
        Results come back in unit order.
        """
        m = self.metrics
        plane.begin_tick()
        results: list = [None] * len(unit_indices)
        staged = []  # (unit position, task)
        for k, indices in enumerate(unit_indices):
            task = self._stage_shm_task(plane, indices, flat)
            if task is None:
                plane.fallbacks += 1
                results[k] = self._inline_unit(indices, flat)
            else:
                staged.append((k, task))
        if staged:
            # Parent each unit's worker span under its first group's
            # shard gather (falling back to the tick span), so the trace
            # tree mirrors the data path: client -> tick -> gather ->
            # gemv task.
            fallback = sp.ctx if sp else None
            ctxs = [flat[unit_indices[k][0]][2] or fallback for k, _ in staged]
            timings: list = []
            receipts = self.pool.map(
                serve_gemv_task, [task for _k, task in staged],
                label="serve.gemv",
                span_ctx=(
                    ctxs if any(c is not None for c in ctxs) else None
                ),
                timings=timings,
            )
            hits = 0
            for (k, task), (_rows, hit) in zip(staged, receipts):
                hits += bool(hit)
                # Copy out of the ring before the next tick reuses the
                # slab (sessions keep reading-window slices across ticks).
                results[k] = np.array(plane.results.view(task.out))
            if len(timings) == len(staged):
                for (k, _task), (_pid, _t0, dur) in zip(staged, timings):
                    m.hist(
                        f"serve.gemv.latency.{flat[unit_indices[k][0]][1]}"
                    ).observe(dur)
            if hits:
                m.counter("serve.weights.cache_hits").inc(hits)
            if len(staged) > hits:
                m.counter("serve.weights.cache_misses").inc(
                    len(staged) - hits
                )
        m.gauge("serve.shm.request_occupancy").set(plane.requests.occupancy)
        m.gauge("serve.shm.result_occupancy").set(plane.results.occupancy)
        m.gauge("serve.weights.resident").set(len(plane.vault.digests()))
        m.gauge("serve.shm.fallbacks").set(plane.fallbacks)
        return results

    def _retire_unused_weights(self) -> None:
        """Drop vault digests no live session references (post-swap)."""
        plane = self.pool.active_plane if self.pool is not None else None
        if plane is None:
            return
        live = {
            qmodel_digest(h.qmodel)
            for h in self.handles.values()
            if not h.done
        }
        for digest in plane.vault.digests() - live:
            if plane.vault.retire(digest):
                self.metrics.counter("serve.weights.retired").inc()

    # -------------------------------------------------------------- #
    # The tick
    # -------------------------------------------------------------- #
    def tick(self, ctx=None) -> bool:
        """One fleet step; returns True while any session is live.

        ``ctx`` (a :class:`~repro.obs.trace.SpanContext`, typically
        decoded off a client frame header) parents this tick's whole
        span tree — gateway, shards, pooled GEMV workers — under the
        client's span, so one client tick renders as one connected
        cross-process trace.

        A :meth:`close` that lands while this tick is in flight (from
        a dispatch callback or another thread) is deferred: the tick
        finishes — including copying results out of the shm plane —
        and teardown runs on the way out.
        """
        with self._lock:
            if self._closed:
                raise ServeError("tick on a closed gateway")
            self._in_tick = True
            try:
                return self._tick_body(ctx)
            finally:
                self._in_tick = False
                if self._close_requested:
                    self._finish_close()

    def _tick_body(self, ctx=None) -> bool:
        t0 = time.perf_counter()
        with self.tracer.span("serve.tick", ctx=ctx, tick=self.ticks) as sp:
            respawned = self.router.respawn_dead()
            if respawned:
                self.metrics.counter("serve.shard.respawns").inc(respawned)
            self._check_deadlines(sp)
            shard_work = []
            flat = []  # (group, version, gather ctx), deterministic order
            for shard in self.shards:
                t_s = time.perf_counter()
                groups = shard.gather()
                self.metrics.hist(
                    f"serve.shard.{shard.index}.pump.latency"
                ).observe(time.perf_counter() - t_s)
                self.metrics.hist(
                    f"serve.shard.{shard.index}.queue.depth",
                    lo=0.5, hi=2 ** 20, growth=2.0,
                ).observe(sum(len(s.queue) for s in shard.sessions))
                shard_work.append((shard, t_s, groups))
                for group in groups:
                    flat.append((
                        group,
                        self.handles[group.picks[0][0].name].version,
                        shard.last_gather_ctx,
                    ))
            # Chaos site: fires *between* gather and apply, the exact
            # window where a shard death strands in-flight blocks — the
            # loss-free failover path this layer exists to cover.
            if self.faults is not None:
                for spec in self.faults.fire("serve.tick"):
                    self._apply_fault(spec)
            results = self._infer(flat, sp)
            alive = False
            cursor = 0
            for shard, t_s, groups in shard_work:
                res = results[cursor:cursor + len(groups)]
                cursor += len(groups)
                if shard.apply(groups, res, t_s):
                    alive = True
            if sp:
                sp.set(groups=len(flat))
        if self._overflow_ticks > 0:
            self._overflow_ticks -= 1
        self._reap_idle()
        self.ticks += 1
        self.tick_hist.observe(time.perf_counter() - t0)
        self._refresh_metrics()
        # Push sessions whose client has not closed stay live even with
        # an empty queue — the fleet is still serving them.
        return alive or self.has_live_sessions

    def _apply_fault(self, spec) -> None:
        """Apply one ``serve.tick`` fault spec (chaos injection)."""
        if spec.kind == "kill_shard":
            index = spec.at % len(self.shards)
            self.kill_shard(index, reason=f"chaos kill_shard@{spec.at}")
        elif spec.kind == "slab_overflow":
            self._overflow_ticks = max(
                self._overflow_ticks, int(spec.duration)
            )
            self.metrics.counter("serve.chaos.slab_overflows").inc()

    def _check_deadlines(self, sp) -> None:
        """Downgrade sessions whose pending work outlived its budget.

        Past-deadline work is never computed late at full fidelity:
        the session drops to the stream layer's degraded T-cycle
        fallback (per-cycle products pause, exact window readings keep
        flowing) until its queue drains.  Purely tick-arithmetic, so
        deterministic under a fixed drive.
        """
        for h in self.handles.values():
            if h.deadline_ticks is None or h.done:
                continue
            pending = h.session.pending_blocks + (
                h.push.pending if h.push is not None else 0
            )
            if not pending:
                continue
            overdue = self.ticks - h.last_progress_tick
            if overdue > h.deadline_ticks:
                h.session._degrade(
                    f"deadline exceeded: no progress for {overdue} ticks "
                    f"(budget {h.deadline_ticks})"
                )
                h.deadline_downgrades += 1
                h.last_progress_tick = self.ticks  # re-arm
                self.metrics.counter("serve.deadline.exceeded").inc()
                with self.tracer.span(
                    "serve.deadline.exceeded",
                    ctx=sp.ctx if sp else None,
                    session=h.name,
                    overdue_ticks=overdue,
                    budget_ticks=h.deadline_ticks,
                ):
                    pass

    def _reap_idle(self) -> None:
        """Close abandoned push sessions (no data, no pings, no client).

        A reaped session keeps everything it already processed — it
        just stops pinning its model version and queue slot, exactly
        as if the client had sent ``close``.
        """
        if self.idle_timeout_ticks is None:
            return
        for h in self.handles.values():
            if (
                h.done
                or h.push is None
                or h.push.closed
                or h.push.pending
                or h.session.pending_blocks
            ):
                continue
            idle = self.ticks - h.last_activity_tick
            if idle >= self.idle_timeout_ticks:
                h.push.close()
                self.metrics.counter("serve.sessions.reaped").inc()
                if self.flightrec is not None:
                    self.flightrec.record(
                        f"shard-{h.shard_index}",
                        "session_reaped",
                        session=h.name,
                        idle_ticks=idle,
                    )

    # -------------------------------------------------------------- #
    # Shutdown
    # -------------------------------------------------------------- #
    def close(self, close_pool: bool = True) -> None:
        """Tear the gateway down (idempotent).

        Safe to call mid-dispatch: if a tick is in flight — this
        thread's own tick (a callback) or another thread's — teardown
        is deferred until that tick completes, so results staged in
        the shm data plane are copied out before the plane is
        unlinked.  With ``close_pool`` the owned worker pool is closed
        too (its ``close`` is idempotent, so callers that also close
        the pool themselves are unaffected).
        """
        with self._lock:
            if self._closed:
                return
            self._close_pool = close_pool
            if self._in_tick:
                self._close_requested = True
                return
            self._finish_close()

    def _finish_close(self) -> None:
        self._closed = True
        self._close_requested = False
        if self._close_pool and self.pool is not None:
            self.pool.close()
        self.metrics.counter("serve.gateway.closed").inc()

    @property
    def closed(self) -> bool:
        return self._closed

    def drain(self, max_ticks: int = 100_000) -> dict:
        """Tick until every session completes; returns the snapshot."""
        with self.tracer.span("serve.drain", sessions=len(self.handles)):
            for _ in range(max_ticks):
                if not self.tick():
                    return self.snapshot()
        raise ServeError(
            f"gateway did not drain within {max_ticks} ticks (an open "
            "push session is never done until its client closes it)"
        )

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    def _refresh_metrics(self) -> None:
        m = self.metrics
        worst = 0
        for shard in self.shards:
            code = shard.health.code
            worst = max(worst, code)
            m.gauge(f"serve.shard.health.{shard.index}").set(code)
            m.gauge(f"serve.shard.sessions.{shard.index}").set(
                len(shard.sessions)
            )
        m.gauge("serve.shard.health").set(worst)
        m.gauge("serve.shards").set(len(self.shards))
        m.gauge("serve.sessions.live").set(
            sum(1 for h in self.handles.values() if not h.done)
        )
        m.counter("serve.ticks").value = self.ticks
        drops = sum(
            h.push.dropped_blocks
            for h in self.handles.values()
            if h.push is not None
        )
        m.counter("serve.push.buffer_dropped").value = drops
        # Drop accounting per shard and per model version (recomputed
        # totals — sessions move between respawned services, handles
        # are the ground truth).
        by_shard: dict[int, int] = {s.index: 0 for s in self.shards}
        by_version: dict[str, int] = {}
        for h in self.handles.values():
            d = h.session.dropped_blocks + (
                h.push.dropped_blocks if h.push is not None else 0
            )
            by_shard[h.shard_index] = by_shard.get(h.shard_index, 0) + d
            by_version[h.version] = by_version.get(h.version, 0) + d
        for idx, d in by_shard.items():
            m.counter(f"serve.shard.{idx}.dropped_blocks").value = d
        for version, d in by_version.items():
            m.counter(f"serve.dropped_blocks.{version}").value = d

    def pump_latency_p99(self) -> float:
        """p99 of tick latencies (seconds), exact from histogram ranks.

        Reads the ``serve.tick.latency`` :class:`LogHistogram` — the
        value is the upper edge of the bucket holding the p99 rank, so
        it never under-reports and is stable under shard merges."""
        return self.tick_hist.quantile(0.99)

    def session_records(self) -> list[dict]:
        return [h.record() for h in self.handles.values()]

    def snapshot(self) -> dict:
        """Fleet-wide JSON snapshot: gateway + shards + sessions."""
        snap = self.metrics.snapshot()
        snap["ticks"] = self.ticks
        snap["registry"] = self.registry.describe()
        snap["shards"] = [s.stats() for s in self.shards]
        snap["sessions"] = self.session_records()
        snap["pump_latency_p99_s"] = self.pump_latency_p99()
        snap["dispatch_breaker"] = self.dispatch_breaker.as_dict()
        if self.admission is not None:
            snap["admission"] = self.admission.snapshot()
        return snap


class InprocClient:
    """In-process client speaking real frames to a local gateway.

    Every call round-trips its frame through
    :func:`~repro.serve.protocol.encode_frame` /
    :func:`~repro.serve.protocol.decode_frame`, so tests and benchmarks
    that use it also exercise the wire encoding — without sockets or an
    event loop.
    """

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self._seq: dict[str, int] = {}  # session -> next data-frame seq

    def open(
        self,
        core_id: str,
        version: str | None = None,
        t: int | None = None,
        priority: str | None = None,
        deadline_ticks: int | None = None,
    ) -> str:
        frame = encode_frame(
            {"op": "open", "core": core_id, "version": version, "t": t,
             "priority": priority, "deadline_ticks": deadline_ticks}
        )
        header, _payload, _n = decode_frame(frame)
        handle = self.gateway.open_session(
            header["core"],
            version=header.get("version"),
            t=header.get("t"),
            priority=header.get("priority"),
            deadline_ticks=header.get("deadline_ticks"),
        )
        self._seq[handle.name] = 0
        return handle.name

    def push(self, name: str, toggles, last: bool = False, ctx=None) -> None:
        fields, payload = encode_array(np.asarray(toggles, dtype=np.uint8))
        seq = self._seq.get(name, 0)
        head = {"op": "data", "session": name, "last": bool(last),
                "seq": seq, **fields}
        if ctx is not None:
            head["ctx"] = ctx.to_header()
        frame = encode_frame(head, payload)
        header, body, _n = decode_frame(frame)
        rctx = SpanContext.from_header(header.get("ctx"))
        if rctx is not None:
            with self.gateway.tracer.span(
                "serve.ingest", ctx=rctx, session=header["session"]
            ):
                self.gateway.push(
                    header["session"],
                    decode_array(header, body),
                    last=bool(header.get("last", False)),
                    seq=header.get("seq"),
                )
        else:
            self.gateway.push(
                header["session"],
                decode_array(header, body),
                last=bool(header.get("last", False)),
                seq=header.get("seq"),
            )
        self._seq[name] = seq + 1

    def ping(self, name: str | None = None) -> dict:
        """Keepalive round-trip; returns the pong header."""
        header, _p, _n = decode_frame(
            encode_frame({"op": "ping", "session": name})
        )
        pong = self.gateway.ping(header.get("session"))
        return {"op": "pong", **pong}

    def tick(self, ctx=None) -> bool:
        """Advance the gateway one tick under an optional client span."""
        return self.gateway.tick(ctx=ctx)

    def close(self, name: str) -> None:
        header, _p, _n = decode_frame(
            encode_frame({"op": "close", "session": name})
        )
        self.gateway.close_session(header["session"])

    def windows(self, name: str) -> np.ndarray:
        """Pop the session's emitted T-window readings (mW)."""
        return self.gateway._resolve(name).pop_windows()

    def stats(self, name: str) -> dict:
        return self.gateway._resolve(name).record()


# ------------------------------------------------------------------ #
# asyncio transport
# ------------------------------------------------------------------ #
class GatewayServer:
    """Asyncio front-end: framed protocol over TCP, one shared gateway.

    A single background pump task advances the gateway in ticks while
    any session is live and flushes each session's emitted windows back
    to the connection that opened it.  Designed for thousands of
    concurrent light connections: per-connection state is one dict
    entry, and all inference stays batched in the gateway.
    """

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 0, metrics_port: int | None = None) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port
        #: Side port for ``GET /metrics`` (OpenMetrics text); ``None``
        #: disables exposition, ``0`` binds an ephemeral port.
        self.metrics_port = metrics_port
        self._server = None
        self._metrics_server = None
        self._pump_task = None
        self._writers: dict[str, object] = {}  # session name -> writer
        self._done_sent: set[str] = set()

    async def start(self) -> None:
        import asyncio

        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.host, self.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        self._pump_task = asyncio.ensure_future(self._pump_loop())

    async def close(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except BaseException:
                pass
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
            self._metrics_server = None

    async def _handle_metrics(self, reader, writer) -> None:
        """One ``GET /metrics`` scrape: HTTP/1.0, render, close."""
        try:
            data = b""
            while b"\r\n\r\n" not in data and b"\n\n" not in data:
                chunk = await reader.read(1024)
                if not chunk:
                    break
                data += chunk
            parts = data.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            if path.split("?")[0] in ("/metrics", "/"):
                body = render_openmetrics(self.gateway.metrics).encode()
                status = "200 OK"
                ctype = (
                    "application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8"
                )
            else:
                body = b"not found\n"
                status = "404 Not Found"
                ctype = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode() + body
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()

    async def _pump_loop(self) -> None:
        import asyncio

        while True:
            if self.gateway.has_live_sessions:
                self.gateway.tick()
                await self._flush()
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(0.002)

    async def _flush(self) -> None:
        for name, writer in list(self._writers.items()):
            handle = self.gateway.handles.get(name)
            if handle is None:
                continue
            windows = handle.pop_windows()
            if windows.size:
                fields, payload = encode_array(windows)
                writer.write(encode_frame(
                    {"op": "windows", "session": name,
                     "seq": handle.out_seq, **fields}, payload
                ))
                handle.out_seq += 1
            if handle.done and name not in self._done_sent:
                self._done_sent.add(name)
                writer.write(encode_frame(
                    {"op": "done", "session": name,
                     "stats": handle.record()}
                ))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                self._writers.pop(name, None)

    async def _handle(self, reader, writer) -> None:
        import asyncio

        owned: list[str] = []
        try:
            while True:
                try:
                    header, payload = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except ServeError as exc:
                    # Oversized or malformed frame: the byte stream
                    # cannot be resynchronised, so answer and hang up.
                    writer.write(encode_frame(
                        {"op": "error", "message": str(exc)}
                    ))
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass
                    break
                try:
                    reply = self._dispatch(header, payload, writer, owned)
                except AdmissionError as exc:
                    # Shed, not broken: tell the client to back off.
                    reply = {"op": "error", "message": str(exc),
                             "shed": True, "reason": exc.reason}
                except ServeError as exc:
                    reply = {"op": "error", "message": str(exc)}
                if reply is not None:
                    writer.write(encode_frame(reply))
                    await writer.drain()
        finally:
            for name in owned:
                self._writers.pop(name, None)
                handle = self.gateway.handles.get(name)
                if handle is not None and handle.push is not None:
                    handle.push.close()  # connection gone: drain & finish
            writer.close()

    def _dispatch(self, header, payload, writer, owned) -> dict | None:
        op = header.get("op")
        if op == "open":
            handle = self.gateway.open_session(
                str(header.get("core", "core")),
                version=header.get("version"),
                t=header.get("t"),
                priority=header.get("priority"),
                deadline_ticks=header.get("deadline_ticks"),
            )
            owned.append(handle.name)
            self._writers[handle.name] = writer
            return {
                "op": "opened",
                "session": handle.name,
                "version": handle.version,
                "shard": handle.shard_index,
            }
        if op == "data":
            rctx = SpanContext.from_header(header.get("ctx"))
            if rctx is not None:
                with self.gateway.tracer.span(
                    "serve.ingest", ctx=rctx,
                    session=header.get("session"),
                ):
                    self.gateway.push(
                        header.get("session"),
                        decode_array(header, payload),
                        last=bool(header.get("last", False)),
                        seq=header.get("seq"),
                    )
                return None
            self.gateway.push(
                header.get("session"),
                decode_array(header, payload),
                last=bool(header.get("last", False)),
                seq=header.get("seq"),
            )
            return None
        if op == "ping":
            return {"op": "pong",
                    **self.gateway.ping(header.get("session"))}
        if op == "close":
            self.gateway.close_session(header.get("session"))
            return None
        if op == "stats":
            handle = self.gateway._resolve(header.get("session"))
            return {"op": "stats", "session": handle.name,
                    "stats": handle.record()}
        raise ServeError(f"unknown op {op!r}")


class AsyncTelemetryClient:
    """Minimal asyncio client for :class:`GatewayServer`."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self._seq: dict[str, int] = {}  # session -> next data-frame seq

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncTelemetryClient":
        import asyncio

        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def open(self, core_id: str, version: str | None = None,
                   t: int | None = None, priority: str | None = None,
                   deadline_ticks: int | None = None) -> str:
        self.writer.write(encode_frame(
            {"op": "open", "core": core_id, "version": version, "t": t,
             "priority": priority, "deadline_ticks": deadline_ticks}
        ))
        await self.writer.drain()
        header, _payload = await read_frame(self.reader)
        if header["op"] == "error":
            raise ServeError(header["message"])
        self._seq[header["session"]] = 0
        return header["session"]

    async def send(self, session: str, toggles, last: bool = False) -> None:
        fields, payload = encode_array(np.asarray(toggles, dtype=np.uint8))
        seq = self._seq.get(session, 0)
        self.writer.write(encode_frame(
            {"op": "data", "session": session, "last": bool(last),
             "seq": seq, **fields},
            payload,
        ))
        await self.writer.drain()
        self._seq[session] = seq + 1

    async def ping(self, session: str | None = None) -> dict:
        """Keepalive round-trip; returns the pong header."""
        self.writer.write(encode_frame({"op": "ping", "session": session}))
        await self.writer.drain()
        header, _payload = await read_frame(self.reader)
        if header.get("op") == "error":
            raise ServeError(header["message"])
        return header

    async def close_session(self, session: str) -> None:
        self.writer.write(encode_frame({"op": "close", "session": session}))
        await self.writer.drain()

    async def collect(self, session: str) -> tuple[np.ndarray, dict]:
        """Read until ``done``; returns (all windows mW, final stats).

        Verifies the server's windows-frame sequence numbers are
        contiguous, so a lost or re-ordered frame surfaces as a
        :class:`~repro.errors.ServeError` instead of silently missing
        readings.
        """
        chunks: list[np.ndarray] = []
        expect_seq = 0
        while True:
            header, payload = await read_frame(self.reader)
            op = header.get("op")
            if op == "windows" and header.get("session") == session:
                seq = header.get("seq")
                if seq is not None:
                    if int(seq) != expect_seq:
                        raise ServeError(
                            f"session {session!r}: windows frame seq "
                            f"{seq} (expected {expect_seq}) — frame "
                            "lost or re-ordered"
                        )
                    expect_seq += 1
                chunks.append(decode_array(header, payload))
            elif op == "done" and header.get("session") == session:
                windows = (
                    np.concatenate(chunks)
                    if chunks else np.empty(0, dtype=np.float64)
                )
                return windows, header.get("stats", {})
            elif op == "error":
                raise ServeError(header["message"])

    async def aclose(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
