"""Multi-session streaming introspection service.

One :class:`StreamSession` is one core's telemetry stream: a chunked
proxy source, a bounded pending-block queue, incremental T-cycle
windowing (:class:`~repro.opm.meter.OpmStream`), and optional
droop/budget watchers.  A :class:`StreamService` multiplexes many
sessions through *batched* OPM inference — one integer GEMV per drain
covers every session's pending chunks, the same amortization the
hardware gets from one adder tree serving T cycles.

Flow control is explicit and deterministic (no threads):

* ``pump`` moves blocks from sources into per-session queues; a full
  queue drops its *oldest* block (freshest-data-wins, as a real
  telemetry bus would) and accounts the loss;
* ``drain`` runs batched inference over at most ``drain_blocks`` queued
  blocks per session, so a fast producer + slow consumer genuinely falls
  behind;
* a session that dropped blocks enters *degraded* mode: droop
  detection pauses — per-cycle continuity is broken anyway — while
  every reading, per-cycle and T-cycle window, keeps flowing to
  :attr:`SessionHooks.on_ingest`.  The session recovers once its queue
  fully drains.

Session health is a full ``ok -> degraded -> failed``
:class:`~repro.resilience.retry.HealthState` machine (``session.health``;
the old ``degraded`` boolean remains as a property over it).  Source
pulls run under a :class:`~repro.resilience.retry.RetryPolicy`, so a
transient source error (or an injected
:class:`~repro.errors.TransientFault` stall) heals in place; a stall
that outlives the retry budget degrades the session, and
``max_source_errors`` *consecutive* failed pumps fail it outright —
its remaining queue still drains, then the session reports done.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import StreamError, TransientFault
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.opm.meter import OpmMeter
from repro.resilience.retry import HealthState, RetryPolicy
from repro.stream.aggregate import BudgetWatcher, DroopWatcher
from repro.stream.source import ProxyBlock

__all__ = [
    "DrainGroup",
    "SessionHooks",
    "StreamConfig",
    "StreamSession",
    "StreamService",
]


class DrainGroup(NamedTuple):
    """One batched-inference group out of :meth:`gather_pending`;
    unpacks as ``(meter, picks, mats)``."""

    meter: OpmMeter
    picks: list
    mats: list

    @property
    def rows(self) -> int:
        """Total stacked rows (cycles) across the group's blocks."""
        return sum(int(m.shape[0]) for m in self.mats)


@dataclass
class SessionHooks:
    """Lifecycle callbacks a layer above the service can observe.

    The serve gateway uses these to mirror a session's life out to
    remote clients and fleet reports without the session knowing it is
    being served: ``on_drain`` sees every dequeued block *before*
    inference (per-proxy toggle accounting for power attribution),
    ``on_ingest`` sees the inferred readings (per-cycle mW and any
    completed windows — the data a telemetry client is subscribed to),
    and ``on_done`` fires exactly once when the session finishes.
    """

    on_drain: Callable | None = None  # (session, blocks)
    on_ingest: Callable | None = None  # (session, per_cycle_mw, windows_mw)
    on_done: Callable | None = None  # (session,)


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs shared by every session of a service.

    ``pump_blocks`` > ``drain_blocks`` models a producer faster than the
    inference path — the backpressure scenario; the defaults are
    balanced (no drops unless a source bursts).
    """

    queue_depth: int = 8
    pump_blocks: int = 1
    drain_blocks: int = 1
    max_source_errors: int = 3

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise StreamError("queue_depth must be >= 1")
        if self.pump_blocks < 1 or self.drain_blocks < 1:
            raise StreamError("pump/drain block counts must be >= 1")
        if self.max_source_errors < 1:
            raise StreamError("max_source_errors must be >= 1")


class StreamSession:
    """One core's stream: source -> bounded queue -> aggregations."""

    def __init__(
        self,
        name: str,
        source,
        meter: OpmMeter,
        config: StreamConfig | None = None,
        droop: DroopWatcher | None = None,
        budget: BudgetWatcher | None = None,
        retry: RetryPolicy | None = None,
        hooks: SessionHooks | None = None,
    ) -> None:
        self.name = name
        self.config = config or StreamConfig()
        self.hooks = hooks or SessionHooks()
        self._done_notified = False
        self._it = iter(source)
        self.queue: deque[ProxyBlock] = deque()
        # Failover machinery: blocks leave the queue into ``_inflight``
        # at :meth:`take` and are acknowledged (popped, sequence
        # counted, ``on_drain`` fired) only when their inferred results
        # come back through :meth:`ingest`.  If the inference layer
        # dies mid-flight (a serve shard killed between gather and
        # apply), :meth:`requeue_inflight` moves them to ``_replay``,
        # which :meth:`take` consumes *ahead of* the queue and which is
        # exempt from drop-oldest backpressure — replayed blocks were
        # already admitted once and must re-emit bit-identical
        # readings, never be shed.  Both buffers are bounded by
        # ``drain_blocks`` (the most one take can stage).
        self._inflight: deque[ProxyBlock] = deque()
        self._replay: deque[ProxyBlock] = deque()
        self.take_seq = 0  # blocks handed to inference, lifetime
        self.ingest_seq = 0  # blocks acknowledged back, lifetime
        self.seq_gaps = 0  # acks that arrived without a matching take
        self.requeued_blocks = 0  # blocks replayed after a failover
        self.exhausted = False
        self.opm_stream = meter.stream()
        self.droop = droop
        self.budget = budget
        self.retry = retry if retry is not None else RetryPolicy()
        self.health = HealthState()
        self.cycles_processed = 0
        self.blocks_processed = 0
        self.dropped_blocks = 0
        self.dropped_cycles = 0
        self.degraded_entries = 0
        self.degraded_cycles = 0
        self.source_errors = 0
        self._consecutive_source_errors = 0
        self.window_sum = 0.0
        self.window_count = 0

    @property
    def degraded(self) -> bool:
        """Boolean view of :attr:`health` (degraded or failed)."""
        return not self.health.ok

    @property
    def failed(self) -> bool:
        return self.health.failed

    @property
    def done(self) -> bool:
        return (
            self.exhausted
            and not self.queue
            and not self._replay
            and not self._inflight
        )

    @property
    def pending_blocks(self) -> int:
        """Blocks not yet acknowledged: queued, replayable or in flight."""
        return len(self.queue) + len(self._replay) + len(self._inflight)

    # -------------------------------------------------------------- #
    def _pull(self) -> ProxyBlock:
        return next(self._it)

    def pump(self, max_blocks: int | None = None) -> int:
        """Pull up to ``max_blocks`` blocks from the source.

        Each pull runs under the session's retry policy, so transient
        source errors shorter than the retry budget are invisible.  A
        pull that exhausts its retries counts as one source error and
        degrades the session; ``max_source_errors`` *consecutive* such
        pumps fail it (the source is considered dead and the session
        finishes from its queue).
        """
        if self.exhausted:
            return 0
        n = self.config.pump_blocks if max_blocks is None else max_blocks
        pulled = 0
        for _ in range(n):
            try:
                block = self.retry.call(
                    self._pull, label=f"stream.pump.{self.name}"
                )
            except StopIteration:
                self.exhausted = True
                break
            except (TransientFault, StreamError, OSError) as exc:
                self.source_errors += 1
                self._consecutive_source_errors += 1
                if (
                    self._consecutive_source_errors
                    >= self.config.max_source_errors
                ):
                    self.health.fail(
                        f"source dead after "
                        f"{self._consecutive_source_errors} consecutive "
                        f"errors ({exc})"
                    )
                    self.exhausted = True
                else:
                    self._degrade(f"source stall: {exc}")
                break
            self._consecutive_source_errors = 0
            if self.health.degraded and not self.queue:
                self.health.recover("source recovered")
            self._enqueue(block)
            pulled += 1
        return pulled

    def _degrade(self, reason: str) -> None:
        if self.health.ok:
            self.health.degrade(reason)
            self.degraded_entries += 1

    def _enqueue(self, block: ProxyBlock) -> None:
        if len(self.queue) >= self.config.queue_depth:
            lost = self.queue.popleft()
            self.dropped_blocks += 1
            self.dropped_cycles += lost.n_cycles
            self._degrade("queue overflow: dropped oldest block")
        self.queue.append(block)

    def take(self, max_blocks: int) -> list[ProxyBlock]:
        """Stage up to ``max_blocks`` blocks for inference.

        Replayed blocks (from a failover) go first, then the queue.
        Taken blocks sit in the in-flight buffer until :meth:`ingest`
        acknowledges them — ``on_drain`` fires at *ack* time, so a
        block whose inference was lost and replayed is drained (and
        attributed) exactly once.
        """
        out = []
        while self._replay and len(out) < max_blocks:
            out.append(self._replay.popleft())
        while self.queue and len(out) < max_blocks:
            out.append(self.queue.popleft())
        self._inflight.extend(out)
        self.take_seq += len(out)
        return out

    def requeue_inflight(self) -> int:
        """Return un-acknowledged in-flight blocks to the replay buffer.

        Called by the inference layer when results for staged blocks
        were lost (a serve shard died between gather and apply).  The
        blocks re-enter in original order, ahead of the queue and
        exempt from backpressure drops, and the take sequence rewinds —
        the re-take re-issues the same sequence numbers, so downstream
        continuity checks see zero gaps.
        """
        n = len(self._inflight)
        if n:
            self._replay.extendleft(reversed(self._inflight))
            self._inflight.clear()
            self.take_seq -= n
            self.requeued_blocks += n
        return n

    def notify_done(self) -> None:
        """Fire ``on_done`` exactly once after the session completes."""
        if self.done and not self._done_notified:
            self._done_notified = True
            if self.hooks.on_done is not None:
                self.hooks.on_done(self)

    # -------------------------------------------------------------- #
    def ingest(
        self, per_cycle_ints: np.ndarray, n_blocks: int = 1
    ) -> None:
        """Fold one inferred chunk into the session's aggregations.

        Also acknowledges ``n_blocks`` staged blocks: they leave the
        in-flight buffer, the ingest sequence advances, and the
        ``on_drain`` hook fires over exactly the acknowledged blocks.
        An ack without a matching take (results for blocks this
        session never staged) counts a sequence gap.
        """
        acked: list[ProxyBlock] = []
        while self._inflight and len(acked) < n_blocks:
            acked.append(self._inflight.popleft())
        if len(acked) < n_blocks:
            self.seq_gaps += n_blocks - len(acked)
        self.ingest_seq += len(acked)
        if acked and self.hooks.on_drain is not None:
            self.hooks.on_drain(self, acked)
        stream = self.opm_stream
        windows_int = stream.push_per_cycle(per_cycle_ints)
        per_cycle_mw = stream.read_per_cycle(per_cycle_ints)
        windows_mw = stream.read_windows(windows_int)
        n = int(per_cycle_ints.size)
        self.cycles_processed += n
        self.blocks_processed += n_blocks
        if self.degraded:
            # T-cycle fallback: readings continue below, droop
            # detection pauses until the queue drains.
            self.degraded_cycles += n
        elif self.droop is not None:
            self.droop.observe(per_cycle_mw)
        if windows_mw.size:
            self.window_sum += float(windows_mw.sum())
            self.window_count += int(windows_mw.size)
            if self.budget is not None:
                self.budget.observe(windows_mw)
        if self.hooks.on_ingest is not None:
            self.hooks.on_ingest(self, per_cycle_mw, windows_mw)
        if self.health.degraded and not self.queue:
            self.health.recover("queue drained")  # caught up

    # -------------------------------------------------------------- #
    def stats(self) -> dict:
        """Per-session slice of the metrics snapshot (plain data)."""
        out = {
            "cycles_processed": self.cycles_processed,
            "blocks_processed": self.blocks_processed,
            "dropped_blocks": self.dropped_blocks,
            "dropped_cycles": self.dropped_cycles,
            "degraded": self.degraded,
            "degraded_entries": self.degraded_entries,
            "degraded_cycles": self.degraded_cycles,
            "health": self.health.as_dict(),
            "source_errors": self.source_errors,
            "queue_depth": len(self.queue),
            "inflight_blocks": len(self._inflight),
            "replay_blocks": len(self._replay),
            "take_seq": self.take_seq,
            "ingest_seq": self.ingest_seq,
            "seq_gaps": self.seq_gaps,
            "requeued_blocks": self.requeued_blocks,
            "windows_emitted": self.window_count,
            "mean_window_mw": (
                self.window_sum / self.window_count
                if self.window_count else 0.0
            ),
            "pending_window_cycles": self.opm_stream.pending_cycles,
        }
        if self.droop is not None:
            out["droop_alerts"] = self.droop.alerts
            out["droop_alert_cycles"] = self.droop.alert_cycles
            out["min_voltage_v"] = (
                self.droop.min_voltage
                if self.droop.min_voltage != float("inf") else None
            )
            out["max_delta_i_ma"] = self.droop.max_delta_i
        if self.budget is not None:
            out["budget_violations"] = self.budget.violations
            if self.budget.dvfs_state is not None:
                out["dvfs_level"] = self.budget.dvfs_state.level
        return out


class StreamService:
    """Drives many sessions through batched OPM inference.

    Inference is grouped by each session's *own* meter (the meter inside
    its :class:`~repro.opm.meter.OpmStream`), so one service can host
    sessions pinned to different model versions — the serve layer's hot
    model swap depends on this.  Sessions sharing a meter still share a
    single integer GEMV per drain, exactly as before; with one meter for
    every session (the common library case) the behaviour is unchanged.
    """

    def __init__(
        self,
        meter: OpmMeter | None,
        sessions: list[StreamSession] | None = None,
        registry: MetricsRegistry | None = None,
        tracer=None,
        allow_empty: bool = False,
    ) -> None:
        sessions = list(sessions or [])
        if not sessions and not allow_empty:
            raise StreamError("service needs at least one session")
        names = [s.name for s in sessions]
        if len(set(names)) != len(names):
            raise StreamError(f"duplicate session names in {names}")
        self.meter = meter
        self.sessions = sessions
        self.metrics = registry or MetricsRegistry()
        self.tracer = tracer or NULL_TRACER
        self._elapsed = 0.0
        self.steps = 0

    def add_session(self, session: StreamSession) -> None:
        """Attach a new session mid-flight (serve gateway arrivals)."""
        if any(s.name == session.name for s in self.sessions):
            raise StreamError(f"duplicate session name {session.name!r}")
        self.sessions.append(session)

    # -------------------------------------------------------------- #
    # The step is split into phases so a layer above can interleave
    # them: ``pump_all`` -> ``gather_pending`` -> (inference, possibly
    # on a worker pool) -> ``scatter`` -> ``finish_step``.  ``step``
    # composes them inline for the single-process path.
    # -------------------------------------------------------------- #
    def pump_all(self) -> None:
        """Move blocks from every session's source into its queue."""
        for sess in self.sessions:
            sess.pump()

    def gather_pending(self) -> list[DrainGroup]:
        """Dequeue pending blocks, grouped by session meter.

        Each :class:`DrainGroup` unpacks as ``(meter, picks, mats)``:
        sessions sharing a meter are concatenated into one batched
        GEMV.  Group order follows session order, so results are
        deterministic.
        """
        groups: dict[int, DrainGroup] = {}
        for sess in self.sessions:
            blocks = sess.take(sess.config.drain_blocks)
            if not blocks:
                continue
            meter = sess.opm_stream.meter
            _meter, picks, mats = groups.setdefault(
                id(meter), DrainGroup(meter, [], [])
            )
            picks.append((sess, blocks))
            mats.extend(b.toggles for b in blocks)
        return list(groups.values())

    def scatter(
        self,
        picks: list[tuple[StreamSession, list[ProxyBlock]]],
        per_cycle: np.ndarray,
    ) -> None:
        """Distribute one group's inferred per-cycle integers back."""
        offset = 0
        for sess, blocks in picks:
            n = sum(b.n_cycles for b in blocks)
            sess.ingest(
                per_cycle[offset:offset + n], n_blocks=len(blocks)
            )
            offset += n

    def observe_inference(self, seconds: float) -> None:
        """Record one drain's inference latency."""
        self.metrics.hist("inference_seconds").observe(seconds)

    def finish_step(self, t0: float) -> bool:
        """Close one step: bookkeeping, metrics, done notifications."""
        self.steps += 1
        dt = time.perf_counter() - t0
        self._elapsed += dt
        self.metrics.hist("stream.step.latency").observe(dt)
        for sess in self.sessions:
            sess.notify_done()
        return not all(s.done for s in self.sessions)

    def step(self, ctx=None) -> bool:
        """One pump + one batched drain; False when all streams end.

        ``ctx`` (a :class:`~repro.obs.trace.SpanContext`) parents this
        step under a possibly remote span: the whole step is wrapped in
        a ``stream.step`` span child of ``ctx``, so a driver across a
        process or connection boundary still renders one connected
        trace.  Without ``ctx`` the span structure is unchanged.
        """
        if ctx is not None:
            with self.tracer.span("stream.step", ctx=ctx):
                return self.step()
        t0 = time.perf_counter()
        self.pump_all()
        for meter, picks, mats in self.gather_pending():
            with self.tracer.span(
                "stream.drain",
                n_sessions=len(picks),
                n_blocks=sum(len(b) for _s, b in picks),
            ) as sp:
                t_inf = time.perf_counter()
                per_cycle = meter.per_cycle(np.concatenate(mats, axis=0))
                inf_seconds = time.perf_counter() - t_inf
                if sp:
                    sp.set(n_cycles=int(per_cycle.size))
            self.observe_inference(inf_seconds)
            self.scatter(picks, per_cycle)
        return self.finish_step(t0)

    def run(self, max_steps: int | None = None) -> dict:
        """Step until every session completes; return the snapshot."""
        with self.tracer.span(
            "stream.run", n_sessions=len(self.sessions)
        ) as sp:
            steps = 0
            while self.step():
                steps += 1
                if max_steps is not None and steps >= max_steps:
                    break
            snap = self.snapshot()
            if sp:
                sp.set(
                    steps=self.steps,
                    cycles_processed=snap["counters"]["cycles_processed"],
                )
        return snap

    # -------------------------------------------------------------- #
    def _refresh_metrics(self) -> None:
        """Write service totals and per-session gauges into the
        registry; :meth:`snapshot` calls it, :meth:`step` does not."""
        m = self.metrics
        totals = {
            "cycles_processed": 0,
            "blocks_processed": 0,
            "blocks_dropped": 0,
            "windows_emitted": 0,
            "droop_alerts": 0,
            "budget_violations": 0,
            "degraded_entries": 0,
            "source_errors": 0,
        }
        queue_total = 0
        for s in self.sessions:
            totals["cycles_processed"] += s.cycles_processed
            totals["blocks_processed"] += s.blocks_processed
            totals["blocks_dropped"] += s.dropped_blocks
            totals["windows_emitted"] += s.window_count
            totals["degraded_entries"] += s.degraded_entries
            totals["source_errors"] += s.source_errors
            if s.droop is not None:
                totals["droop_alerts"] += s.droop.alerts
            if s.budget is not None:
                totals["budget_violations"] += s.budget.violations
            queue_total += len(s.queue)
        for name, value in totals.items():
            c = m.counter(name)
            c.value = value  # totals are recomputed, not incremented
        m.gauge("queue_depth_total").set(queue_total)
        m.gauge("n_sessions").set(len(self.sessions))
        m.gauge("elapsed_seconds").set(self._elapsed)
        if self._elapsed > 0:
            m.gauge("cycles_per_second").set(
                totals["cycles_processed"] / self._elapsed
            )
        # Health and backpressure, per session and rolled up, as plain
        # gauges — the serve gateway routes on the snapshot alone.
        worst = 0
        for s in self.sessions:
            worst = max(worst, s.health.code)
            m.gauge(f"stream.session.health.{s.name}").set(s.health.code)
            m.gauge(f"stream.session.dropped_blocks.{s.name}").set(
                s.dropped_blocks
            )
        m.gauge("stream.service.health").set(worst)

    def snapshot(self) -> dict:
        """Full metrics snapshot: service totals + per-session stats."""
        self._refresh_metrics()
        snap = self.metrics.snapshot()
        snap["sessions"] = {s.name: s.stats() for s in self.sessions}
        snap["steps"] = self.steps
        # Worst session health wins the service rollup.
        if any(s.health.failed for s in self.sessions):
            snap["health"] = "failed"
        elif any(s.degraded for s in self.sessions):
            snap["health"] = "degraded"
        else:
            snap["health"] = "ok"
        return snap
