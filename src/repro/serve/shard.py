"""Sharded session placement with health-driven drain and respawn.

A :class:`Shard` is one :class:`~repro.stream.session.StreamService`
plus a :class:`~repro.resilience.retry.HealthState`; the
:class:`ShardRouter` places sessions on shards by a *stable* hash of
``(core id, model version)`` — sha256, not Python's salted ``hash`` —
so the same fleet always routes the same way.

Failure model (deterministic, test-injectable via :meth:`Shard.kill`):

* a **failed** shard is skipped by the tick loop (it stops pumping and
  draining) and **drains** for routing — new sessions probe the next
  shards in ring order;
* at the start of the next tick the router **respawns** it: a fresh
  ``StreamService`` is built around the *same* session objects, whose
  state (queues, open OPM windows, watchers) lives outside the service —
  so nothing is lost beyond what drop-oldest backpressure discards
  while the shard was down (zero for pull sources, bounded by the push
  buffer depth for push sessions).  Readings remain bit-identical to an
  uninterrupted run whenever nothing was dropped.

Inference reuse of :mod:`repro.parallel`: the per-shard batched GEMV is
:func:`repro.opm.meter.opm_dot`, the meter's one exact int64 kernel — a
pure function of ``(stacked toggles, int weights, intercept)`` with no
float path — so a :class:`~repro.parallel.pool.WorkerPool` with a
shared-memory plane can run groups in separate processes with
bit-identical results; :func:`serve_opm_task` is the module-level
(picklable) worker.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ServeError
from repro.obs.trace import NULL_TRACER
from repro.opm.meter import opm_dot
from repro.parallel.shm import ShmRef, attach_view
from repro.resilience.retry import HealthState
from repro.stream.session import StreamService, StreamSession

__all__ = [
    "Shard",
    "ShardRouter",
    "ShmGemvTask",
    "serve_opm_task",
]


@dataclass(frozen=True)
class ShmGemvTask:
    """GEMV envelope for pool dispatch.

    ``stacked`` names the request-arena region holding the fused toggle
    matrix and ``out`` a parent-preallocated result-arena region the
    worker writes the per-cycle integers into, so the toggles and the
    results never cross the pipe.  The model's int64 ``weights`` and
    ``intercept`` ride by value: 8 bytes per proxy.
    """

    stacked: ShmRef
    weights: np.ndarray
    intercept: int
    out: ShmRef


def serve_opm_task(task: ShmGemvTask) -> None:
    """Pool task for serve-tick inference over the shm data plane.

    Maps the task's descriptors to shared-memory views, runs
    :func:`~repro.opm.meter.opm_dot`, and writes the result through the
    ``out`` view (the numbers come back through the arena).  Runs
    identically in a worker or in the parent (serial fallback).
    """
    out = attach_view(task.out)
    out[:] = opm_dot(attach_view(task.stacked), task.weights, task.intercept)


class Shard:
    """One slice of the fleet: a stream service with health."""

    def __init__(self, index: int, tracer=None) -> None:
        self.index = index
        self.tracer = tracer or NULL_TRACER
        self.lane = f"shard-{index}"
        self.tracer.register_lane(self.lane)
        self.health = HealthState()
        self.respawns = 0
        #: Context of the most recent gather span, so the gateway can
        #: parent pooled GEMV worker spans under this shard's gather.
        self.last_gather_ctx = None
        self.service = self._fresh_service([])

    def _fresh_service(self, sessions: list[StreamSession]) -> StreamService:
        return StreamService(
            None, sessions, tracer=self.tracer, allow_empty=True
        )

    # -------------------------------------------------------------- #
    @property
    def sessions(self) -> list[StreamSession]:
        return self.service.sessions

    @property
    def accepting(self) -> bool:
        """Whether the router may place new sessions here."""
        return not self.health.failed

    def add_session(self, session: StreamSession) -> None:
        if not self.accepting:
            raise ServeError(
                f"shard {self.index} is draining (failed: "
                f"{self.health.reason})"
            )
        self.service.add_session(session)

    def kill(self, reason: str = "injected shard death") -> None:
        """Mark the shard dead; the next tick skips it, then respawns."""
        self.health.fail(reason)

    def respawn(self) -> None:
        """Replace the failed service, reattaching every session.

        Session state lives in the session objects, so the rebuilt
        service resumes exactly where the dead one stopped.
        """
        if not self.health.failed:
            return
        self.service = self._fresh_service(list(self.sessions))
        self.health.reset(f"respawned after: {self.health.reason}")
        self.respawns += 1

    # -------------------------------------------------------------- #
    # Tick phases (driven by the gateway): gather returns this shard's
    # pending inference groups; apply scatters results and closes the
    # shard's step.  A failed shard gathers nothing.
    # -------------------------------------------------------------- #
    def gather(self) -> list:
        if self.health.failed:
            return []
        with self.tracer.span(
            "serve.shard.gather", lane=self.lane, shard=self.index
        ) as sp:
            self.last_gather_ctx = sp.ctx if sp else None
            self.service.pump_all()
            groups = self.service.gather_pending()
            if sp:
                sp.set(groups=len(groups))
        return groups

    def apply(self, groups: list, results: list[np.ndarray], t0: float) -> bool:
        if self.health.failed:
            # Killed between gather and apply: the inferred results are
            # discarded, but the gathered blocks must not be — requeue
            # every session's in-flight blocks so the respawned shard
            # re-infers them.  Inference is a pure function of the
            # blocks, so the replay re-emits bit-identical readings
            # with zero sequence gaps (loss-free failover).
            for _meter, picks, _mats in groups:
                for sess, _blocks in picks:
                    sess.requeue_inflight()
            return any(not s.done for s in self.sessions)
        with self.tracer.span(
            "serve.shard.apply", lane=self.lane, shard=self.index
        ):
            for (_meter, picks, _mats), per_cycle in zip(groups, results):
                self.service.scatter(picks, per_cycle)
            return self.service.finish_step(t0)

    def stats(self) -> dict:
        return {
            "index": self.index,
            "health": self.health.as_dict(),
            "respawns": self.respawns,
            "n_sessions": len(self.sessions),
            "n_live": sum(1 for s in self.sessions if not s.done),
        }


class ShardRouter:
    """Stable (core id, model version) -> shard placement."""

    def __init__(self, shards: list[Shard]) -> None:
        if not shards:
            raise ServeError("router needs at least one shard")
        self.shards = shards

    @staticmethod
    def slot(core_id: str, version: str, n: int) -> int:
        """Deterministic hash slot — stable across processes/runs."""
        digest = hashlib.sha256(
            f"{core_id}|{version}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % n

    def shard_for(self, core_id: str, version: str) -> Shard:
        """The session's shard; failed shards drain to the next in ring
        order.  All shards failed is a hard error (nothing can accept)."""
        n = len(self.shards)
        start = self.slot(core_id, version, n)
        for k in range(n):
            shard = self.shards[(start + k) % n]
            if shard.accepting:
                return shard
        raise ServeError("every shard is failed; fleet cannot accept")

    def respawn_dead(self) -> int:
        """Respawn every failed shard; returns how many came back."""
        n = 0
        for shard in self.shards:
            if shard.health.failed:
                shard.respawn()
                n += 1
        return n
