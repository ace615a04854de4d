"""Deterministic circuit breaker for the model registry's disk I/O.

:class:`CircuitBreaker` is the classic three-state machine — *closed*
(calls pass through), *open* (calls fast-fail with
:class:`~repro.errors.BreakerOpenError`), *half-open* (exactly one
probe call is let through) — with one repo-specific twist: **time is
counted in calls, not seconds**.  Every rejected call while open ticks
the cooldown down by one; when it reaches zero the breaker moves to
half-open and admits a single probe.  A successful probe closes the
breaker; a failed probe re-opens it with the *next* cooldown from a
bounded, deterministic escalation schedule derived from a
:class:`~repro.resilience.retry.RetryPolicy` (``base -> base*mult ->
... -> cap``).  No wall clocks anywhere, so a seeded run trips, cools
and recovers at exactly the same call numbers every time — which is
what lets the chaos gates assert byte-identical output *through* a
breaker trip.

The breaker composes with the rest of the resilience layer rather than
duplicating it:

* an attached :class:`~repro.resilience.retry.HealthState` is degraded
  while the breaker is open and recovered when it closes, so routing
  layers that already watch health (the serve gateway) need no new
  wiring;
* an attached :class:`~repro.obs.flightrec.FlightRecorder` gets a
  ``breaker_open`` record per trip (and ``breaker_close`` on
  recovery), putting trips on the same postmortem timeline as shard
  deaths and worker respawns;
* ``resilience.breaker.*`` counters and a state gauge land in the
  shared :class:`~repro.obs.metrics.MetricsRegistry`.

:class:`~repro.errors.BreakerOpenError` is *not* retryable by
:class:`RetryPolicy` defaults — callers are expected to take their
fallback path (serving from memory, skipping a cache) instead of
spinning on an open breaker.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import BreakerOpenError, TransientFault
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.resilience.retry import HealthState, RetryPolicy

__all__ = ["CircuitBreaker", "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Default escalation schedule: cooldowns of 4, 8, ... capped at 64
#: rejected calls.  ``base_delay``/``multiplier``/``max_delay`` are
#: reinterpreted as call counts (the breaker never sleeps).
DEFAULT_COOLDOWN = RetryPolicy(
    max_attempts=6, base_delay=4.0, multiplier=2.0, max_delay=64.0,
)


class CircuitBreaker:
    """Closed -> open -> half-open breaker with call-counted cooldowns.

    Parameters
    ----------
    name:
        Label used in metrics (``resilience.breaker.<name>.*``),
        flight-recorder records and error messages.
    failure_threshold:
        Consecutive failures (of ``trip_on`` type) that trip the
        breaker from closed to open.
    cooldown:
        A :class:`RetryPolicy` whose *delay schedule* is read as the
        escalating sequence of open-state cooldowns, in rejected
        calls.  ``delays()[k]`` is the cooldown after the ``k``-th
        consecutive re-open; beyond the schedule the last entry
        repeats (the cap is sticky, the breaker never gives up).
    trip_on:
        Exception types that count as dependency failures.  Anything
        else propagates without touching breaker state — a
        ``ServeError`` from bad client input must not open the breaker
        protecting the worker pool.
    health:
        Optional :class:`HealthState` mirrored by the breaker
        (degraded while open/half-open, recovered on close).
    flightrec:
        Optional flight recorder receiving ``breaker_open`` /
        ``breaker_close`` records on the breaker's lane.
    """

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        cooldown: RetryPolicy = DEFAULT_COOLDOWN,
        trip_on: tuple[type[BaseException], ...] = (
            TransientFault,
            OSError,
        ),
        metrics: MetricsRegistry | None = None,
        health: HealthState | None = None,
        flightrec=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.trip_on = trip_on
        self.metrics = metrics if metrics is not None else default_registry()
        self.health = health
        self.flightrec = flightrec
        schedule = [max(1, int(d)) for d in cooldown.delays()]
        self._cooldowns = schedule or [1]
        self.state = BREAKER_CLOSED
        self.failures = 0  # consecutive failures while closed
        self.reopens = 0  # consecutive open episodes (escalation index)
        self.trips = 0  # lifetime trips (monotonic)
        self._remaining = 0  # rejected calls until half-open
        self._publish_state()

    # -------------------------------------------------------------- #
    @property
    def closed(self) -> bool:
        return self.state == BREAKER_CLOSED

    @property
    def open(self) -> bool:
        return self.state == BREAKER_OPEN

    @property
    def half_open(self) -> bool:
        return self.state == BREAKER_HALF_OPEN

    def _counter(self, leaf: str):
        return self.metrics.counter(f"resilience.breaker.{self.name}.{leaf}")

    def _publish_state(self) -> None:
        code = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}[
            self.state
        ]
        self.metrics.gauge(f"resilience.breaker.{self.name}.state").set(code)

    def cooldown_for(self, episode: int) -> int:
        """Cooldown (in rejected calls) for the given re-open episode."""
        idx = min(episode, len(self._cooldowns) - 1)
        return self._cooldowns[idx]

    # -------------------------------------------------------------- #
    def _trip(self, reason: str) -> None:
        self.state = BREAKER_OPEN
        self.trips += 1
        self._remaining = self.cooldown_for(self.reopens)
        self.reopens += 1
        self._counter("trips").inc()
        self._publish_state()
        if self.health is not None:
            self.health.degrade(f"breaker {self.name} open: {reason}")
        if self.flightrec is not None:
            self.flightrec.record(
                f"breaker.{self.name}",
                "breaker_open",
                reason=reason,
                cooldown_calls=self._remaining,
                episode=self.reopens,
            )

    def _close(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.reopens = 0
        self._counter("closes").inc()
        self._publish_state()
        if self.health is not None:
            self.health.recover(f"breaker {self.name} closed")
        if self.flightrec is not None:
            self.flightrec.record(
                f"breaker.{self.name}", "breaker_close",
            )

    def record_success(self) -> None:
        """Report a dependency success (closes a half-open breaker)."""
        if self.state == BREAKER_HALF_OPEN:
            self._close()
        elif self.state == BREAKER_CLOSED:
            self.failures = 0

    def record_failure(self, exc: BaseException | None = None) -> None:
        """Report a dependency failure (may trip or re-open)."""
        reason = (
            f"{type(exc).__name__}: {exc}" if exc is not None else "failure"
        )
        self._counter("failures").inc()
        if self.state == BREAKER_HALF_OPEN:
            # Failed probe: re-open with the escalated cooldown.
            self._trip(f"probe failed ({reason})")
        elif self.state == BREAKER_CLOSED:
            self.failures += 1
            if self.failures >= self.failure_threshold:
                self._trip(reason)

    def allow(self) -> bool:
        """Admission check without running a call.

        While open, each rejected check ticks the cooldown; when it
        expires the breaker moves to half-open and this check (the
        probe) is admitted.
        """
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            self._remaining -= 1
            if self._remaining > 0:
                self._counter("rejected").inc()
                return False
            self.state = BREAKER_HALF_OPEN
            self._publish_state()
            return True
        # Half-open: exactly one probe in flight at a time; breakers
        # here are used from single-threaded tick loops, so a second
        # call before the probe resolves means the probe itself
        # re-entered — reject it.
        self._counter("rejected").inc()
        return False

    def call(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under the breaker.

        Fast-fails with :class:`BreakerOpenError` while open; counts
        ``trip_on`` failures against the threshold and re-raises them
        unchanged; other exceptions pass through without touching
        breaker state.
        """
        if not self.allow():
            raise BreakerOpenError(
                f"breaker {self.name!r} is open "
                f"({self._remaining} rejected calls until probe)"
            )
        try:
            result = fn(*args, **kwargs)
        except self.trip_on as exc:
            self.record_failure(exc)
            raise
        self.record_success()
        return result

    def reset(self) -> None:
        """Operator reset: force closed and clear escalation state."""
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.reopens = 0
        self._remaining = 0
        self._publish_state()
        if self.health is not None:
            self.health.recover(f"breaker {self.name} reset")

    def as_dict(self) -> dict:
        """JSON-ready snapshot for manifests and gateway snapshots."""
        return {
            "name": self.name,
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "reopens": self.reopens,
            "remaining_cooldown": self._remaining,
            "cooldown_schedule": list(self._cooldowns),
        }
