"""Alerting over streamed OPM readings.

Both watchers are incremental: state carried across chunks, no
whole-trace arrays.

* :class:`DroopWatcher` — the §8.2 runtime use case.  Per-cycle delta-I
  (via :func:`repro.power.pdn.delta_current` semantics, computed with a
  carried previous-cycle current) feeds a droop-precursor detector with
  hysteresis, while the shared-rail voltage advances chunk by chunk
  through :meth:`PdnModel.step_chunk`.
* :class:`BudgetWatcher` — the §1 coarse-grained use case.  Completed
  T-cycle window readings are checked against a power budget and
  (optionally) fed straight into the existing
  :class:`~repro.flow.dvfs.DvfsGovernor` via its incremental ``step``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StreamError
from repro.power.pdn import PdnModel, PdnState

__all__ = ["DroopWatcher", "BudgetWatcher"]


class DroopWatcher:
    """Droop-precursor detection with hysteresis + incremental PDN.

    An alert is *raised* when the per-cycle current step exceeds
    ``enter_ma`` and *re-armed* only after delta-I falls below
    ``exit_ma`` (default ``exit_frac * enter_ma``).  Hovering at the
    enter threshold therefore produces one alert, not a storm.
    """

    def __init__(
        self,
        pdn: PdnModel | None = None,
        enter_ma: float = 2.0,
        exit_ma: float | None = None,
        exit_frac: float = 0.7,
    ) -> None:
        self.pdn = pdn or PdnModel()
        if enter_ma <= 0:
            raise StreamError("enter threshold must be positive")
        self.enter_ma = float(enter_ma)
        self.exit_ma = (
            float(exit_ma) if exit_ma is not None
            else self.enter_ma * float(exit_frac)
        )
        if self.exit_ma > self.enter_ma:
            raise StreamError(
                "exit threshold must not exceed enter threshold"
            )
        self._last_current: float | None = None
        self._pdn_state: PdnState | None = None
        self._active = False
        self.alerts = 0
        self.alert_cycles = 0
        self.min_voltage = float("inf")
        self.max_delta_i = 0.0

    @property
    def active(self) -> bool:
        return self._active

    def observe(self, power_mw: np.ndarray) -> int:
        """Process one chunk of per-cycle power; return new alert count."""
        power = np.asarray(power_mw, dtype=np.float64).ravel()
        if power.size == 0:
            return 0
        current = power / self.pdn.vdd  # mA
        # delta-I with the carried previous-cycle current; the first
        # cycle ever seen has no predecessor (0 by convention, matching
        # delta_current on a whole trace).
        prev = (
            current[0] if self._last_current is None
            else self._last_current
        )
        di = np.diff(current, prepend=prev)
        self._last_current = float(current[-1])
        self.max_delta_i = max(self.max_delta_i, float(di.max(initial=0.0)))

        if self._pdn_state is None:
            self._pdn_state = self.pdn.equilibrium_state(float(power[0]))
        v, self._pdn_state = self.pdn.step_chunk(power, self._pdn_state)
        self.min_voltage = min(self.min_voltage, float(v.min()))

        new_alerts = 0
        for x in di:
            if self._active:
                self.alert_cycles += 1
                if x < self.exit_ma:
                    self._active = False
            elif x > self.enter_ma:
                self._active = True
                self.alert_cycles += 1
                new_alerts += 1
        self.alerts += new_alerts
        return new_alerts


class BudgetWatcher:
    """Power-budget checks on completed T-cycle window readings."""

    def __init__(
        self,
        budget_mw: float,
        governor=None,
        start_level: int | None = None,
    ) -> None:
        if budget_mw <= 0:
            raise StreamError("power budget must be positive")
        self.budget_mw = float(budget_mw)
        self.governor = governor
        self.dvfs_state = (
            governor.start(start_level) if governor is not None else None
        )
        self.violations = 0

    def observe(self, window_mw: np.ndarray) -> int:
        """Check one chunk of window readings; return new violations."""
        wins = np.asarray(window_mw, dtype=np.float64).ravel()
        new = int((wins > self.budget_mw).sum())
        self.violations += new
        if self.governor is not None:
            for w in wins:
                self.governor.step(float(w), self.dvfs_state)
        return new
