"""Multi-core power simulation over a shared power-delivery network.

§1 of the paper notes that signoff-grade power analysis "does not scale
for ... simulating the simultaneous execution of multiple CPU cores" —
one reason APOLLO exists.  The reproduction's vectorized simulator runs a
whole socket in one *batched* pass (one batch lane per core), so we can
study the multi-core effects the paper gestures at: aggregate power,
shared-PDN voltage droop, and the benefit of de-phasing synchronized
high-power bursts (the classic multi-core dI/dt alignment hazard, which
per-core OPM readings make visible at runtime).

The socket PDN scales the single-core model: ``n`` cores share a supply
whose decap grows with ``n`` while the per-core demand adds up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.parallel.tasks import (
    label_weights_for,
    pipeline_for,
    simulator_for,
)
from repro.power.pdn import PdnModel
from repro.rtl.simulator import RecordSpec

__all__ = ["MulticoreRun", "MulticoreSimulator"]


@dataclass
class MulticoreRun:
    """Result of one socket simulation."""

    per_core_power: np.ndarray  # (n_cores, cycles) mW
    voltage: np.ndarray  # shared-rail voltage (volts)
    vdd: float
    offsets: list[int]

    @property
    def n_cores(self) -> int:
        return int(self.per_core_power.shape[0])

    @property
    def total_power(self) -> np.ndarray:
        return self.per_core_power.sum(axis=0)

    @property
    def droop_mv(self) -> float:
        return float((self.vdd - self.voltage.min()) * 1e3)

    def alignment_factor(self) -> float:
        """Peak total power over the sum of per-core peaks (1.0 = fully
        aligned bursts; lower = de-phased)."""
        per_core_peak = self.per_core_power.max(axis=1).sum()
        return float(self.total_power.max() / per_core_peak)


class MulticoreSimulator:
    """Simulate ``n`` copies of one core design as a socket."""

    def __init__(
        self,
        core,
        n_cores: int,
        pdn: PdnModel | None = None,
    ) -> None:
        if n_cores < 1:
            raise ReproError("need at least one core")
        self.core = core
        self.n_cores = n_cores
        self._sim = simulator_for(core.netlist)
        self._weights = label_weights_for(core.netlist)
        base = pdn or PdnModel()
        # Shared rail: n cores' decap in parallel, same series R/L per
        # package model (pessimistic: no per-core LDOs).
        self.pdn = PdnModel(
            vdd=base.vdd,
            r_ohm=base.r_ohm / n_cores,
            l_henry=base.l_henry / n_cores,
            c_farad=base.c_farad * n_cores,
            freq_ghz=base.freq_ghz,
        )

    def run(
        self,
        programs: list,
        cycles: int,
        offsets: list[int] | None = None,
    ) -> MulticoreRun:
        """Run one program per core (lists shorter than n_cores repeat).

        ``offsets`` delays each core's workload start by that many cycles
        (idle NOP-like warm-up), modeling staggered thread launch — the
        de-phasing lever for synchronized power viruses.
        """
        if cycles <= 0:
            raise ReproError("cycles must be positive")
        progs = [
            programs[i % len(programs)] for i in range(self.n_cores)
        ]
        offsets = offsets or [0] * self.n_cores
        if len(offsets) != self.n_cores:
            raise ReproError("offsets length must equal n_cores")
        if any(o < 0 for o in offsets):
            raise ReproError("offsets must be non-negative")

        pipeline = pipeline_for(self.core.params)
        stims = []
        for prog, off in zip(progs, offsets):
            activity, _stats = pipeline.run(prog, cycles)
            stim = self.core.stimulus_for(activity)
            if off:
                # idle prefix: zero stimulus (nothing fetched, clocks
                # gated) then the workload, truncated to `cycles`.
                idle = np.zeros((off, stim.shape[1]), dtype=np.uint8)
                stim = np.vstack([idle, stim])[:cycles]
            stims.append(stim)
        res = self._sim.run(
            np.stack(stims),
            RecordSpec(accumulators={"p": self._weights}),
        )
        per_core = res.accum["p"]
        voltage = self.pdn.simulate(per_core.sum(axis=0))
        return MulticoreRun(
            per_core_power=per_core,
            voltage=voltage,
            vdd=self.pdn.vdd,
            offsets=list(offsets),
        )
