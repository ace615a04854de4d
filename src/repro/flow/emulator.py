"""Emulator-assisted power analysis (Fig. 7c, §5 / §8.1).

The Palladium emulator's role in the paper is twofold: it runs long
benchmarks fast (millions of cycles in minutes), and — with APOLLO — it
only needs to dump the Q proxy signals instead of every net, collapsing a
>200 GB full-signal dump to ~1 GB.  The reproduction's "emulator" is the
same vectorized gate simulator in proxy-capture mode; the storage math is
exact and extrapolated to the paper's design/benchmark scale, and wall
time on emulation hardware is modeled from an emulation clock rate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.parallel.tasks import pipeline_for, simulator_for
from repro.rtl.simulator import RecordSpec

__all__ = ["StorageAccounting", "EmulatorFlow"]

#: The paper's Fig. 16 benchmark scale: 17M cycles of SPEC2006 hmmer on a
#: >5e5-signal design, traced on a Palladium Z1 within ~3 minutes.
PAPER_TRACE_CYCLES = 17_000_000
PAPER_N1_SIGNALS = 500_000


@dataclass
class StorageAccounting:
    """Dump-size arithmetic for full-signal vs proxy-only tracing."""

    n_cycles: int
    n_signals: int
    q: int

    @property
    def full_dump_bytes(self) -> int:
        """All signals, 1 bit per signal per cycle."""
        return self.n_cycles * ((self.n_signals + 7) // 8)

    @property
    def proxy_dump_bytes(self) -> int:
        return self.n_cycles * ((self.q + 7) // 8)

    @property
    def reduction_factor(self) -> float:
        return self.full_dump_bytes / max(1, self.proxy_dump_bytes)

    def at_paper_scale(self) -> "StorageAccounting":
        """The same Q applied to the paper's 17M-cycle, 5e5-signal trace."""
        return StorageAccounting(
            n_cycles=PAPER_TRACE_CYCLES,
            n_signals=PAPER_N1_SIGNALS,
            q=self.q,
        )


@dataclass
class EmulatorRun:
    """Output of one emulator-assisted tracing run."""

    proxy_toggles: np.ndarray  # (cycles, Q) uint8
    power: np.ndarray  # per-cycle APOLLO estimate (mW)
    storage: StorageAccounting
    sim_seconds: float
    inference_seconds: float
    emulated_wall_seconds: float


class EmulatorFlow:
    """Proxy-only long-trace capture + APOLLO inference."""

    def __init__(self, core, model, emulation_mhz: float = 1.5) -> None:
        if emulation_mhz <= 0:
            raise ReproError("emulation clock must be positive")
        self.core = core
        self.model = model
        self.emulation_mhz = emulation_mhz
        self._sim = simulator_for(core.netlist)

    def trace(
        self, program, cycles: int, chunk: int = 20000, throttle=None
    ) -> EmulatorRun:
        """Capture proxy toggles for a long benchmark and infer power.

        The run is chunked so memory stays bounded regardless of trace
        length (only Q columns are ever materialized).
        """
        if cycles <= 0:
            raise ReproError("cycles must be positive")
        params = self.core.params.with_throttle(throttle)
        activity, _stats = pipeline_for(params).run(program, cycles)
        stim = self.core.stimulus_for(activity)

        t0 = time.perf_counter()
        pieces = []
        state = None
        for start in range(0, cycles, chunk):
            res = self._sim.run(
                stim[start : start + chunk],
                RecordSpec(columns=self.model.proxies),
                init_values=state,
            )
            state = res.final_values
            pieces.append(res.columns[0])
        toggles = np.concatenate(pieces, axis=0)
        sim_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        power = self.model.predict(toggles.astype(np.float64))
        inference_seconds = time.perf_counter() - t0

        storage = StorageAccounting(
            n_cycles=cycles,
            n_signals=self.core.netlist.n_nets,
            q=self.model.q,
        )
        return EmulatorRun(
            proxy_toggles=toggles,
            power=power,
            storage=storage,
            sim_seconds=sim_seconds,
            inference_seconds=inference_seconds,
            emulated_wall_seconds=cycles / (self.emulation_mhz * 1e6),
        )
