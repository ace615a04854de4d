"""Vectorized cycle-accurate netlist simulator.

Stands in for the paper's VCS RTL simulation (design-time flow) and, in
proxy-capture mode, for the Palladium emulator's selective signal tracing.

Semantics
---------
Each simulated cycle ``i``:

1. registers capture their D values computed during cycle ``i - 1``
   (clock-gated registers hold when their domain enable was 0);
2. ``INPUT`` nets take the cycle-``i`` stimulus;
3. combinational nets evaluate in levelized order;
4. ``CLK`` nets take their (latched) enable value;
5. the toggle vector is ``value[i] XOR value[i-1]`` for ordinary nets and
   the enable itself for ``CLK`` nets — a gated clock toggles exactly when
   its edge is enabled, matching §6 of the paper.

The simulator runs a *batch* of independent stimuli at once (one extra
array axis), which is what makes the GA's per-generation power evaluation
affordable in NumPy.

Recording options per run:

* full packed :class:`~repro.rtl.trace.ToggleTrace` (training data);
* dense toggles of selected columns only (emulator-assisted proxy flow);
* named *accumulators*: per-cycle dot products ``weights . toggles`` used
  by the power analyzer so long runs never materialize a full trace.

Engines
-------
The cycle loop itself is pluggable: each engine is a
:class:`~repro.rtl.backends.base.Backend` that compiles the netlist
once (constructor) and then runs batches.  See
:mod:`repro.rtl.backends` for the built-in engines and the registry;
all engines produce bit-identical results by contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError, StimulusError
from repro.obs.trace import NULL_TRACER
from repro.rtl import backends as _backends
from repro.rtl.backends.base import acc_reduce as _acc_reduce  # noqa: F401
from repro.rtl.levelize import LevelSchedule, PackedSchedule, levelize
from repro.rtl.netlist import Netlist
from repro.rtl.trace import ToggleTrace, binary_toggles

__all__ = ["RecordSpec", "SimResult", "Simulator", "ENGINES"]

#: Available simulation engines, in registry order.  ``"packed"``
#: (default) packs 64 batch lanes per uint64 word and evaluates fused
#: per-level micro-programs, in the C kernel wherever one compiles and
#: in a NumPy loop otherwise; ``"uint8"`` is the one-lane-per-byte
#: reference implementation.  Both produce bit-identical results.
ENGINES = _backends.backend_names()


@dataclass(frozen=True)
class RecordSpec:
    """What a simulation run should record.

    Attributes
    ----------
    full_trace:
        Record the packed toggle bits of every net.
    columns:
        Net ids whose toggle bits are recorded densely (or ``None``).
    accumulators:
        Name -> float32 weight vector (length ``n_nets``); each produces a
        per-cycle weighted toggle sum.
    """

    full_trace: bool = False
    columns: np.ndarray | None = None
    accumulators: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class SimResult:
    """Output of one :meth:`Simulator.run` call."""

    n_cycles: int
    batch: int
    trace: ToggleTrace | None
    columns: np.ndarray | None  # (batch, cycles, n_cols) uint8
    accum: dict[str, np.ndarray]  # name -> (batch, cycles) float64
    elapsed: float
    final_values: np.ndarray | None = None  # (n_nets, batch) uint8

    @property
    def cycles_per_second(self) -> float:
        """Simulated cycles (x batch) per wall second."""
        if self.elapsed <= 0:
            return float("inf")
        return self.n_cycles * self.batch / self.elapsed


class Simulator:
    """Compiled simulator for one netlist.

    Compilation (levelization, plus any engine-specific lowering such as
    the packed layout and the C kernel's op tables) happens once in the
    constructor; ``run`` may be called many times with different stimuli.

    Parameters
    ----------
    netlist:
        The design to simulate.
    engine:
        One of :data:`ENGINES`; ``"packed"`` is the default.  Every
        engine produces bit-identical :class:`SimResult` contents, so
        the choice only affects throughput.
    """

    def __init__(self, netlist: Netlist, engine: str = "packed") -> None:
        cls = _backends.get_backend(engine)
        if cls.requires_little_endian and not np.little_endian:
            cls = _backends.get_backend("uint8")  # pragma: no cover
        self.netlist = netlist
        self.engine = cls.name
        self.schedule: LevelSchedule = levelize(netlist)
        self.backend = cls(netlist, self.schedule)
        self.packed_schedule: PackedSchedule | None = (
            self.backend.packed_schedule
        )
        self._n = netlist.n_nets

    # ------------------------------------------------------------------ #
    def comb_eval(self, input_bits: np.ndarray) -> np.ndarray:
        """Evaluate combinational logic once with the given input values.

        Registers hold their init values.  Intended for functional tests of
        datapath blocks; returns the full value vector.

        Parameters
        ----------
        input_bits:
            0/1 array of shape ``(n_inputs,)`` or ``(n_inputs, batch)``.
            Any other value raises :class:`~repro.errors.StimulusError`
            (checked before any cast, as in :meth:`run`).

        Returns
        -------
        numpy.ndarray
            Net values, shape ``(n_nets, batch)``.
        """
        bits = binary_toggles(input_bits, StimulusError, "input_bits")
        if bits.ndim == 1:
            bits = bits[:, None]
        if bits.shape[0] != self.schedule.input_ids.size:
            raise StimulusError(
                f"got {bits.shape[0]} input bits, design has "
                f"{self.schedule.input_ids.size}"
            )
        vals = self.backend.initial_values(bits.shape[1])
        if self.schedule.input_ids.size:
            vals[self.schedule.input_ids] = bits
        _backends.eval_comb(self.schedule, vals)
        return vals

    # ------------------------------------------------------------------ #
    def run(
        self,
        stimulus: np.ndarray,
        record: RecordSpec | None = None,
        init_values: np.ndarray | None = None,
        tracer=None,
    ) -> SimResult:
        """Simulate ``stimulus`` and record per the :class:`RecordSpec`.

        Parameters
        ----------
        stimulus:
            0/1 array of shape ``(cycles, n_inputs)`` for a single run or
            ``(batch, cycles, n_inputs)`` for a batched run.  ``n_inputs``
            must equal the number of ``INPUT`` nets, in creation order.
            Any other value raises :class:`~repro.errors.StimulusError`
            (checked before any cast, by
            :func:`~repro.rtl.trace.binary_toggles`).
        record:
            What to record; defaults to a full packed trace.
            Accumulator weights must be finite once cast to float32, or
            :class:`~repro.errors.SimulationError` is raised.
        init_values:
            Full value vector from a previous run's ``final_values`` to
            continue a long simulation in chunks with identical results;
            ``None`` starts from reset.  Values other than 0/1 raise
            :class:`~repro.errors.StimulusError`.
        tracer:
            Optional :class:`~repro.obs.trace.Tracer`; the cycle loop
            becomes an ``rtl.sim.run`` span (engine, cycles, batch,
            throughput).  Default is the zero-overhead no-op tracer.
        """
        record = record or RecordSpec(full_trace=True)
        stim = binary_toggles(stimulus, StimulusError, "stimulus")
        if stim.ndim == 2:
            stim = stim[None]
        if stim.ndim != 3:
            raise StimulusError(
                f"stimulus must be 2-D or 3-D, got shape {stim.shape}"
            )
        sch = self.schedule
        batch, cycles, n_in = stim.shape
        if n_in != sch.input_ids.size:
            raise StimulusError(
                f"stimulus provides {n_in} input bits, design has "
                f"{sch.input_ids.size}"
            )

        cols = None
        if record.columns is not None:
            cols = np.asarray(record.columns, dtype=np.int64)
            if cols.size and (cols.min() < 0 or cols.max() >= self._n):
                raise SimulationError("record columns out of range")
        acc_weights: dict[str, np.ndarray] = {}
        for name, w in record.accumulators.items():
            w = np.asarray(w, dtype=np.float32)
            if w.shape != (self._n,):
                raise SimulationError(
                    f"accumulator {name!r} has shape {w.shape}, expected "
                    f"({self._n},)"
                )
            # After the cast, so a weight past float32's range is
            # caught too; ``inf * 0`` is NaN, and the engines may skip
            # the ``w * 0`` adds of nets that did not toggle.
            if not np.isfinite(w).all():
                raise SimulationError(
                    f"accumulator {name!r} has non-finite weights"
                )
            # Accumulate in float64: exact upcast of the canonical
            # float32 weights, and acc_reduce keeps each lane's sum
            # independent of the batch width.
            acc_weights[name] = w.astype(np.float64)

        # Output buffers.
        packed_out = None
        if record.full_trace:
            packed_out = np.empty(
                (cycles, (self._n + 7) // 8, batch), dtype=np.uint8
            )
        cols_out = None
        if cols is not None:
            cols_out = np.empty((batch, cycles, cols.size), dtype=np.uint8)
        acc_out = {
            name: np.empty((batch, cycles), dtype=np.float64)
            for name in acc_weights
        }

        if init_values is not None:
            init_values = binary_toggles(
                init_values, StimulusError, "init_values"
            )
            if init_values.shape != (self._n, batch):
                raise SimulationError(
                    f"init_values shape {init_values.shape} != "
                    f"({self._n}, {batch})"
                )

        with (tracer or NULL_TRACER).span(
            "rtl.sim.run",
            engine=self.engine,
            cycles=cycles,
            batch=batch,
        ) as sp:
            t0 = time.perf_counter()
            final_values = self.backend.run(
                stim, cols, acc_weights, packed_out, cols_out, acc_out,
                init_values,
            )
            elapsed = time.perf_counter() - t0
            if sp:
                sp.set(
                    lane_cycles_per_second=(
                        cycles * batch / elapsed if elapsed > 0
                        else float("inf")
                    )
                )

        trace = None
        if packed_out is not None:
            trace = ToggleTrace(
                packed=np.ascontiguousarray(
                    np.transpose(packed_out, (2, 0, 1))
                ),
                n_nets=self._n,
            )
        return SimResult(
            n_cycles=cycles,
            batch=batch,
            trace=trace,
            columns=cols_out,
            accum=acc_out,
            elapsed=elapsed,
            final_values=final_values,
        )
