"""Ground-truth power analysis (the reproduction's signoff flow).

Implements Eq. (2) of the paper: per-cycle dynamic power is the sum of
``0.5 * V^2 * C`` over toggling nets, with capacitances back-annotated from
the synthetic library plus a fanout-based wire-load model.  On top of the
pure switching term the analyzer adds the components a commercial flow
reports and a linear proxy model cannot represent exactly:

* **clock-tree power** — each domain's CLK net carries the aggregate
  clock-pin capacitance of its registers (times a tree factor) and toggles
  twice per enabled cycle;
* **glitch power** — deep combinational nets toggle more than once per
  functional transition; modeled as a depth-proportional multiplier;
* **short-circuit power** — a fixed fraction of dynamic power;
* **leakage** — a constant background term (reported separately, and by
  default *excluded* from training labels, matching §4 of the paper).

The per-net energy weights are exposed as vectors so the simulator can
compute per-cycle power as a running dot product without materializing a
full toggle trace (essential for multi-hundred-thousand-cycle runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import PowerModelError
from repro.rtl.cells import CELL_LIBRARY, IS_EVAL, Op, op_table
from repro.rtl.levelize import levelize
from repro.rtl.netlist import Netlist
from repro.rtl.trace import ToggleTrace
from repro.power.liberty import DEFAULT_TECH, TechParams

__all__ = ["annotate_capacitance", "PowerAnalyzer", "PowerReport"]

_OUT_CAP = op_table(
    {op: cell.out_cap for op, cell in CELL_LIBRARY.items()}, np.float64
)
_IN_CAP = op_table(
    {op: cell.in_cap for op, cell in CELL_LIBRARY.items()}, np.float64
)


def annotate_capacitance(
    netlist: Netlist, tech: TechParams = DEFAULT_TECH
) -> np.ndarray:
    """Back-annotate per-net switched capacitance in fF.

    ``cap[i] = cell_out_cap + wire_base + per_fanout_wire * fanout
    + sum(sink input-pin caps)``; CLK nets additionally carry the clock-pin
    capacitance of every register in their domain times the tree factor.
    """
    ops = netlist.ops_array()
    cap = _OUT_CAP[ops]
    cap += tech.wire_cap_base

    fanin = netlist.fanin_array()
    # Sink pin caps: each cell's in_cap loads each of its fanin nets.
    in_caps = _IN_CAP[ops]
    for col in range(3):
        src = fanin[:, col]
        valid = src >= 0
        if valid.any():
            np.add.at(cap, src[valid], in_caps[valid])
    cap += tech.wire_cap_per_fanout * netlist.fanout_counts()

    # Clock nets: aggregate clock-pin load of the domain's registers.
    domains = netlist.reg_domain_array()
    n_regs = np.bincount(domains[domains >= 0], minlength=len(netlist.domains))
    for dom in netlist.domains:
        cap[dom.clk_net] += (
            tech.clk_pin_cap * int(n_regs[dom.index]) * tech.clk_tree_factor
        )
    return cap


@dataclass
class PowerReport:
    """Per-cycle power decomposition, all series in mW.

    ``total`` excludes leakage (switching power, the paper's modeling
    target); ``total_with_leakage`` adds the constant leakage term.
    """

    combinational: np.ndarray
    sequential: np.ndarray
    clock: np.ndarray
    glitch: np.ndarray
    short_circuit: np.ndarray
    leakage_mw: float
    by_unit: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def total(self) -> np.ndarray:
        return (
            self.combinational
            + self.sequential
            + self.clock
            + self.glitch
            + self.short_circuit
        )

    @property
    def total_with_leakage(self) -> np.ndarray:
        return self.total + self.leakage_mw

    def component_means(self) -> dict[str, float]:
        return {
            "combinational": float(self.combinational.mean()),
            "sequential": float(self.sequential.mean()),
            "clock": float(self.clock.mean()),
            "glitch": float(self.glitch.mean()),
            "short_circuit": float(self.short_circuit.mean()),
            "leakage": self.leakage_mw,
        }


class PowerAnalyzer:
    """Precomputed per-net energy weights for one netlist.

    The central artifact is :meth:`label_weights`: a float32 vector ``w``
    such that ``w . toggles[i]`` is the ground-truth switching power of
    cycle ``i`` in mW — directly usable as a simulator accumulator.
    """

    def __init__(
        self, netlist: Netlist, tech: TechParams = DEFAULT_TECH
    ) -> None:
        self.netlist = netlist
        self.tech = tech
        self.cap = annotate_capacitance(netlist, tech)
        sched = levelize(netlist)
        self._levels = sched.levels
        self._max_level = max(sched.max_level, 1)
        ops = netlist.ops_array()
        self._is_comb = IS_EVAL[ops]
        self._is_reg = ops == int(Op.REG)
        self._is_clk = ops == int(Op.CLK)
        self._is_input = ops == int(Op.INPUT)
        self._build_weights()

    # ------------------------------------------------------------------ #
    def _build_weights(self) -> None:
        tech = self.tech
        scale = tech.edge_energy_scale  # fJ per fF per toggle
        power_per_fj = tech.freq_ghz * 1e-3  # fJ/cycle -> mW
        base = self.cap * scale * power_per_fj

        self.w_comb = np.where(self._is_comb | self._is_input, base, 0.0)
        self.w_seq = np.where(self._is_reg, base, 0.0)
        # Clock nets toggle on both edges -> factor 2.
        self.w_clock = np.where(self._is_clk, 2.0 * base, 0.0)
        # Glitch: depth-proportional extra switching on combinational nets.
        depth_frac = self._levels / self._max_level
        self.w_glitch = np.where(
            self._is_comb, base * tech.glitch_alpha * depth_frac, 0.0
        )
        self.w_short = tech.short_circuit_frac * (
            self.w_comb + self.w_seq + self.w_clock
        )
        self.w_total = (
            self.w_comb + self.w_seq + self.w_clock
            + self.w_glitch + self.w_short
        )
        # Accumulator-ready form, shared by every caller: the simulator
        # feeds this straight into per-cycle GEMVs, so keep one contiguous
        # float32 copy instead of re-converting per call (read-only, since
        # all callers now alias it).
        self._label_w32 = np.ascontiguousarray(
            self.w_total, dtype=np.float32
        )
        self._label_w32.setflags(write=False)

    def label_weights(self) -> np.ndarray:
        """float32 weights: ``w . toggles`` = switching power in mW."""
        return self._label_w32

    def component_weights(self) -> dict[str, np.ndarray]:
        """Per-component weight vectors (float32), same convention."""
        return {
            "combinational": self.w_comb.astype(np.float32),
            "sequential": self.w_seq.astype(np.float32),
            "clock": self.w_clock.astype(np.float32),
            "glitch": self.w_glitch.astype(np.float32),
            "short_circuit": self.w_short.astype(np.float32),
        }

    def unit_weights(self) -> dict[str, np.ndarray]:
        """Total-weight vectors masked per functional unit."""
        units = self.netlist.units_array()
        out: dict[str, np.ndarray] = {}
        for unit in self.netlist.unit_names():
            mask = units == unit
            out[unit] = np.where(mask, self.w_total, 0.0).astype(np.float32)
        return out

    def leakage_mw(self) -> float:
        """Constant leakage power in mW."""
        ops = self.netlist.ops_array()
        leak_nw = sum(CELL_LIBRARY[Op(op)].leakage for op in ops)
        return float(leak_nw * self.tech.leakage_scale * 1e-6)

    # ------------------------------------------------------------------ #
    def power_from_trace(
        self, trace: ToggleTrace, batch: int = 0
    ) -> np.ndarray:
        """Per-cycle switching power (mW) from a recorded trace."""
        dense = trace.dense()[batch].astype(np.float64)
        return dense @ self.w_total

    def report(
        self,
        trace: ToggleTrace,
        batch: int = 0,
        with_units: bool = False,
    ) -> PowerReport:
        """Full power decomposition of a recorded trace."""
        if batch >= trace.batch:
            raise PowerModelError(
                f"batch {batch} out of range (trace batch {trace.batch})"
            )
        dense = trace.dense()[batch].astype(np.float64)
        by_unit: dict[str, np.ndarray] = {}
        if with_units:
            for unit, w in self.unit_weights().items():
                by_unit[unit] = dense @ w.astype(np.float64)
        return PowerReport(
            combinational=dense @ self.w_comb,
            sequential=dense @ self.w_seq,
            clock=dense @ self.w_clock,
            glitch=dense @ self.w_glitch,
            short_circuit=dense @ self.w_short,
            leakage_mw=self.leakage_mw(),
            by_unit=by_unit,
        )
