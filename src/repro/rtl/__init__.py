"""RTL substrate: netlist IR, levelization, and a vectorized cycle simulator.

This package replaces the proprietary RTL + commercial simulator (VCS) used
by the paper.  A :class:`~repro.rtl.netlist.Netlist` holds single-bit nets
(gates, registers, inputs, gated-clock nets) with hierarchy tags; the
:class:`~repro.rtl.simulator.Simulator` evaluates it cycle-by-cycle
(optionally batched over independent stimuli) and records per-cycle toggle
bits — the features APOLLO trains on.
"""

from repro.rtl.cells import Op, CELL_LIBRARY, CellInfo
from repro.rtl.netlist import Netlist, ClockDomain
from repro.rtl.levelize import (
    levelize,
    LevelSchedule,
    PackedSchedule,
    compile_packed,
)
from repro.rtl.trace import (
    ToggleTrace,
    binary_toggles,
    pack_lanes,
    unpack_lanes,
)
from repro.rtl.simulator import Simulator, SimResult, RecordSpec, ENGINES

__all__ = [
    "Op",
    "CELL_LIBRARY",
    "CellInfo",
    "Netlist",
    "ClockDomain",
    "levelize",
    "LevelSchedule",
    "PackedSchedule",
    "compile_packed",
    "ToggleTrace",
    "binary_toggles",
    "pack_lanes",
    "unpack_lanes",
    "Simulator",
    "SimResult",
    "RecordSpec",
    "ENGINES",
]
