"""Cell library: net operations and their physical characteristics.

The reproduction needs a stand-in for the paper's commercial 7nm standard
cell library.  Only *relative* quantities matter for the experiments (area
overhead percentages, capacitance-weighted switching power), so the numbers
below are synthetic but ordered realistically: an XOR is larger and more
capacitive than a NAND, a flip-flop dominates combinational cells, and
clock-tree nets carry large capacitance.

Units are arbitrary-but-consistent: area in gate-equivalents (GE, NAND2=1),
capacitance in femtofarads, leakage in nanowatts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Mapping

import numpy as np

__all__ = [
    "Op", "CellInfo", "CELL_LIBRARY", "N_FANIN", "EVAL_OPS", "op_table",
    "IS_EVAL",
]


class Op(IntEnum):
    """Operation of a net.

    ``CONST0``/``CONST1`` are tie cells; ``INPUT`` nets are driven by the
    stimulus; ``CLK`` nets model a (possibly gated) clock-tree branch whose
    per-cycle toggle equals its domain's latched enable; all other ops are
    ordinary combinational cells or the flip-flop ``REG``.
    """

    CONST0 = 0
    CONST1 = 1
    INPUT = 2
    BUF = 3
    NOT = 4
    AND = 5
    OR = 6
    XOR = 7
    NAND = 8
    NOR = 9
    XNOR = 10
    MUX = 11  # fanin (sel, a, b): sel ? a : b
    REG = 12  # fanin (d,)
    CLK = 13  # clock-tree net of a domain; fanin () — driven by the domain


#: Number of fanin slots each op consumes (-1-padded in the netlist arrays).
N_FANIN: dict[Op, int] = {
    Op.CONST0: 0,
    Op.CONST1: 0,
    Op.INPUT: 0,
    Op.BUF: 1,
    Op.NOT: 1,
    Op.AND: 2,
    Op.OR: 2,
    Op.XOR: 2,
    Op.NAND: 2,
    Op.NOR: 2,
    Op.XNOR: 2,
    Op.MUX: 3,
    Op.REG: 1,
    Op.CLK: 0,
}

#: Combinational ops evaluated by the simulator's levelized schedule.
EVAL_OPS: tuple[Op, ...] = (
    Op.BUF,
    Op.NOT,
    Op.AND,
    Op.OR,
    Op.XOR,
    Op.NAND,
    Op.NOR,
    Op.XNOR,
    Op.MUX,
)


def op_table(values: Mapping[Op, object], dtype) -> np.ndarray:
    """``values`` as an array indexed by op code.

    Indexing the table with :meth:`~repro.rtl.netlist.Netlist.ops_array`
    looks every net up at once, where a per-net ``values[Op(code)]``
    would pay an enum call per net.
    """
    return np.array(
        [values[Op(code)] for code in range(len(Op))], dtype=dtype
    )


#: ``EVAL_OPS`` membership by op code: ``IS_EVAL[ops]`` masks the
#: combinational nets of an ops array.
IS_EVAL: np.ndarray = op_table({op: op in EVAL_OPS for op in Op}, bool)


@dataclass(frozen=True)
class CellInfo:
    """Physical characteristics of one cell type.

    Attributes
    ----------
    area:
        Cell area in gate equivalents (NAND2 = 1.0).
    out_cap:
        Intrinsic output capacitance in fF (before wire load).
    in_cap:
        Input pin capacitance in fF (adds to the *driving* net's load
        per fanout; the analyzer folds this into a per-fanout wire model).
    leakage:
        Static leakage in nW at nominal corner.
    """

    area: float
    out_cap: float
    in_cap: float
    leakage: float


CELL_LIBRARY: dict[Op, CellInfo] = {
    Op.CONST0: CellInfo(area=0.0, out_cap=0.0, in_cap=0.0, leakage=0.0),
    Op.CONST1: CellInfo(area=0.0, out_cap=0.0, in_cap=0.0, leakage=0.0),
    Op.INPUT: CellInfo(area=0.0, out_cap=0.3, in_cap=0.0, leakage=0.0),
    Op.BUF: CellInfo(area=0.8, out_cap=0.5, in_cap=0.9, leakage=0.6),
    Op.NOT: CellInfo(area=0.5, out_cap=0.4, in_cap=0.8, leakage=0.4),
    Op.AND: CellInfo(area=1.2, out_cap=0.5, in_cap=0.9, leakage=0.9),
    Op.OR: CellInfo(area=1.2, out_cap=0.5, in_cap=0.9, leakage=0.9),
    Op.XOR: CellInfo(area=2.2, out_cap=0.7, in_cap=1.3, leakage=1.6),
    Op.NAND: CellInfo(area=1.0, out_cap=0.45, in_cap=0.85, leakage=0.7),
    Op.NOR: CellInfo(area=1.0, out_cap=0.45, in_cap=0.85, leakage=0.7),
    Op.XNOR: CellInfo(area=2.2, out_cap=0.7, in_cap=1.3, leakage=1.6),
    Op.MUX: CellInfo(area=2.0, out_cap=0.6, in_cap=1.0, leakage=1.4),
    Op.REG: CellInfo(area=4.5, out_cap=0.6, in_cap=1.1, leakage=3.2),
    # CLK cells: a clock-tree branch; large effective capacitance is applied
    # by the analyzer proportionally to the number of registers it drives.
    Op.CLK: CellInfo(area=1.5, out_cap=1.0, in_cap=1.2, leakage=1.0),
}
