"""Reference netlist interpreter: slow, obviously-correct semantics.

A direct, per-net, per-cycle Python evaluation of the same netlist
semantics the vectorized :class:`~repro.rtl.simulator.Simulator`
implements.  It exists purely as a differential-testing oracle: property
tests generate random netlists and stimuli and require bit-identical
toggle streams from both engines.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StimulusError
from repro.rtl.cells import Op
from repro.rtl.netlist import NO_NET, Netlist

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator:
    """Evaluate a netlist one net at a time (oracle for tests)."""

    def __init__(self, netlist: Netlist) -> None:
        netlist.validate()
        self.netlist = netlist

    # ------------------------------------------------------------------ #
    def _eval_net(self, net: int, values: dict[int, int]) -> int:
        nl = self.netlist
        op = nl.op_of(net)
        fanin = nl.fanin_of(net)
        if op == Op.CONST0:
            return 0
        if op == Op.CONST1:
            return 1
        if op in (Op.INPUT, Op.REG, Op.CLK):
            return values[net]  # set elsewhere
        a = values[fanin[0]]
        if op == Op.BUF:
            return a
        if op == Op.NOT:
            return a ^ 1
        b = values[fanin[1]]
        if op == Op.AND:
            return a & b
        if op == Op.OR:
            return a | b
        if op == Op.XOR:
            return a ^ b
        if op == Op.NAND:
            return (a & b) ^ 1
        if op == Op.NOR:
            return (a | b) ^ 1
        if op == Op.XNOR:
            return (a ^ b) ^ 1
        if op == Op.MUX:
            s, x, y = a, b, values[fanin[2]]
            return x if s else y
        raise AssertionError(f"unhandled op {op!r}")  # pragma: no cover

    def _eval_all(self, values: dict[int, int]) -> None:
        """Evaluate combinational nets in id order (ids are topological)."""
        nl = self.netlist
        for net in range(nl.n_nets):
            op = nl.op_of(net)
            if op not in (Op.INPUT, Op.REG, Op.CLK, Op.CONST0, Op.CONST1):
                values[net] = self._eval_net(net, values)
            elif op == Op.CONST0:
                values[net] = 0
            elif op == Op.CONST1:
                values[net] = 1

    def run(self, stimulus: np.ndarray) -> np.ndarray:
        """Simulate and return dense toggles, shape (cycles, n_nets)."""
        nl = self.netlist
        stim = np.asarray(stimulus, dtype=np.uint8)
        if stim.ndim != 2 or stim.shape[1] != len(nl.input_ids):
            raise StimulusError(
                f"stimulus shape {stim.shape} does not match "
                f"{len(nl.input_ids)} inputs"
            )
        input_ids = nl.input_ids
        reg_ids = nl.reg_ids
        reg_init = nl.reg_init_array()

        # Reset evaluation: regs at init, inputs 0.
        values: dict[int, int] = {}
        for rid in reg_ids:
            values[rid] = int(reg_init[rid])
        for iid in input_ids:
            values[iid] = 0
        for dom in nl.domains:
            values[dom.clk_net] = 0  # placeholder; set below
        self._eval_all(values)
        for dom in nl.domains:
            en = 1 if dom.enable is None else values[dom.enable]
            values[dom.clk_net] = en

        toggles = np.zeros((stim.shape[0], nl.n_nets), dtype=np.uint8)
        prev = dict(values)
        for cyc in range(stim.shape[0]):
            cur: dict[int, int] = {}
            # 1. register capture from previous-cycle values.
            for rid in reg_ids:
                dom = nl.domain_of_reg(rid)
                en = 1 if dom.enable is None else prev[dom.enable]
                d = nl.fanin_of(rid)[0]
                cur[rid] = prev[d] if en else prev[rid]
            # 2. stimulus.
            for k, iid in enumerate(input_ids):
                cur[iid] = int(stim[cyc, k])
            # 3. comb eval; readers of a CLK net see its previous-cycle
            # value.
            for dom in nl.domains:
                cur[dom.clk_net] = prev[dom.clk_net]
            self._eval_all(cur)
            # 4. clock values (latched enables).
            for dom in nl.domains:
                en = 1 if dom.enable is None else prev[dom.enable]
                cur[dom.clk_net] = en
            # 5. toggles.
            clk_nets = {d.clk_net for d in nl.domains}
            for net in range(nl.n_nets):
                if net in clk_nets:
                    toggles[cyc, net] = cur[net]
                else:
                    toggles[cyc, net] = cur[net] ^ prev[net]
            prev = cur
        return toggles
