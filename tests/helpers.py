"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.rtl import Netlist, Op, Simulator

#: The simulator's three code paths, for
#: ``@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)`` (the
#: ``engine`` fixture in ``conftest.py`` turns each into an engine
#: name): ``"packed"`` is the packed engine with the C-kernel loader
#: patched to ``None``, so its NumPy loop runs; ``"compiled"`` is the
#: packed engine on the C kernel (skipped where none loads); ``"uint8"``
#: is the reference engine.
SIM_PATHS = ("packed", "compiled", "uint8")


def bus_value(vals: np.ndarray, bus: list[int], batch: int = 0) -> int:
    """Interpret a bus (LSB first) as an unsigned integer."""
    return int(sum(int(vals[b, batch]) << i for i, b in enumerate(bus)))


def int_to_bits(value: int, width: int) -> list[int]:
    """LSB-first bit list of ``value``."""
    return [(value >> i) & 1 for i in range(width)]


def eval_inputs(nl: Netlist, assignments: dict[int, int]) -> np.ndarray:
    """Combinationally evaluate ``nl`` with input net -> bit assignments."""
    sim = Simulator(nl)
    input_ids = list(sim.schedule.input_ids)
    bits = np.zeros(len(input_ids), dtype=np.uint8)
    for net, v in assignments.items():
        bits[input_ids.index(net)] = v & 1
    return sim.comb_eval(bits)


def assign_bus(
    assignments: dict[int, int], bus: list[int], value: int
) -> None:
    for i, net in enumerate(bus):
        assignments[net] = (value >> i) & 1


def simple_counter_design(width: int = 4, gated: bool = False):
    """A small sequential design: a counter, optionally clock-gated.

    Returns (netlist, dict) exposing the interesting nets.
    """
    from repro.rtl.datapath import (
        connect_register_bus,
        incrementer,
        register_bus_uninit,
    )

    nl = Netlist("counter")
    en_in = nl.input_bit("en") if gated else None
    dom = nl.clock_domain("main", enable=en_in)
    with nl.scope("ctr"):
        regs = register_bus_uninit(nl, width, dom, name="q")
        inc = incrementer(nl, regs)
        connect_register_bus(nl, regs, inc)
    return nl, {"dom": dom, "regs": regs, "inc": inc, "en": en_in}


def random_netlist(seed: int, n_gates: int = 50) -> Netlist:
    """Random gate soup with registers, gated domains, and consts.

    Used by the differential simulator tests (vectorized vs reference
    interpreter, packed vs uint8 engine).
    """
    rng = np.random.default_rng(seed)
    nl = Netlist("rand")
    pool = [nl.input_bit(f"i{k}") for k in range(4)]
    pool.append(nl.const(0))
    pool.append(nl.const(1))
    dom_free = nl.clock_domain("free")
    dom_gated = nl.clock_domain("gated", enable=pool[0])
    gate_ops = [Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR, Op.XNOR,
                Op.NOT, Op.BUF, Op.MUX]
    for _ in range(n_gates):
        op = gate_ops[int(rng.integers(0, len(gate_ops)))]
        picks = [pool[int(rng.integers(0, len(pool)))] for _ in range(3)]
        if op in (Op.NOT, Op.BUF):
            net = nl.gate(op, picks[0])
        elif op == Op.MUX:
            net = nl.mux(picks[0], picks[1], picks[2])
        else:
            net = nl.gate(op, picks[0], picks[1])
        r = rng.random()
        if r < 0.10:
            net = nl.reg(net, dom_free, init=int(rng.integers(0, 2)))
        elif r < 0.20:
            net = nl.reg(net, dom_gated, init=int(rng.integers(0, 2)))
        pool.append(net)
    return nl
