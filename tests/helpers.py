"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np

from repro.rtl import Netlist, Op, Simulator
from repro.rtl.cells import CELL_LIBRARY, EVAL_OPS, N_FANIN
from repro.rtl.levelize import EvalGroup, LevelSchedule
from repro.rtl.netlist import NO_NET

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

    Besides inputs and consts, the gates may read both domains' CLK
    nets and two feedback registers created with ``reg_uninit`` and
    wired with ``connect_reg`` after the logic exists (their D nets can
    be any pool net, a CLK net included).  Used by the differential
    simulator tests (vectorized vs reference interpreter, packed vs
    uint8 engine) and the compile-path oracles.
    """
    rng = np.random.default_rng(seed)
    nl = Netlist("rand")
    pool = [nl.input_bit(f"i{k}") for k in range(4)]
    pool.append(nl.const(0))
    pool.append(nl.const(1))
    dom_free = nl.clock_domain("free")
    dom_gated = nl.clock_domain("gated", enable=pool[0])
    pool += [dom_free.clk_net, dom_gated.clk_net]
    feedback = [
        nl.reg_uninit(dom, init=int(rng.integers(0, 2)))
        for dom in (dom_free, dom_gated)
    ]
    pool += feedback
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
    for reg in feedback:
        nl.connect_reg(reg, pool[int(rng.integers(0, len(pool)))])
    return nl


# ---------------------------------------------------------------------- #
# Compile-path oracles: the per-net loops the array code replaced
# ---------------------------------------------------------------------- #
def levelize_oracle(netlist: Netlist) -> LevelSchedule:
    """Per-net levelization: a forward pass in id order, then buckets
    keyed by (level, op).  Oracle for :func:`repro.rtl.levelize`."""
    netlist.validate()
    n = netlist.n_nets
    ops = netlist.ops_array()
    fanin = netlist.fanin_array() if n else np.zeros((0, 3), np.int32)

    levels = np.zeros(n, dtype=np.int32)
    eval_op_set = {int(o) for o in EVAL_OPS}
    for i in range(n):
        op = ops[i]
        if op not in eval_op_set:
            continue
        lv = 0
        for k in range(N_FANIN[Op(op)]):
            f = fanin[i, k]
            if f != NO_NET:
                lv = max(lv, int(levels[f]))
        levels[i] = lv + 1

    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        if ops[i] in eval_op_set:
            buckets.setdefault((int(levels[i]), int(ops[i])), []).append(i)
    groups: list[EvalGroup] = []
    for (lv, op_i) in sorted(buckets):
        ids = np.asarray(buckets[(lv, op_i)], dtype=np.int32)
        fa = fanin[ids]
        a = fa[:, 0].copy()
        b = np.where(fa[:, 1] == NO_NET, 0, fa[:, 1]).astype(np.int32)
        c = np.where(fa[:, 2] == NO_NET, 0, fa[:, 2]).astype(np.int32)
        groups.append(EvalGroup(op=Op(op_i), out=ids, a=a, b=b, c=c))

    reg_ids = np.asarray(
        [i for i in range(n) if ops[i] == Op.REG], dtype=np.int32
    )
    reg_d = fanin[reg_ids, 0] if reg_ids.size else np.zeros(0, np.int32)
    domains = netlist.reg_domain_array()
    reg_en = np.full(reg_ids.size, NO_NET, dtype=np.int32)
    for k, rid in enumerate(reg_ids):
        dom = netlist.domains[int(domains[rid])]
        if dom.enable is not None:
            reg_en[k] = dom.enable
    reg_init = (
        netlist.reg_init_array()[reg_ids]
        if reg_ids.size
        else np.zeros(0, np.uint8)
    )
    const_ids = np.asarray(
        [i for i in range(n) if ops[i] in (Op.CONST0, Op.CONST1)],
        dtype=np.int32,
    )
    return LevelSchedule(
        groups=groups,
        levels=levels,
        reg_out=reg_ids,
        reg_d=reg_d.astype(np.int32),
        reg_en=reg_en,
        reg_init=reg_init,
        clk_out=np.asarray(
            [d.clk_net for d in netlist.domains], dtype=np.int32
        ),
        clk_en=np.asarray(
            [NO_NET if d.enable is None else d.enable
             for d in netlist.domains],
            dtype=np.int32,
        ),
        input_ids=np.asarray(
            [i for i in range(n) if ops[i] == Op.INPUT], dtype=np.int32
        ),
        const_ids=const_ids,
        const_vals=np.asarray(
            [1 if ops[i] == Op.CONST1 else 0 for i in const_ids],
            dtype=np.uint8,
        ),
        max_level=int(levels.max()) if n else 0,
    )


def packed_alias_oracle(
    netlist: Netlist, schedule: LevelSchedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-net polarity and alias pass of the packed compile, in id
    order.  Returns ``(pol, root, alias_ids)``: storage polarity per
    net, each net's alias root, and the alias nets in id order."""
    n = schedule.n_nets
    ops = netlist.ops_array()
    fanin = netlist.fanin_array()
    is_clk = np.zeros(n, dtype=bool)
    is_clk[schedule.clk_out] = True
    pol = np.zeros(n, dtype=np.uint8)
    root = np.arange(n, dtype=np.int32)
    alias: list[int] = []
    for i in range(n):
        op = Op(int(ops[i]))
        if op in (Op.BUF, Op.NOT):
            a = int(fanin[i, 0])
            if is_clk[root[a]]:
                continue  # a copy of a CLK net stays evaluated
            root[i] = root[a]
            pol[i] = pol[a] ^ (1 if op == Op.NOT else 0)
            alias.append(i)
        elif op in (Op.NAND, Op.OR, Op.XNOR):
            pol[i] = 1
    return pol, root, np.asarray(alias, dtype=np.int32)


def annotate_capacitance_oracle(netlist: Netlist, tech) -> np.ndarray:
    """Per-net capacitance annotation with the same order of additions
    as :func:`repro.power.analyzer.annotate_capacitance`."""
    n = netlist.n_nets
    ops = netlist.ops_array()
    cap = np.zeros(n, dtype=np.float64)
    for i in range(n):
        cap[i] = CELL_LIBRARY[Op(ops[i])].out_cap
    cap += tech.wire_cap_base
    fanin = netlist.fanin_array()
    in_caps = np.array(
        [CELL_LIBRARY[Op(op)].in_cap for op in ops], dtype=np.float64
    )
    for col in range(3):
        src = fanin[:, col]
        valid = src >= 0
        if valid.any():
            np.add.at(cap, src[valid], in_caps[valid])
    cap += tech.wire_cap_per_fanout * netlist.fanout_counts()
    domains = netlist.reg_domain_array()
    for dom in netlist.domains:
        n_regs = int(
            np.count_nonzero((domains >= 0) & (domains == dom.index))
        )
        cap[dom.clk_net] += tech.clk_pin_cap * n_regs * tech.clk_tree_factor
    return cap


def dedup_columns_oracle(X: np.ndarray) -> np.ndarray:
    """One representative column per distinct column, by a per-column
    dict of key bytes: the reference for
    :func:`repro.core.selection._dedup_columns`."""
    is_binary = X.dtype == np.uint8 or (
        X.min() >= 0 and X.max() <= 1 and np.all(X == X.astype(np.uint8))
    )
    if is_binary:
        hashable = np.packbits(X.astype(np.uint8), axis=0)
    else:
        hashable = X.astype(np.float32, copy=True)
        hashable[hashable == 0.0] = 0.0  # -0.0 -> +0.0
        hashable[np.isnan(hashable)] = np.float32("nan")
    seen: dict[bytes, int] = {}
    reps = []
    for j in range(hashable.shape[1]):
        key = np.ascontiguousarray(hashable[:, j]).tobytes()
        if key not in seen:
            seen[key] = j
            reps.append(j)
    return np.asarray(reps, dtype=np.int64)


def opm_oracle(toggles, qmodel) -> np.ndarray:
    """Per-cycle OPM integers by a whole-matrix int64 matmul: the
    reference for :func:`repro.opm.meter.opm_dot`."""
    w = np.asarray(qmodel.int_weights).astype(np.int64)
    return np.asarray(toggles).astype(np.int64) @ w + qmodel.int_intercept


def assert_schedules_identical(got: LevelSchedule, want: LevelSchedule):
    """Field-for-field equality: values, dtypes, group order and ops."""
    fields = ("levels", "reg_out", "reg_d", "reg_en", "reg_init",
              "clk_out", "clk_en", "input_ids", "const_ids", "const_vals")
    for name in fields:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    assert got.max_level == want.max_level
    assert len(got.groups) == len(want.groups)
    for k, (g, w) in enumerate(zip(got.groups, want.groups)):
        assert g.op is w.op, k
        for name in ("out", "a", "b", "c"):
            ga, wa = getattr(g, name), getattr(w, name)
            assert ga.dtype == wa.dtype, (k, name)
            np.testing.assert_array_equal(ga, wa, err_msg=f"{k}.{name}")
