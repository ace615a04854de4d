"""Shared helpers for the test suite."""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import IsaError, ReproError, StimulusError
from repro.isa.instructions import (
    N_VREGS,
    N_XREGS,
    WORD_MASK,
    IClass,
    Opcode,
)
from repro.isa.program import DEFAULT_MIX, InstructionMix, Program
from repro.rtl import Netlist, Op, Simulator
from repro.rtl.cells import CELL_LIBRARY, EVAL_OPS, N_FANIN
from repro.rtl.levelize import EvalGroup, LevelSchedule
from repro.rtl.netlist import NO_NET
from repro.uarch.caches import Cache
from repro.uarch.events import ActivityTrace, stimulus_schema
from repro.uarch.params import CoreParams
from repro.uarch.pipeline import PipelineStats

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


# ---------------------------------------------------------------------- #
# ISA oracle: the per-opcode code that the table in
# ``repro.isa.instructions`` replaced, kept verbatim (renamed) --
# instruction validation and dependence facts, semantics, assembler and
# program generator.
# ---------------------------------------------------------------------- #

CLASS_OF_ORACLE: dict[Opcode, IClass] = {
    Opcode.NOP: IClass.NOP,
    Opcode.MOVI: IClass.ALU,
    Opcode.ADD: IClass.ALU,
    Opcode.SUB: IClass.ALU,
    Opcode.AND: IClass.ALU,
    Opcode.OR: IClass.ALU,
    Opcode.XOR: IClass.ALU,
    Opcode.SHL: IClass.ALU,
    Opcode.SHR: IClass.ALU,
    Opcode.MUL: IClass.MUL,
    Opcode.MAC: IClass.MUL,
    Opcode.VADD: IClass.VEC,
    Opcode.VMUL: IClass.VMUL,
    Opcode.VMAC: IClass.VMUL,
    Opcode.LD: IClass.MEM,
    Opcode.ST: IClass.MEM,
    Opcode.VLD: IClass.VMEM,
    Opcode.VST: IClass.VMEM,
    Opcode.BEQ: IClass.BRANCH,
    Opcode.BNE: IClass.BRANCH,
}

@dataclass(frozen=True)
class InstructionOracle:
    """One decoded instruction.

    ``dst``/``src1``/``src2`` index the scalar or vector register file
    depending on the opcode; ``imm`` is a signed immediate (branch offset,
    address offset, or MOVI payload).
    """

    opcode: Opcode
    dst: int = 0
    src1: int = 0
    src2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for field_name, v in (
            ("dst", self.dst),
            ("src1", self.src1),
            ("src2", self.src2),
        ):
            limit = N_VREGS if field_name in self.vector_fields else N_XREGS
            if not (0 <= v < limit):
                raise IsaError(
                    f"{self.opcode.name}: register field {field_name}={v} "
                    f"out of range (limit {limit})"
                )
        if not (-(1 << 11) <= self.imm < (1 << 11)):
            raise IsaError(
                f"{self.opcode.name}: immediate {self.imm} out of 12-bit "
                "signed range"
            )

    @property
    def iclass(self) -> IClass:
        return CLASS_OF_ORACLE[self.opcode]

    @property
    def vector_fields(self) -> frozenset[str]:
        """Names of register fields indexing the vector register file."""
        op = self.opcode
        if op in (Opcode.VADD, Opcode.VMUL, Opcode.VMAC):
            return frozenset(("dst", "src1", "src2"))
        if op == Opcode.VLD:
            return frozenset(("dst",))
        if op == Opcode.VST:
            return frozenset(("src2",))
        return frozenset()

    @property
    def uses_vector_regs(self) -> bool:
        return bool(self.vector_fields)

    def encode(self) -> int:
        """32-bit encoding: op[31:24] d[23:20] s1[19:16] s2[15:12] imm[11:0]."""
        imm12 = self.imm & 0xFFF
        return (
            (int(self.opcode) << 24)
            | ((self.dst & 0xF) << 20)
            | ((self.src1 & 0xF) << 16)
            | ((self.src2 & 0xF) << 12)
            | imm12
        )

    @classmethod
    def decode(cls, word: int) -> "InstructionOracle":
        op_val = (word >> 24) & 0xFF
        try:
            op = Opcode(op_val)
        except ValueError as exc:
            raise IsaError(f"bad opcode byte {op_val:#x}") from exc
        imm = word & 0xFFF
        if imm >= (1 << 11):
            imm -= 1 << 12
        return cls(
            opcode=op,
            dst=(word >> 20) & 0xF,
            src1=(word >> 16) & 0xF,
            src2=(word >> 12) & 0xF,
            imm=imm,
        )

    @property
    def reads_scalar(self) -> list[int]:
        """Scalar register reads (for dependence tracking)."""
        op = self.opcode
        if op in (Opcode.NOP, Opcode.MOVI):
            return []
        if op in (Opcode.LD, Opcode.VLD):
            return [self.src1]
        if op == Opcode.ST:
            return [self.src1, self.src2]
        if op == Opcode.VST:
            return [self.src1]
        if op in (Opcode.BEQ, Opcode.BNE):
            return [self.src1, self.src2]
        if op == Opcode.MAC:
            return [self.dst, self.src1, self.src2]
        if self.uses_vector_regs:
            return []
        return [self.src1, self.src2]

    @property
    def reads_vector(self) -> list[int]:
        op = self.opcode
        if op in (Opcode.VADD, Opcode.VMUL):
            return [self.src1, self.src2]
        if op == Opcode.VMAC:
            return [self.dst, self.src1, self.src2]
        if op == Opcode.VST:
            return [self.src2]
        return []

    @property
    def writes_scalar(self) -> int | None:
        op = self.opcode
        if op in (
            Opcode.MOVI,
            Opcode.ADD,
            Opcode.SUB,
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.SHL,
            Opcode.SHR,
            Opcode.MUL,
            Opcode.MAC,
            Opcode.LD,
        ):
            return self.dst if self.dst != 0 else None
        return None

    @property
    def writes_vector(self) -> int | None:
        if self.opcode in (Opcode.VADD, Opcode.VMUL, Opcode.VMAC, Opcode.VLD):
            return self.dst
        return None

    def __str__(self) -> str:
        return disassemble_oracle(self)


_ADDR_MASK_ORACLE = 0xFFFF


def default_memory_value_oracle(addr: int) -> int:
    """Deterministic pseudo-random contents of an untouched address."""
    x = (addr * 2654435761) & 0xFFFFFFFF
    x ^= x >> 13
    return (x * 0x9E3779B1 >> 16) & WORD_MASK


@dataclass
class ExecResultOracle:
    """Values produced by executing one instruction.

    ``addresses`` lists the word addresses touched (loads and stores), used
    by the pipeline's cache model; ``operands`` and ``results`` carry the
    datapath values that later drive the RTL stimulus.
    """

    operands: tuple[int, ...] = ()
    results: tuple[int, ...] = ()
    addresses: tuple[int, ...] = ()
    vector_operands: tuple[tuple[int, ...], ...] = ()
    vector_results: tuple[int, ...] = ()
    branch_taken: bool = False
    next_pc: int | None = None


@dataclass
class ArchStateOracle:
    """Architectural state: scalar regs, vector regs, sparse memory, PC."""

    lanes: int = 4
    pc: int = 0
    xregs: list[int] = field(default_factory=lambda: [0] * N_XREGS)
    vregs: list[list[int]] = field(default_factory=list)
    memory: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.vregs:
            self.vregs = [
                [
                    default_memory_value_oracle(97 * r + lane)
                    for lane in range(self.lanes)
                ]
                for r in range(N_VREGS)
            ]

    # ------------------------------------------------------------------ #
    def read_x(self, idx: int) -> int:
        return 0 if idx == 0 else self.xregs[idx]

    def write_x(self, idx: int, value: int) -> None:
        if idx != 0:
            self.xregs[idx] = value & WORD_MASK

    def read_mem(self, addr: int) -> int:
        addr &= _ADDR_MASK_ORACLE
        return self.memory.get(addr, default_memory_value_oracle(addr))

    def write_mem(self, addr: int, value: int) -> None:
        self.memory[addr & _ADDR_MASK_ORACLE] = value & WORD_MASK

    # ------------------------------------------------------------------ #
    def execute(
        self, inst: InstructionOracle, program_len: int
    ) -> ExecResultOracle:
        """Execute ``inst`` at the current PC, advancing the PC.

        Branch targets and fall-through wrap modulo ``program_len`` so any
        instruction sequence runs indefinitely (benchmarks are replayed for
        a fixed cycle budget, as in the paper's micro-benchmark traces).
        """
        if program_len <= 0:
            raise IsaError("program_len must be positive")
        op = inst.opcode
        res = ExecResultOracle()
        nxt = (self.pc + 1) % program_len

        if op == Opcode.NOP:
            pass
        elif op == Opcode.MOVI:
            v = inst.imm & WORD_MASK
            res = ExecResultOracle(operands=(inst.imm,), results=(v,))
            self.write_x(inst.dst, v)
        elif op in (
            Opcode.ADD,
            Opcode.SUB,
            Opcode.AND,
            Opcode.OR,
            Opcode.XOR,
            Opcode.SHL,
            Opcode.SHR,
        ):
            a = self.read_x(inst.src1)
            b = self.read_x(inst.src2)
            v = _scalar_alu_oracle(op, a, b)
            res = ExecResultOracle(operands=(a, b), results=(v,))
            self.write_x(inst.dst, v)
        elif op == Opcode.MUL:
            a = self.read_x(inst.src1)
            b = self.read_x(inst.src2)
            v = (a * b) & WORD_MASK
            res = ExecResultOracle(operands=(a, b), results=(v,))
            self.write_x(inst.dst, v)
        elif op == Opcode.MAC:
            a = self.read_x(inst.src1)
            b = self.read_x(inst.src2)
            acc = self.read_x(inst.dst)
            v = (acc + a * b) & WORD_MASK
            res = ExecResultOracle(operands=(a, b, acc), results=(v,))
            self.write_x(inst.dst, v)
        elif op in (Opcode.VADD, Opcode.VMUL, Opcode.VMAC):
            va = self.vregs[inst.src1]
            vb = self.vregs[inst.src2]
            vd = self.vregs[inst.dst]
            out = []
            for lane in range(self.lanes):
                if op == Opcode.VADD:
                    out.append((va[lane] + vb[lane]) & WORD_MASK)
                elif op == Opcode.VMUL:
                    out.append((va[lane] * vb[lane]) & WORD_MASK)
                else:
                    out.append(
                        (vd[lane] + va[lane] * vb[lane]) & WORD_MASK
                    )
            res = ExecResultOracle(
                vector_operands=(tuple(va), tuple(vb)),
                vector_results=tuple(out),
            )
            self.vregs[inst.dst] = out
        elif op == Opcode.LD:
            addr = (self.read_x(inst.src1) + inst.imm) & _ADDR_MASK_ORACLE
            v = self.read_mem(addr)
            res = ExecResultOracle(
                operands=(addr,), results=(v,), addresses=(addr,)
            )
            self.write_x(inst.dst, v)
        elif op == Opcode.ST:
            addr = (self.read_x(inst.src1) + inst.imm) & _ADDR_MASK_ORACLE
            v = self.read_x(inst.src2)
            res = ExecResultOracle(
                operands=(addr, v), results=(), addresses=(addr,)
            )
            self.write_mem(addr, v)
        elif op == Opcode.VLD:
            base = (self.read_x(inst.src1) + inst.imm) & _ADDR_MASK_ORACLE
            vals = [
                self.read_mem(base + lane) for lane in range(self.lanes)
            ]
            res = ExecResultOracle(
                operands=(base,),
                addresses=tuple(
                    (base + lane) & _ADDR_MASK_ORACLE
                    for lane in range(self.lanes)
                ),
                vector_results=tuple(vals),
            )
            self.vregs[inst.dst] = vals
        elif op == Opcode.VST:
            base = (self.read_x(inst.src1) + inst.imm) & _ADDR_MASK_ORACLE
            vals = self.vregs[inst.src2]
            for lane in range(self.lanes):
                self.write_mem(base + lane, vals[lane])
            res = ExecResultOracle(
                operands=(base,),
                addresses=tuple(
                    (base + lane) & _ADDR_MASK_ORACLE
                    for lane in range(self.lanes)
                ),
                vector_operands=(tuple(vals),),
            )
        elif op in (Opcode.BEQ, Opcode.BNE):
            a = self.read_x(inst.src1)
            b = self.read_x(inst.src2)
            taken = (a == b) if op == Opcode.BEQ else (a != b)
            if taken:
                nxt = (self.pc + inst.imm) % program_len
            res = ExecResultOracle(operands=(a, b), branch_taken=taken)
        else:  # pragma: no cover - exhaustive over Opcode
            raise IsaError(f"unimplemented opcode {op!r}")

        self.pc = nxt
        if res.next_pc is None:
            res.next_pc = nxt
        return res


def _scalar_alu_oracle(op: Opcode, a: int, b: int) -> int:
    if op == Opcode.ADD:
        return (a + b) & WORD_MASK
    if op == Opcode.SUB:
        return (a - b) & WORD_MASK
    if op == Opcode.AND:
        return a & b
    if op == Opcode.OR:
        return a | b
    if op == Opcode.XOR:
        return a ^ b
    if op == Opcode.SHL:
        return (a << (b & 0xF)) & WORD_MASK
    if op == Opcode.SHR:
        return (a >> (b & 0xF)) & WORD_MASK
    raise IsaError(f"{op!r} is not a scalar ALU op")


_REG_ORACLE = re.compile(r"^([xv])(\d+)$")
_MEM_ORACLE = re.compile(r"^(-?\d+)\((x\d+)\)$")


def _parse_reg_oracle(token: str, want: str) -> int:
    m = _REG_ORACLE.match(token)
    if not m or m.group(1) != want:
        raise IsaError(f"expected {want}-register, got {token!r}")
    return int(m.group(2))


def _parse_imm_oracle(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise IsaError(f"bad immediate {token!r}") from exc


def assemble_line_oracle(line: str) -> InstructionOracle | None:
    """Assemble one line; returns ``None`` for blank/comment lines."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    parts = re.split(r"[,\s]+", text)
    mnemonic, args = parts[0].lower(), parts[1:]
    try:
        op = Opcode[mnemonic.upper()]
    except KeyError as exc:
        raise IsaError(f"unknown mnemonic {mnemonic!r}") from exc

    if op == Opcode.NOP:
        _expect_oracle(args, 0, text)
        return InstructionOracle(op)
    if op == Opcode.MOVI:
        _expect_oracle(args, 2, text)
        return InstructionOracle(op, dst=_parse_reg_oracle(args[0], "x"),
                                 imm=_parse_imm_oracle(args[1]))
    if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SHL, Opcode.SHR, Opcode.MUL, Opcode.MAC):
        _expect_oracle(args, 3, text)
        return InstructionOracle(
            op,
            dst=_parse_reg_oracle(args[0], "x"),
            src1=_parse_reg_oracle(args[1], "x"),
            src2=_parse_reg_oracle(args[2], "x"),
        )
    if op in (Opcode.VADD, Opcode.VMUL, Opcode.VMAC):
        _expect_oracle(args, 3, text)
        return InstructionOracle(
            op,
            dst=_parse_reg_oracle(args[0], "v"),
            src1=_parse_reg_oracle(args[1], "v"),
            src2=_parse_reg_oracle(args[2], "v"),
        )
    if op in (Opcode.LD, Opcode.VLD):
        _expect_oracle(args, 2, text)
        imm, base = _parse_mem_oracle(args[1])
        kind = "x" if op == Opcode.LD else "v"
        return InstructionOracle(
            op, dst=_parse_reg_oracle(args[0], kind), src1=base, imm=imm
        )
    if op in (Opcode.ST, Opcode.VST):
        _expect_oracle(args, 2, text)
        imm, base = _parse_mem_oracle(args[1])
        kind = "x" if op == Opcode.ST else "v"
        return InstructionOracle(
            op, src2=_parse_reg_oracle(args[0], kind), src1=base, imm=imm
        )
    if op in (Opcode.BEQ, Opcode.BNE):
        _expect_oracle(args, 3, text)
        return InstructionOracle(
            op,
            src1=_parse_reg_oracle(args[0], "x"),
            src2=_parse_reg_oracle(args[1], "x"),
            imm=_parse_imm_oracle(args[2]),
        )
    raise IsaError(f"unhandled opcode {op!r}")  # pragma: no cover


def _expect_oracle(args: list[str], n: int, text: str) -> None:
    if len(args) != n:
        raise IsaError(f"{text!r}: expected {n} operands, got {len(args)}")


def _parse_mem_oracle(token: str) -> tuple[int, int]:
    m = _MEM_ORACLE.match(token)
    if not m:
        raise IsaError(f"bad memory operand {token!r} (want imm(xN))")
    return int(m.group(1)), _parse_reg_oracle(m.group(2), "x")


def assemble_oracle(source: str) -> list[InstructionOracle]:
    """Assemble multi-line source into an instruction list."""
    out = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            inst = assemble_line_oracle(line)
        except IsaError as exc:
            raise IsaError(f"line {lineno}: {exc}") from exc
        if inst is not None:
            out.append(inst)
    return out


def disassemble_oracle(inst: InstructionOracle) -> str:
    """Render an instruction back to assembly text."""
    op = inst.opcode
    name = op.name.lower()
    if op == Opcode.NOP:
        return "nop"
    if op == Opcode.MOVI:
        return f"movi x{inst.dst}, {inst.imm}"
    if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SHL, Opcode.SHR, Opcode.MUL, Opcode.MAC):
        return f"{name} x{inst.dst}, x{inst.src1}, x{inst.src2}"
    if op in (Opcode.VADD, Opcode.VMUL, Opcode.VMAC):
        return f"{name} v{inst.dst}, v{inst.src1}, v{inst.src2}"
    if op == Opcode.LD:
        return f"ld x{inst.dst}, {inst.imm}(x{inst.src1})"
    if op == Opcode.VLD:
        return f"vld v{inst.dst}, {inst.imm}(x{inst.src1})"
    if op == Opcode.ST:
        return f"st x{inst.src2}, {inst.imm}(x{inst.src1})"
    if op == Opcode.VST:
        return f"vst v{inst.src2}, {inst.imm}(x{inst.src1})"
    if op in (Opcode.BEQ, Opcode.BNE):
        return f"{name} x{inst.src1}, x{inst.src2}, {inst.imm}"
    raise IsaError(f"unhandled opcode {op!r}")  # pragma: no cover


_CLASS_OPCODES_ORACLE: dict[IClass, tuple[Opcode, ...]] = {
    IClass.NOP: (Opcode.NOP,),
    IClass.ALU: (
        Opcode.ADD,
        Opcode.SUB,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.MOVI,
    ),
    IClass.MUL: (Opcode.MUL, Opcode.MAC),
    IClass.VEC: (Opcode.VADD,),
    IClass.VMUL: (Opcode.VMUL, Opcode.VMAC),
    IClass.MEM: (Opcode.LD, Opcode.ST),
    IClass.VMEM: (Opcode.VLD, Opcode.VST),
    IClass.BRANCH: (Opcode.BEQ, Opcode.BNE),
}


def random_program_oracle(
    rng: np.random.Generator,
    length: int,
    mix: InstructionMix = DEFAULT_MIX,
    name: str = "random",
) -> Program:
    """Generate a random (valid, looping) program from a mix.

    A short MOVI preamble seeds base registers with addresses inside the
    mix's memory region so loads/stores have controlled locality.
    """
    if length < 4:
        raise IsaError("random programs need length >= 4")
    classes, probs = mix.normalized()
    insts: list[InstructionOracle] = []

    base_regs = (13, 14, 15)
    region = max(8, mix.mem_region_words)
    for i, reg in enumerate(base_regs):
        insts.append(
            InstructionOracle(
                Opcode.MOVI,
                dst=reg,
                imm=int(rng.integers(0, min(region, 2048))),
            )
        )

    mem_offset = 0
    while len(insts) < length:
        iclass = classes[int(rng.choice(len(classes), p=probs))]
        op = _CLASS_OPCODES_ORACLE[iclass][
            int(rng.integers(0, len(_CLASS_OPCODES_ORACLE[iclass])))
        ]
        insts.append(random_instruction_oracle(rng, op, mix, mem_offset))
        if iclass in (IClass.MEM, IClass.VMEM):
            mem_offset = (mem_offset + mix.mem_stride) % max(
                1, mix.mem_region_words
            )
    return Program(name=name, instructions=tuple(insts[:length]))


def random_instruction_oracle(
    rng: np.random.Generator,
    op: Opcode,
    mix: InstructionMix,
    mem_offset: int,
) -> InstructionOracle:
    xr = lambda: int(rng.integers(0, N_XREGS))  # noqa: E731
    vr = lambda: int(rng.integers(0, N_VREGS))  # noqa: E731
    if op == Opcode.NOP:
        return InstructionOracle(op)
    if op == Opcode.MOVI:
        return InstructionOracle(
            op, dst=xr(), imm=int(rng.integers(-2048, 2048))
        )
    if op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SHL, Opcode.SHR, Opcode.MUL, Opcode.MAC):
        return InstructionOracle(op, dst=xr(), src1=xr(), src2=xr())
    if op in (Opcode.VADD, Opcode.VMUL, Opcode.VMAC):
        return InstructionOracle(op, dst=vr(), src1=vr(), src2=vr())
    if op in (Opcode.LD, Opcode.ST, Opcode.VLD, Opcode.VST):
        base = int(rng.choice((13, 14, 15)))
        imm = min(2047, mem_offset)
        if op in (Opcode.LD, Opcode.VLD):
            dst = xr() if op == Opcode.LD else vr()
            return InstructionOracle(op, dst=dst, src1=base, imm=imm)
        data = xr() if op == Opcode.ST else vr()
        return InstructionOracle(op, src1=base, src2=data, imm=imm)
    if op in (Opcode.BEQ, Opcode.BNE):
        backward = rng.random() < mix.branch_backward_frac
        dist = int(rng.integers(1, 6))
        return InstructionOracle(
            op, src1=xr(), src2=xr(), imm=-dist if backward else dist
        )
    raise IsaError(f"unhandled opcode {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------- #
# Pipeline oracle: the per-channel ``trace.set`` model that
# ``repro.uarch.pipeline.Pipeline`` replaced, kept verbatim (renamed
# class) together with its helpers and the per-channel stimulus encoder.
# It fetches, executes and decodes through the ISA oracle above, never
# through the library's ISA.
# ---------------------------------------------------------------------- #

_ALU_OPCODE_CODE = {
    Opcode.ADD: 0,
    Opcode.SUB: 1,
    Opcode.AND: 2,
    Opcode.OR: 3,
    Opcode.XOR: 4,
    Opcode.SHL: 5,
    Opcode.SHR: 6,
    Opcode.MOVI: 7,
    Opcode.BEQ: 1,  # branches compare via subtract
    Opcode.BNE: 1,
}

_VEC_OPCODE_CODE = {
    Opcode.VADD: 0,
    Opcode.VMUL: 1,
    Opcode.VMAC: 2,
    Opcode.VLD: 3,
    Opcode.VST: 3,
}


@dataclass
class _DynInst:
    """One dynamic instruction with its architectural values."""

    seq: int
    pc: int
    inst: InstructionOracle
    result: ExecResultOracle
    mispredicted: bool = False


class _BranchPredictor:
    """Per-PC 2-bit saturating counters (taken >= 2)."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self.table[pc % self.entries] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = pc % self.entries
        if taken:
            self.table[i] = min(3, self.table[i] + 1)
        else:
            self.table[i] = max(0, self.table[i] - 1)


@dataclass
class _IqEntry:
    di: _DynInst
    src_tags: list[str]
    dst_tag: str | None


class PipelineOracle:
    """The per-channel ``trace.set`` cycle model, kept as the reference
    for :class:`repro.uarch.pipeline.Pipeline`."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self.schema = stimulus_schema(params)

    # ------------------------------------------------------------------ #
    def run(self, program: Program, n_cycles: int) -> tuple[
        ActivityTrace, PipelineStats
    ]:
        """Run ``program`` (looping) for exactly ``n_cycles`` cycles."""
        if n_cycles <= 0:
            raise ReproError("n_cycles must be positive")
        p = self.params
        trace = ActivityTrace(self.schema, n_cycles)
        stats = PipelineStats()
        arch = ArchStateOracle(lanes=p.vec_lanes)
        insts = [
            InstructionOracle(i.opcode, i.dst, i.src1, i.src2, i.imm)
            for i in program.instructions
        ]
        predictor = _BranchPredictor(p.bp_entries)
        l1i = Cache(p.l1i_sets, p.l1i_assoc, p.l1i_line)
        l1d = Cache(p.l1d_sets, p.l1d_assoc, p.l1d_line)
        l2 = Cache(p.l2_sets, p.l2_assoc, p.l2_line)

        seq_counter = 0
        fetch_stall_until = 0
        fetch_queue: deque[_DynInst] = deque()
        iq: list[_IqEntry] = []
        rob: deque[list] = deque()  # [seq, done_cycle or None]
        reg_ready: dict[str, int] = {}
        outstanding_misses: list[int] = []  # completion cycles
        last_active = {u: -(10**9) for u in p.unit_names}

        def unit_active(unit: str, cycle: int) -> None:
            last_active[unit] = cycle

        for cycle in range(n_cycles):
            # ---------------- retire (in order) ---------------- #
            retired = 0
            while (
                rob
                and retired < p.retire_width
                and rob[0][1] is not None
                and rob[0][1] <= cycle
            ):
                rob.popleft()
                retired += 1
            if retired:
                stats.retired += retired
                unit_active("rob", cycle)
            trace.set("rob/retire", cycle, retired)

            # ---------------- miss completion ---------------- #
            outstanding_misses = [
                c for c in outstanding_misses if c > cycle
            ]

            # ---------------- issue (out of order) ---------------- #
            throttled = p.throttle is not None and p.throttle.active(cycle)
            issue_cap = p.issue_width
            if throttled and p.throttle.max_issue is not None:
                issue_cap = min(issue_cap, p.throttle.max_issue)
            free = {
                "alu": p.n_alu,
                "mul": p.n_mul,
                "vec": p.n_vec,
                "lsu": p.lsu_ports,
            }
            issued_entries: list[_IqEntry] = []
            n_issued = 0
            for entry in iq:
                if n_issued >= issue_cap:
                    break
                di = entry.di
                icls = di.inst.iclass
                if throttled and p.throttle.block_vector and icls in (
                    IClass.VEC, IClass.VMUL, IClass.VMEM
                ):
                    continue
                if not all(
                    reg_ready.get(t, 0) <= cycle for t in entry.src_tags
                ):
                    continue
                pool, latency = self._unit_for(icls)
                if pool is not None and free[pool] <= 0:
                    continue
                if icls in (IClass.MEM, IClass.VMEM):
                    if len(outstanding_misses) >= p.max_outstanding_misses:
                        continue
                    latency = self._memory_access(
                        di, cycle, l1d, l2, trace, stats,
                        port=p.lsu_ports - free["lsu"],
                        outstanding=outstanding_misses,
                        unit_active=unit_active,
                    )
                if pool is not None:
                    idx = (
                        {"alu": p.n_alu, "mul": p.n_mul,
                         "vec": p.n_vec, "lsu": p.lsu_ports}[pool]
                        - free[pool]
                    )
                    free[pool] -= 1
                    self._drive_unit_channels(
                        di, pool, idx, cycle, trace, unit_active
                    )
                done = cycle + latency
                if entry.dst_tag is not None:
                    reg_ready[entry.dst_tag] = done
                for slot in rob:
                    if slot[0] == di.seq:
                        slot[1] = done
                        break
                issued_entries.append(entry)
                n_issued += 1
            for entry in issued_entries:
                iq.remove(entry)
            # The IQ clock gates on *events* (issue or dispatch), not on
            # occupancy: a full-but-stalled queue holds state untouched.
            if n_issued:
                unit_active("issue", cycle)
            trace.set("issue/occ", cycle, len(iq))

            # ---------------- dispatch (decode -> IQ/ROB) ---------------- #
            dispatched = 0
            valid_mask = 0
            while (
                fetch_queue
                and dispatched < p.issue_width
                and len(iq) < p.iq_size
                and len(rob) < p.rob_size
            ):
                di = fetch_queue.popleft()
                entry = _IqEntry(
                    di=di,
                    src_tags=self._source_tags(di.inst),
                    dst_tag=self._dest_tag(di.inst),
                )
                iq.append(entry)
                rob.append([di.seq, None])
                valid_mask |= 1 << dispatched
                dispatched += 1
            if dispatched:
                unit_active("decode", cycle)
                unit_active("rename", cycle)
                unit_active("issue", cycle)
                unit_active("rob", cycle)
            trace.set("decode/valid", cycle, valid_mask)
            trace.set("rename/count", cycle, dispatched)
            trace.set("rob/occ", cycle, len(rob))

            # ---------------- fetch ---------------- #
            if cycle >= fetch_stall_until and len(fetch_queue) < p.fetch_buffer:
                fetched_insts: list[_DynInst] = []
                first_pc = arch.pc
                for _slot in range(p.fetch_width):
                    if len(fetch_queue) + len(fetched_insts) >= p.fetch_buffer:
                        break
                    pc = arch.pc
                    hit = l1i.access(pc)
                    if not hit:
                        miss_latency = (
                            p.l2_hit_latency
                            if self._l2_access(pc + 0x8000, cycle, l2, trace,
                                               stats, unit_active)
                            else p.mem_latency
                        )
                        fetch_stall_until = cycle + miss_latency
                        break
                    inst = insts[pc]
                    result = arch.execute(inst, len(program))
                    di = _DynInst(
                        seq=seq_counter, pc=pc, inst=inst, result=result
                    )
                    seq_counter += 1
                    fetched_insts.append(di)
                    stats.fetched += 1
                    if inst.iclass == IClass.BRANCH:
                        pred = predictor.predict(pc)
                        predictor.update(pc, result.branch_taken)
                        if pred != result.branch_taken:
                            di.mispredicted = True
                            stats.mispredicts += 1
                            fetch_stall_until = (
                                cycle + p.mispredict_penalty
                            )
                        break  # redirect: stop fetching this cycle
                if fetched_insts:
                    unit_active("fetch", cycle)
                    trace.set("fetch/valid", cycle, 1)
                    trace.set("fetch/pc", cycle, first_pc & 0xFFF)
                    for k, di in enumerate(fetched_insts):
                        trace.set(
                            f"fetch/inst{k}", cycle, di.inst.encode()
                        )
                    fetch_queue.extend(fetched_insts)

            # ---------------- clock enables ---------------- #
            for unit in p.unit_names:
                en = int(cycle - last_active[unit] <= p.gate_hysteresis)
                trace.set(f"{unit}/clk_en", cycle, en)

        stats.cycles = n_cycles
        stats.l1i = l1i.stats
        stats.l1d = l1d.stats
        stats.l2 = l2.stats
        return trace, stats

    # ------------------------------------------------------------------ #
    def _unit_for(self, icls: IClass) -> tuple[str | None, int]:
        p = self.params
        if icls == IClass.ALU or icls == IClass.BRANCH:
            return "alu", p.alu_latency
        if icls == IClass.MUL:
            return "mul", p.mul_latency
        if icls == IClass.VEC:
            return "vec", p.vec_latency
        if icls == IClass.VMUL:
            return "vec", p.vmul_latency
        if icls in (IClass.MEM, IClass.VMEM):
            return "lsu", p.l1_hit_latency  # refined by _memory_access
        return None, 1  # NOP

    @staticmethod
    def _source_tags(inst: InstructionOracle) -> list[str]:
        tags = [f"x{r}" for r in inst.reads_scalar if r != 0]
        tags += [f"v{r}" for r in inst.reads_vector]
        return tags

    @staticmethod
    def _dest_tag(inst: InstructionOracle) -> str | None:
        if inst.writes_scalar is not None:
            return f"x{inst.writes_scalar}"
        if inst.writes_vector is not None:
            return f"v{inst.writes_vector}"
        return None

    def _l2_access(
        self,
        addr: int,
        cycle: int,
        l2: Cache,
        trace: ActivityTrace,
        stats: PipelineStats,
        unit_active,
    ) -> bool:
        hit = l2.access(addr)
        unit_active("l2ctl", cycle)
        trace.set("l2ctl/req", cycle, 1)
        trace.set("l2ctl/addr", cycle, addr & 0xFFFF)
        trace.set("l2ctl/hit", cycle, int(hit))
        return hit

    def _memory_access(
        self,
        di: _DynInst,
        cycle: int,
        l1d: Cache,
        l2: Cache,
        trace: ActivityTrace,
        stats: PipelineStats,
        port: int,
        outstanding: list[int],
        unit_active,
    ) -> int:
        p = self.params
        inst = di.inst
        res = di.result
        addr = res.addresses[0] if res.addresses else 0
        hit = l1d.access(addr)
        if hit:
            latency = p.l1_hit_latency
        else:
            l2_hit = self._l2_access(
                addr, cycle, l2, trace, stats, unit_active
            )
            latency = p.l2_hit_latency if l2_hit else p.mem_latency
            outstanding.append(cycle + latency)
        is_store = inst.opcode in (Opcode.ST, Opcode.VST)
        if is_store:
            wdata = res.operands[1] if len(res.operands) > 1 else (
                res.vector_operands[0][0] if res.vector_operands else 0
            )
        else:
            wdata = res.results[0] if res.results else (
                res.vector_results[0] if res.vector_results else 0
            )
        trace.set(f"lsu{port}/valid", cycle, 1)
        trace.set(f"lsu{port}/is_store", cycle, int(is_store))
        trace.set(f"lsu{port}/addr", cycle, addr & 0xFFFF)
        trace.set(f"lsu{port}/wdata", cycle, wdata & 0xFFFF)
        trace.set(f"lsu{port}/hit", cycle, int(hit))
        unit_active(f"lsu{port}", cycle)
        # Vector memory ops also move data through the vector unit's
        # register-file write path.
        if inst.iclass == IClass.VMEM:
            lanes = (
                res.vector_results
                if res.vector_results
                else (res.vector_operands[0] if res.vector_operands else ())
            )
            self._drive_vec_lanes(0, cycle, inst, lanes, (), trace,
                                  unit_active)
        return latency

    def _drive_unit_channels(
        self,
        di: _DynInst,
        pool: str,
        idx: int,
        cycle: int,
        trace: ActivityTrace,
        unit_active,
    ) -> None:
        inst = di.inst
        res = di.result
        if pool == "alu":
            unit = f"alu{idx}"
            a = res.operands[0] if res.operands else 0
            b = res.operands[1] if len(res.operands) > 1 else 0
            trace.set(f"{unit}/valid", cycle, 1)
            trace.set(
                f"{unit}/op", cycle, _ALU_OPCODE_CODE.get(inst.opcode, 0)
            )
            trace.set(f"{unit}/a", cycle, a & 0xFFFF)
            trace.set(f"{unit}/b", cycle, b & 0xFFFF)
            unit_active(unit, cycle)
        elif pool == "mul":
            unit = f"mul{idx}"
            a = res.operands[0] if res.operands else 0
            b = res.operands[1] if len(res.operands) > 1 else 0
            acc = res.operands[2] if len(res.operands) > 2 else 0
            trace.set(f"{unit}/valid", cycle, 1)
            trace.set(f"{unit}/a", cycle, a & 0xFFFF)
            trace.set(f"{unit}/b", cycle, b & 0xFFFF)
            trace.set(f"{unit}/acc", cycle, acc & 0xFFFF)
            unit_active(unit, cycle)
        elif pool == "vec":
            va = res.vector_operands[0] if res.vector_operands else ()
            vb = (
                res.vector_operands[1]
                if len(res.vector_operands) > 1
                else ()
            )
            self._drive_vec_lanes(idx, cycle, inst, va, vb, trace,
                                  unit_active)
        elif pool == "lsu":
            pass  # handled by _memory_access

    def _drive_vec_lanes(
        self,
        idx: int,
        cycle: int,
        inst: InstructionOracle,
        va,
        vb,
        trace: ActivityTrace,
        unit_active,
    ) -> None:
        p = self.params
        unit = f"vec{idx}"
        trace.set(f"{unit}/valid", cycle, 1)
        trace.set(f"{unit}/op", cycle, _VEC_OPCODE_CODE.get(inst.opcode, 0))
        for lane in range(p.vec_lanes):
            a = va[lane] if lane < len(va) else 0
            b = vb[lane] if lane < len(vb) else 0
            trace.set(f"{unit}/a{lane}", cycle, a & 0xFFFF)
            trace.set(f"{unit}/b{lane}", cycle, b & 0xFFFF)
        unit_active(unit, cycle)


def encode_stimulus_oracle(trace: ActivityTrace) -> np.ndarray:
    """The per-channel loop :meth:`ActivityTrace.encode_stimulus` replaced:
    flatten to a (n_cycles, total_bits) uint8 stimulus matrix."""
    out = np.empty((trace.n_cycles, trace.total_bits), dtype=np.uint8)
    col = 0
    for name, width in trace.schema:
        vals = trace.channels[name]
        max_ok = (1 << width) - 1
        if vals.size and int(vals.max()) > max_ok:
            raise StimulusError(
                f"channel {name!r} value {int(vals.max())} exceeds "
                f"{width}-bit width"
            )
        shifts = np.arange(width, dtype=np.uint64)
        out[:, col : col + width] = (
            (vals[:, None] >> shifts) & np.uint64(1)
        ).astype(np.uint8)
        col += width
    return out
