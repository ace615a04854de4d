"""Functional (architectural) semantics of the ISA.

The pipeline model (:mod:`repro.uarch.pipeline`) handles *timing*; this
module handles *values*.  Operand values matter to the reproduction because
the RTL datapaths compute with them, so toggle activity — APOLLO's feature
space — is genuinely data-dependent.

Memory is sparse and word-addressed.  Uninitialized locations read a
deterministic hash of their address, giving load data realistic entropy
without storing a full memory image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsaError
from repro.isa.instructions import (
    OPCODE_TABLE,
    Instruction,
    N_VREGS,
    N_XREGS,
    WORD_MASK,
)

__all__ = ["ArchState", "ExecResult", "default_memory_value"]

_ADDR_MASK = 0xFFFF


def default_memory_value(addr: int) -> int:
    """Deterministic pseudo-random contents of an untouched address."""
    x = (addr * 2654435761) & 0xFFFFFFFF
    x ^= x >> 13
    return (x * 0x9E3779B1 >> 16) & WORD_MASK


@dataclass
class ExecResult:
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
class ArchState:
    """Architectural state: scalar regs, vector regs, sparse memory, PC."""

    lanes: int = 4
    pc: int = 0
    xregs: list[int] = field(default_factory=lambda: [0] * N_XREGS)
    vregs: list[list[int]] = field(default_factory=list)
    memory: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.vregs:
            self.vregs = [
                [default_memory_value(97 * r + lane) for lane in range(self.lanes)]
                for r in range(N_VREGS)
            ]

    # ------------------------------------------------------------------ #
    def read_x(self, idx: int) -> int:
        return 0 if idx == 0 else self.xregs[idx]

    def write_x(self, idx: int, value: int) -> None:
        if idx != 0:
            self.xregs[idx] = value & WORD_MASK

    def read_mem(self, addr: int) -> int:
        addr &= _ADDR_MASK
        v = self.memory.get(addr)
        return default_memory_value(addr) if v is None else v

    def write_mem(self, addr: int, value: int) -> None:
        self.memory[addr & _ADDR_MASK] = value & WORD_MASK

    # ------------------------------------------------------------------ #
    def execute(self, inst: Instruction, program_len: int) -> ExecResult:
        """Execute ``inst`` at the current PC, advancing the PC.

        Branch targets and fall-through wrap modulo ``program_len`` so any
        instruction sequence runs indefinitely (benchmarks are replayed for
        a fixed cycle budget, as in the paper's micro-benchmark traces).
        """
        if program_len <= 0:
            raise IsaError("program_len must be positive")
        row = OPCODE_TABLE[inst.opcode]
        fmt, fn = row.fmt, row.fn
        read_x, lanes = self.read_x, self.lanes
        nxt = (self.pc + 1) % program_len
        if fmt == "rrr":
            a, b = read_x(inst.src1), read_x(inst.src2)
            v = fn(a, b)
            res = ExecResult(operands=(a, b), results=(v,), next_pc=nxt)
            self.write_x(inst.dst, v)
        elif fmt == "load":
            addr = (read_x(inst.src1) + inst.imm) & _ADDR_MASK
            v = self.read_mem(addr)
            res = ExecResult(
                operands=(addr,), results=(v,), addresses=(addr,),
                next_pc=nxt,
            )
            self.write_x(inst.dst, v)
        elif fmt == "store":
            addr = (read_x(inst.src1) + inst.imm) & _ADDR_MASK
            v = read_x(inst.src2)
            res = ExecResult(
                operands=(addr, v), addresses=(addr,), next_pc=nxt
            )
            self.write_mem(addr, v)
        elif fmt == "movi":
            v = inst.imm & WORD_MASK
            res = ExecResult(operands=(inst.imm,), results=(v,), next_pc=nxt)
            self.write_x(inst.dst, v)
        elif fmt == "branch":
            a, b = read_x(inst.src1), read_x(inst.src2)
            taken = fn(a, b)
            if taken:
                nxt = (self.pc + inst.imm) % program_len
            res = ExecResult(operands=(a, b), branch_taken=taken, next_pc=nxt)
        elif fmt == "vvv":
            va, vb = self.vregs[inst.src1], self.vregs[inst.src2]
            vd = self.vregs[inst.dst]
            out = [fn(va[i], vb[i], vd[i]) for i in range(lanes)]
            res = ExecResult(
                vector_operands=(tuple(va), tuple(vb)),
                vector_results=tuple(out),
                next_pc=nxt,
            )
            self.vregs[inst.dst] = out
        elif fmt == "mac":
            a, b = read_x(inst.src1), read_x(inst.src2)
            acc = read_x(inst.dst)
            v = fn(a, b, acc)
            res = ExecResult(operands=(a, b, acc), results=(v,), next_pc=nxt)
            self.write_x(inst.dst, v)
        elif fmt == "vload":
            base = (read_x(inst.src1) + inst.imm) & _ADDR_MASK
            addrs = tuple([(base + i) & _ADDR_MASK for i in range(lanes)])
            vals = [self.read_mem(a) for a in addrs]
            res = ExecResult(
                operands=(base,), addresses=addrs,
                vector_results=tuple(vals), next_pc=nxt,
            )
            self.vregs[inst.dst] = vals
        elif fmt == "vstore":
            base = (read_x(inst.src1) + inst.imm) & _ADDR_MASK
            addrs = tuple([(base + i) & _ADDR_MASK for i in range(lanes)])
            vals = self.vregs[inst.src2]
            for i, a in enumerate(addrs):
                self.write_mem(a, vals[i])
            res = ExecResult(
                operands=(base,), addresses=addrs,
                vector_operands=(tuple(vals),), next_pc=nxt,
            )
        else:  # nop
            res = ExecResult(next_pc=nxt)
        self.pc = nxt
        return res
