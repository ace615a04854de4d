"""Program containers and random program generation.

Random programs are parameterized by an :class:`InstructionMix` — class
weights plus memory-locality knobs — which is exactly the genome the GA in
:mod:`repro.genbench.ga` evolves alongside concrete instruction sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import IsaError
from repro.isa.assembler import disassemble
from repro.isa.instructions import (
    OPCODE_TABLE,
    IClass,
    Instruction,
    N_VREGS,
    N_XREGS,
    Opcode,
)

__all__ = [
    "Program",
    "InstructionMix",
    "random_program",
    "random_instruction",
    "DEFAULT_MIX",
]

#: Each class's opcodes, in the table's (draw) order.
_CLASS_DRAWS: dict[IClass, tuple[Opcode, ...]] = {
    c: tuple(op for op, row in OPCODE_TABLE.items() if row.iclass is c)
    for c in IClass
}

#: Base registers of memory ops, seeded by ``random_program``'s preamble.
_BASE_REGS = (13, 14, 15)


@dataclass(frozen=True)
class Program:
    """A named instruction sequence.

    Programs loop: execution wraps modulo ``len(instructions)``, so any
    program can be replayed for an arbitrary cycle budget.
    """

    name: str
    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if not self.instructions:
            raise IsaError(f"program {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self.instructions[idx % len(self.instructions)]

    def to_text(self) -> str:
        return "\n".join(disassemble(i) for i in self.instructions)

    def opcode_histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for inst in self.instructions:
            hist[inst.opcode.name] = hist.get(inst.opcode.name, 0) + 1
        return hist


@dataclass(frozen=True)
class InstructionMix:
    """Class weights + locality knobs for random program generation.

    Attributes
    ----------
    weights:
        Relative probability per instruction class.
    mem_stride:
        Address stride between successive memory immediates; large strides
        defeat the D-cache (miss-heavy benchmarks).
    mem_region_words:
        Footprint of the address region touched; small regions are
        cache-resident.
    branch_backward_frac:
        Fraction of branches with negative offsets (loops).
    """

    weights: dict[IClass, float] = field(
        default_factory=lambda: {
            IClass.ALU: 4.0,
            IClass.MUL: 1.0,
            IClass.VEC: 1.0,
            IClass.VMUL: 1.0,
            IClass.MEM: 2.0,
            IClass.VMEM: 0.5,
            IClass.BRANCH: 0.8,
            IClass.NOP: 0.7,
        }
    )
    mem_stride: int = 1
    mem_region_words: int = 256
    branch_backward_frac: float = 0.7

    def normalized(self) -> tuple[list[IClass], np.ndarray]:
        classes = list(self.weights)
        w = np.array([max(0.0, self.weights[c]) for c in classes])
        total = w.sum()
        if total <= 0:
            raise IsaError("instruction mix has no positive weights")
        return classes, w / total

    def with_weight(self, iclass: IClass, weight: float) -> "InstructionMix":
        new = dict(self.weights)
        new[iclass] = weight
        return replace(self, weights=new)


DEFAULT_MIX = InstructionMix()


def random_program(
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
    insts: list[Instruction] = []

    region = max(8, mix.mem_region_words)
    for reg in _BASE_REGS:
        insts.append(
            Instruction(
                Opcode.MOVI,
                dst=reg,
                imm=int(rng.integers(0, min(region, 2048))),
            )
        )

    mem_offset = 0
    while len(insts) < length:
        iclass = classes[int(rng.choice(len(classes), p=probs))]
        ops = _CLASS_DRAWS[iclass]
        op = ops[int(rng.integers(0, len(ops)))]
        insts.append(random_instruction(rng, op, mix, mem_offset))
        if iclass in (IClass.MEM, IClass.VMEM):
            mem_offset = (mem_offset + mix.mem_stride) % max(
                1, mix.mem_region_words
            )
    return Program(name=name, instructions=tuple(insts[:length]))


def random_instruction(
    rng: np.random.Generator,
    op: Opcode,
    mix: InstructionMix = DEFAULT_MIX,
    mem_offset: int = 0,
) -> Instruction:
    """Draw random operands for one ``op`` instruction.

    Memory ops address ``mem_offset`` off a preamble base register;
    branches jump 1-5 instructions, backward with the mix's
    ``branch_backward_frac``.
    """
    draw = {
        "x": lambda: int(rng.integers(0, N_XREGS)),
        "v": lambda: int(rng.integers(0, N_VREGS)),
    }
    row = OPCODE_TABLE[op]
    if row.fmt == "nop":
        return Instruction(op)
    if row.fmt == "movi":
        return Instruction(
            op, dst=draw["x"](), imm=int(rng.integers(-2048, 2048))
        )
    if row.fmt == "branch":
        backward = rng.random() < mix.branch_backward_frac
        dist = int(rng.integers(1, 6))
        return Instruction(
            op, src1=draw["x"](), src2=draw["x"](),
            imm=-dist if backward else dist,
        )
    if row.fmt in ("rrr", "mac", "vvv"):  # three registers, dst first
        return Instruction(
            op, **{field: draw[file]() for file, field in row.operands}
        )
    # A memory op: its base register, then its data register (the first
    # assembly operand: a load's dst, a store's src2).
    base = int(rng.choice(_BASE_REGS))
    file, field = row.operands[0]
    return Instruction(
        op, src1=base, imm=min(2047, mem_offset), **{field: draw[file]()}
    )
