"""A compact RISC-style ISA used to drive the synthetic CPU designs.

The paper generates micro-benchmarks over the Arm ISA; we define a small
load/store ISA with scalar, multiply, SIMD, memory, and branch classes
(every per-opcode fact in one table, :data:`OPCODE_TABLE`) so
the GA benchmark generator (:mod:`repro.genbench`) and the handcrafted
Table-4 suite can express the same kinds of behaviour (power viruses,
cache-miss loops, SIMD kernels, throttled streams).
"""

from repro.isa.instructions import (
    Opcode,
    IClass,
    Instruction,
    OPCODE_TABLE,
    CLASS_OF,
    ALL_OPCODES,
)
from repro.isa.assembler import assemble, disassemble
from repro.isa.program import (
    Program,
    InstructionMix,
    random_instruction,
    random_program,
)
from repro.isa.semantics import ArchState

__all__ = [
    "Opcode",
    "IClass",
    "Instruction",
    "OPCODE_TABLE",
    "CLASS_OF",
    "ALL_OPCODES",
    "assemble",
    "disassemble",
    "Program",
    "InstructionMix",
    "random_program",
    "random_instruction",
    "ArchState",
]
