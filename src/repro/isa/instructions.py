"""Instruction set definition.

16 scalar registers (``x0`` is hardwired zero), 8 vector registers whose
lane count is a core parameter, 16-bit data words, word-addressed memory.
Encodings are 32-bit and deterministic, so fetch/decode datapath toggles
depend on real instruction bits.

Every per-opcode fact is one row of :data:`OPCODE_TABLE`; the assembler,
the program generator, the semantics and the pipeline's decode read the
row instead of naming opcodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, NamedTuple

from repro.errors import IsaError

__all__ = [
    "Opcode",
    "IClass",
    "Instruction",
    "OpcodeInfo",
    "OPCODE_TABLE",
    "CLASS_OF",
    "ALL_OPCODES",
    "N_XREGS",
    "N_VREGS",
    "WORD_BITS",
    "WORD_MASK",
]

N_XREGS = 16
N_VREGS = 8
WORD_BITS = 16
WORD_MASK = (1 << WORD_BITS) - 1


class Opcode(IntEnum):
    """Machine opcodes (the value doubles as the encoding field)."""

    NOP = 0
    MOVI = 1  # xd = imm
    ADD = 2
    SUB = 3
    AND = 4
    OR = 5
    XOR = 6
    SHL = 7
    SHR = 8
    MUL = 9
    MAC = 10  # xd = xd + xa * xb (multiply-accumulate)
    VADD = 11  # vd = va + vb, per lane
    VMUL = 12
    VMAC = 13
    LD = 14  # xd = mem[xa + imm]
    ST = 15  # mem[xa + imm] = xb
    VLD = 16  # vd = mem[xa + imm ... + lanes]
    VST = 17
    BEQ = 18  # if xa == xb: pc += imm (mod program length)
    BNE = 19


class IClass(Enum):
    """Instruction class — determines the executing functional unit."""

    NOP = "nop"
    ALU = "alu"
    MUL = "mul"
    VEC = "vec"
    VMUL = "vmul"
    MEM = "mem"
    VMEM = "vmem"
    BRANCH = "branch"


_REG_FIELDS = ("dst", "src1", "src2")


class OpcodeInfo(NamedTuple):
    """One opcode's row of :data:`OPCODE_TABLE`.

    ``fmt`` is the operand format the generator and the semantics
    dispatch on.  ``operands`` lists the assembly operands in order as
    ``(kind, field)``: a register (``kind`` ``"x"`` or ``"v"``, its
    file), the immediate (``"imm"``) or a memory operand ``imm(xN)``
    with its base in ``src1`` (``"mem"``).  ``expr`` is the opcode's
    arithmetic, written once as an expression that means the same in
    Python and in C over unsigned operands below ``2**16`` (so it
    parenthesizes whatever the two languages' precedence orders
    differently, such as ``&`` against ``==``): the result
    from ``a`` and ``b`` for ``rrr``, also from ``acc`` (the
    destination's old value) for ``mac`` and for one lane of ``vvv``,
    and the taken flag for ``branch``.  ``fn`` is that expression as a
    Python function of those operands, in that order; the pipeline
    model's C kernel compiles the same text as one case of its value
    function.  The last two fields follow from the vector reads and
    write.
    """

    opcode: Opcode
    iclass: IClass
    fmt: str
    operands: tuple[tuple[str, str], ...]
    x_reads: tuple[str, ...]  # register fields read, scalar file
    v_reads: tuple[str, ...]  # register fields read, vector file
    x_write: str | None  # register field written, scalar file
    v_write: str | None  # register field written, vector file
    unit_op: int  # ``alu{i}/op`` or ``vec{i}/op`` code
    expr: str | None
    fn: Callable | None
    vector_fields: frozenset[str]  # fields indexing the vector file
    limits: tuple[int, int, int]  # register-file size of dst, src1, src2


#: Operands of each format's ``expr``, in ``fn``'s argument order.
_EXPR_OPERANDS = {
    "rrr": "a, b", "branch": "a, b", "mac": "a, b, acc", "vvv": "a, b, acc",
}


def _op(opcode, iclass, fmt, operands, reads="", write="", unit_op=0,
        expr=None) -> OpcodeInfo:
    """One row, from space-separated ``file.field`` words: the assembly
    ``operands`` in order (``imm`` and ``mem`` are not registers), the
    fields ``reads`` reads in field order, and the one it ``write``s."""
    read = [w.split(".") for w in reads.split()]
    w_file, _, w_field = write.partition(".")
    v_reads = tuple(f for file, f in read if file == "v")
    v_write = w_field if w_file == "v" else None
    vector_fields = frozenset(v_reads + ((v_write,) if v_write else ()))
    return OpcodeInfo(
        opcode,
        iclass,
        fmt,
        tuple(tuple(w.partition(".")[::2]) for w in operands.split()),
        tuple(f for file, f in read if file == "x"),
        v_reads,
        w_field if w_file == "x" else None,
        v_write,
        unit_op,
        expr,
        None if expr is None else eval(
            f"lambda {_EXPR_OPERANDS[fmt]}: {expr}", {"WORD_MASK": WORD_MASK}
        ),
        vector_fields,
        tuple(N_VREGS if f in vector_fields else N_XREGS
              for f in _REG_FIELDS),
    )


_X3 = "x.dst x.src1 x.src2"
_V3 = "v.dst v.src1 v.src2"
_XAB = "x.src1 x.src2"
_VAB = "v.src1 v.src2"

#: Every opcode's row, keyed by opcode.  Rows are grouped by class and,
#: within a class, in the order the program generator draws them.  The
#: unit op is the code driven on ``alu{i}/op`` (branches compare via
#: subtract) or ``vec{i}/op`` (vector memory ops move data through the
#: vector unit); other units have no op channel.
OPCODE_TABLE: dict[Opcode, OpcodeInfo] = {row.opcode: row for row in (
    _op(Opcode.NOP, IClass.NOP, "nop", ""),
    _op(Opcode.ADD, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 0,
        "(a + b) & WORD_MASK"),
    _op(Opcode.SUB, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 1,
        "(a - b) & WORD_MASK"),
    _op(Opcode.AND, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 2,
        "a & b"),
    _op(Opcode.OR, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 3,
        "a | b"),
    _op(Opcode.XOR, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 4,
        "a ^ b"),
    _op(Opcode.SHL, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 5,
        "(a << (b & 0xF)) & WORD_MASK"),
    _op(Opcode.SHR, IClass.ALU, "rrr", _X3, _XAB, "x.dst", 6,
        "(a >> (b & 0xF)) & WORD_MASK"),
    _op(Opcode.MOVI, IClass.ALU, "movi", "x.dst imm", "", "x.dst", 7),
    _op(Opcode.MUL, IClass.MUL, "rrr", _X3, _XAB, "x.dst", 0,
        "(a * b) & WORD_MASK"),
    _op(Opcode.MAC, IClass.MUL, "mac", _X3, "x.dst " + _XAB, "x.dst", 0,
        "(acc + a * b) & WORD_MASK"),
    _op(Opcode.VADD, IClass.VEC, "vvv", _V3, _VAB, "v.dst", 0,
        "(a + b) & WORD_MASK"),
    _op(Opcode.VMUL, IClass.VMUL, "vvv", _V3, _VAB, "v.dst", 1,
        "(a * b) & WORD_MASK"),
    _op(Opcode.VMAC, IClass.VMUL, "vvv", _V3, "v.dst " + _VAB, "v.dst", 2,
        "(acc + a * b) & WORD_MASK"),
    _op(Opcode.LD, IClass.MEM, "load", "x.dst mem", "x.src1", "x.dst"),
    _op(Opcode.ST, IClass.MEM, "store", "x.src2 mem", _XAB),
    _op(Opcode.VLD, IClass.VMEM, "vload", "v.dst mem", "x.src1", "v.dst",
        3),
    _op(Opcode.VST, IClass.VMEM, "vstore", "v.src2 mem",
        "x.src1 v.src2", "", 3),
    _op(Opcode.BEQ, IClass.BRANCH, "branch", "x.src1 x.src2 imm", _XAB,
        "", 1, "a == b"),
    _op(Opcode.BNE, IClass.BRANCH, "branch", "x.src1 x.src2 imm", _XAB,
        "", 1, "a != b"),
)}

CLASS_OF: dict[Opcode, IClass] = {
    code: OPCODE_TABLE[code].iclass for code in Opcode
}

ALL_OPCODES: tuple[Opcode, ...] = tuple(Opcode)


@dataclass(frozen=True)
class Instruction:
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
        for field_name, v, limit in zip(
            _REG_FIELDS,
            (self.dst, self.src1, self.src2),
            OPCODE_TABLE[self.opcode].limits,
        ):
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
        return OPCODE_TABLE[self.opcode].iclass

    @property
    def vector_fields(self) -> frozenset[str]:
        """Names of register fields indexing the vector register file."""
        return OPCODE_TABLE[self.opcode].vector_fields

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
    def decode(cls, word: int) -> "Instruction":
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
        return [getattr(self, f) for f in OPCODE_TABLE[self.opcode].x_reads]

    @property
    def reads_vector(self) -> list[int]:
        return [getattr(self, f) for f in OPCODE_TABLE[self.opcode].v_reads]

    @property
    def writes_scalar(self) -> int | None:
        """The scalar register written; ``None`` for x0 (hardwired zero)."""
        field = OPCODE_TABLE[self.opcode].x_write
        return (getattr(self, field) or None) if field else None

    @property
    def writes_vector(self) -> int | None:
        field = OPCODE_TABLE[self.opcode].v_write
        return getattr(self, field) if field else None

    def __str__(self) -> str:
        from repro.isa.assembler import disassemble

        return disassemble(self)
