"""Two-way text assembler for the reproduction ISA.

Syntax (one instruction per line, ``#`` comments)::

    movi x1, 42
    add  x3, x1, x2
    mac  x4, x1, x2        # x4 += x1 * x2
    vadd v1, v2, v3
    ld   x5, 8(x2)
    vst  v1, 0(x6)
    beq  x1, x2, -4
    nop
"""

from __future__ import annotations

import re

from repro.errors import IsaError
from repro.isa.instructions import OPCODE_TABLE, Instruction, Opcode

__all__ = ["assemble", "assemble_line", "disassemble"]

_REG = re.compile(r"^([xv])(\d+)$")
_MEM = re.compile(r"^(-?\d+)\((x\d+)\)$")


def _parse_reg(token: str, want: str) -> int:
    m = _REG.match(token)
    if not m or m.group(1) != want:
        raise IsaError(f"expected {want}-register, got {token!r}")
    return int(m.group(2))


def _parse_imm(token: str) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise IsaError(f"bad immediate {token!r}") from exc


def assemble_line(line: str) -> Instruction | None:
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
    operands = OPCODE_TABLE[op].operands
    _expect(args, len(operands), text)
    fields = {}
    for token, (kind, field) in zip(args, operands):
        if kind == "imm":
            fields["imm"] = _parse_imm(token)
        elif kind == "mem":
            fields["imm"], fields["src1"] = _parse_mem(token)
        else:
            fields[field] = _parse_reg(token, kind)
    return Instruction(op, **fields)


def _expect(args: list[str], n: int, text: str) -> None:
    if len(args) != n:
        raise IsaError(f"{text!r}: expected {n} operands, got {len(args)}")


def _parse_mem(token: str) -> tuple[int, int]:
    m = _MEM.match(token)
    if not m:
        raise IsaError(f"bad memory operand {token!r} (want imm(xN))")
    return int(m.group(1)), _parse_reg(m.group(2), "x")


def assemble(source: str) -> list[Instruction]:
    """Assemble multi-line source into an instruction list."""
    out = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        try:
            inst = assemble_line(line)
        except IsaError as exc:
            raise IsaError(f"line {lineno}: {exc}") from exc
        if inst is not None:
            out.append(inst)
    return out


def disassemble(inst: Instruction) -> str:
    """Render an instruction back to assembly text."""
    name = inst.opcode.name.lower()
    operands = ", ".join([
        f"{inst.imm}" if kind == "imm"
        else f"{inst.imm}(x{inst.src1})" if kind == "mem"
        else f"{kind}{getattr(inst, field)}"
        for kind, field in OPCODE_TABLE[inst.opcode].operands
    ])
    return f"{name} {operands}" if operands else name
