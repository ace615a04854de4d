"""Tests for the ISA: encoding, assembly, and functional semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IsaError
from repro.isa import (
    ArchState,
    Instruction,
    InstructionMix,
    Opcode,
    Program,
    assemble,
    disassemble,
    random_instruction,
    random_program,
)
from repro.isa.instructions import WORD_MASK
from repro.isa.semantics import default_memory_value


# --------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------- #
def _random_instruction(rng):
    op = Opcode(int(rng.integers(0, len(Opcode))))
    return random_instruction(rng, op, mem_offset=5)


def test_encode_decode_roundtrip_all_opcodes():
    rng = np.random.default_rng(0)
    for _ in range(300):
        inst = _random_instruction(rng)
        assert Instruction.decode(inst.encode()) == inst


def test_decode_rejects_bad_opcode():
    with pytest.raises(IsaError):
        Instruction.decode(0xFF << 24)


def test_register_range_validation():
    with pytest.raises(IsaError):
        Instruction(Opcode.ADD, dst=16)
    with pytest.raises(IsaError):
        Instruction(Opcode.VADD, dst=9)  # vector file has 8 regs
    with pytest.raises(IsaError):
        Instruction(Opcode.MOVI, dst=1, imm=5000)


def test_vector_field_classification():
    assert Instruction(Opcode.VLD, dst=3, src1=14).vector_fields == {"dst"}
    assert Instruction(Opcode.VST, src1=14, src2=3).vector_fields == {"src2"}
    assert not Instruction(Opcode.ADD).uses_vector_regs


# --------------------------------------------------------------------- #
# assembler
# --------------------------------------------------------------------- #
def test_assemble_disassemble_roundtrip():
    src = """
    # a little kernel
    movi x1, 42
    movi x13, 0
    add  x3, x1, x2
    mac  x4, x1, x2
    vadd v1, v2, v3
    vmac v1, v2, v3
    ld   x5, 8(x13)
    st   x5, -4(x13)
    vld  v2, 0(x13)
    vst  v2, 16(x13)
    shl  x6, x5, x1
    beq  x1, x2, -4
    bne  x1, x0, 2
    nop
    """
    insts = assemble(src)
    assert len(insts) == 14
    text = "\n".join(disassemble(i) for i in insts)
    assert assemble(text) == insts


def test_assemble_reports_line_numbers():
    with pytest.raises(IsaError, match="line 2"):
        assemble("nop\nbogus x1, x2\n")


def test_assemble_rejects_wrong_register_file():
    with pytest.raises(IsaError):
        assemble("vadd x1, v2, v3")
    with pytest.raises(IsaError):
        assemble("add x1, x2")  # arity


# --------------------------------------------------------------------- #
# semantics
# --------------------------------------------------------------------- #
def _run(src, steps=None):
    insts = assemble(src)
    st_ = ArchState(lanes=4)
    n = steps if steps is not None else len(insts)
    for _ in range(n):
        st_.execute(insts[st_.pc], len(insts))
    return st_


def test_scalar_alu_semantics():
    s = _run(
        """
        movi x1, 7
        movi x2, 5
        add x3, x1, x2
        sub x4, x1, x2
        xor x5, x1, x2
        shl x6, x2, x1
        mul x7, x1, x2
        mac x7, x1, x2
        """
    )
    assert s.read_x(3) == 12
    assert s.read_x(4) == 2
    assert s.read_x(5) == 7 ^ 5
    assert s.read_x(6) == (5 << 7) & WORD_MASK
    assert s.read_x(7) == 35 + 35


def test_x0_is_hardwired_zero():
    s = _run("movi x0, 9\nadd x1, x0, x0")
    assert s.read_x(0) == 0
    assert s.read_x(1) == 0


def test_memory_roundtrip_and_default_contents():
    s = _run(
        """
        movi x13, 100
        movi x2, 1234
        st x2, 0(x13)
        ld x3, 0(x13)
        ld x4, 1(x13)
        """
    )
    assert s.read_x(3) == 1234
    assert s.read_x(4) == default_memory_value(101)


def test_vector_semantics():
    insts = assemble(
        """
        movi x13, 0
        vld v1, 0(x13)
        vld v2, 4(x13)
        vadd v3, v1, v2
        vmul v4, v1, v2
        """
    )
    s = ArchState(lanes=4)
    for _ in range(len(insts)):
        s.execute(insts[s.pc], len(insts))
    for lane in range(4):
        a = default_memory_value(lane)
        b = default_memory_value(4 + lane)
        assert s.vregs[3][lane] == (a + b) & WORD_MASK
        assert s.vregs[4][lane] == (a * b) & WORD_MASK


def test_branch_taken_and_wraparound():
    insts = assemble(
        """
        movi x1, 3
        movi x2, 3
        beq x1, x2, -2
        nop
        """
    )
    s = ArchState()
    s.execute(insts[0], 4)
    s.execute(insts[1], 4)
    res = s.execute(insts[2], 4)
    assert res.branch_taken
    assert s.pc == 0  # 2 - 2


def test_branch_not_taken_falls_through():
    insts = assemble("movi x1, 3\nbne x1, x1, -1\nnop")
    s = ArchState()
    s.execute(insts[0], 3)
    res = s.execute(insts[1], 3)
    assert not res.branch_taken
    assert s.pc == 2


def test_pc_wraps_at_program_end():
    insts = assemble("nop\nnop")
    s = ArchState()
    s.execute(insts[0], 2)
    s.execute(insts[1], 2)
    assert s.pc == 0


# --------------------------------------------------------------------- #
# random programs
# --------------------------------------------------------------------- #
@given(st.integers(0, 10_000), st.integers(8, 80))
@settings(max_examples=25, deadline=None)
def test_random_programs_are_valid_and_run(seed, length):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, length)
    assert len(prog) == length
    s = ArchState(lanes=4)
    for _ in range(200):
        inst = prog[s.pc]
        s.execute(inst, len(prog))
    # registers stay within word range
    assert all(0 <= v <= WORD_MASK for v in s.xregs)


def test_mix_weights_bias_generation():
    rng = np.random.default_rng(1)
    from repro.isa.instructions import IClass

    mem_mix = InstructionMix().with_weight(IClass.MEM, 50.0)
    prog = random_program(rng, 120, mem_mix)
    hist = prog.opcode_histogram()
    mem_ops = hist.get("LD", 0) + hist.get("ST", 0)
    assert mem_ops > 50


def test_empty_program_rejected():
    with pytest.raises(IsaError):
        Program("empty", ())


def test_program_indexing_wraps():
    prog = random_program(np.random.default_rng(0), 10)
    assert prog[0] == prog[10] == prog[20]
