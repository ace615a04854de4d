"""Property-based tests of ISA semantics invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa import ArchState, Instruction, Opcode, random_program
from repro.isa.instructions import WORD_MASK, N_XREGS, N_VREGS
from repro.isa.semantics import default_memory_value


@given(st.integers(0, 10_000), st.integers(8, 64), st.integers(1, 300))
@settings(max_examples=20, deadline=None)
def test_state_invariants_under_random_execution(seed, length, steps):
    """PC stays in range, registers stay word-sized, x0 stays zero,
    vector lanes stay word-sized, memory addresses stay in range."""
    rng = np.random.default_rng(seed)
    prog = random_program(rng, length)
    state = ArchState(lanes=4)
    for _ in range(steps):
        inst = prog[state.pc]
        res = state.execute(inst, len(prog))
        assert 0 <= state.pc < len(prog)
        assert res.next_pc == state.pc
        for addr in res.addresses:
            assert 0 <= addr <= 0xFFFF
    assert state.read_x(0) == 0
    assert all(0 <= v <= WORD_MASK for v in state.xregs)
    for vreg in state.vregs:
        assert all(0 <= lane <= WORD_MASK for lane in vreg)
    assert all(
        0 <= a <= 0xFFFF and 0 <= v <= WORD_MASK
        for a, v in state.memory.items()
    )


@given(st.integers(0, 0xFFFF))
@settings(max_examples=50, deadline=None)
def test_default_memory_deterministic_and_word_sized(addr):
    v1 = default_memory_value(addr)
    v2 = default_memory_value(addr)
    assert v1 == v2
    assert 0 <= v1 <= WORD_MASK


def test_default_memory_has_entropy():
    vals = {default_memory_value(a) for a in range(256)}
    assert len(vals) > 200  # near-unique over a small range


@given(st.integers(0, 5000))
@settings(max_examples=20, deadline=None)
def test_execution_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    prog = random_program(rng, 24)

    def run():
        s = ArchState(lanes=4)
        for _ in range(100):
            s.execute(prog[s.pc], len(prog))
        return list(s.xregs), [list(v) for v in s.vregs], dict(s.memory)

    assert run() == run()


@given(st.integers(1, N_XREGS - 1), st.integers(-2048, 2047))
@settings(max_examples=30, deadline=None)
def test_movi_add_roundtrip(reg, imm):
    """movi then add-with-zero preserves the (masked) immediate."""
    s = ArchState()
    s.execute(Instruction(Opcode.MOVI, dst=reg, imm=imm), 4)
    s.execute(
        Instruction(Opcode.ADD, dst=reg, src1=reg, src2=0), 4
    )
    assert s.read_x(reg) == imm & WORD_MASK


@given(st.integers(0, 3000))
@settings(max_examples=20, deadline=None)
def test_store_then_load_roundtrip(seed):
    rng = np.random.default_rng(seed)
    addr_base = int(rng.integers(0, 2000))
    value = int(rng.integers(0, WORD_MASK + 1))
    s = ArchState()
    s.write_x(13, addr_base)
    s.write_x(2, value)
    s.execute(Instruction(Opcode.ST, src1=13, src2=2, imm=5), 4)
    s.execute(Instruction(Opcode.LD, dst=3, src1=13, imm=5), 4)
    assert s.read_x(3) == value


# --------------------------------------------------------------------- #
# The opcode table against the ISA oracle (the per-opcode code it
# replaced, kept verbatim in ``tests/helpers.py``)
# --------------------------------------------------------------------- #
from dataclasses import fields as dc_fields  # noqa: E402

from helpers import (  # noqa: E402
    CLASS_OF_ORACLE,
    ArchStateOracle,
    InstructionOracle,
    assemble_line_oracle,
    disassemble_oracle,
    random_instruction_oracle,
    random_program_oracle,
)
from repro.errors import IsaError  # noqa: E402
from repro.isa import (  # noqa: E402
    CLASS_OF,
    IClass,
    InstructionMix,
    disassemble,
    random_instruction,
)
from repro.isa.assembler import assemble_line  # noqa: E402


def _fields(inst):
    return (inst.opcode, inst.dst, inst.src1, inst.src2, inst.imm)


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the ``IsaError`` it raised."""
    try:
        return "ok", fn(*args)
    except IsaError as exc:
        return "IsaError", str(exc)


_MNEMONICS = [op.name.lower() for op in Opcode] + ["ADD", "bogus", ""]
_REG_TOKENS = st.builds(
    "{}{}".format, st.sampled_from("xxvy"), st.integers(0, 17)
)
_IMM_TOKENS = st.one_of(
    st.integers(-3000, 3000).map(str),
    st.sampled_from(["0x7f", "-0x10", "007", "abc", "1.5"]),
)
_MEM_TOKENS = st.builds(
    "{}({})".format, st.integers(-3000, 3000), _REG_TOKENS
)
_TOKENS = st.one_of(_REG_TOKENS, _IMM_TOKENS, _MEM_TOKENS)


@st.composite
def _instructions(draw):
    op = draw(st.sampled_from(list(Opcode)))
    limits = [
        N_VREGS if f in InstructionOracle(op).vector_fields else N_XREGS
        for f in ("dst", "src1", "src2")
    ]
    regs = [draw(st.integers(0, n - 1)) for n in limits]
    return (op, *regs, draw(st.integers(-2048, 2047)))


@given(
    mnemonic=st.sampled_from(_MNEMONICS),
    args=st.lists(_TOKENS, max_size=4),
    sep=st.sampled_from([", ", " ", ","]),
    comment=st.booleans(),
)
# Every opcode's operand count is exact, ``nop``'s zero included.
@example(mnemonic="nop", args=["x99", "bogus"], sep=", ", comment=False)
@settings(max_examples=400, deadline=None)
def test_assemble_line_matches_oracle(mnemonic, args, sep, comment):
    """The same lines assemble to the same fields, and the same lines
    raise ``IsaError``."""
    line = " ".join([mnemonic, sep.join(args)]) + ("  # c" if comment else "")
    got = _outcome(assemble_line, line)
    want = _outcome(assemble_line_oracle, line)
    assert got[0] == want[0], (line, got, want)
    if got[0] == "ok":
        assert (got[1] is None) == (want[1] is None)
        if got[1] is not None:
            assert _fields(got[1]) == _fields(want[1])
            assert disassemble(got[1]) == disassemble_oracle(want[1])


@given(
    inst=_instructions(),
    swap=st.one_of(st.none(), st.tuples(st.integers(0, 3), _TOKENS)),
    sep=st.sampled_from([", ", " ", ","]),
)
@settings(max_examples=400, deadline=None)
def test_assemble_text_matches_oracle(inst, swap, sep):
    """Disassembled text, as is and with one token replaced, assembles
    (or fails) as under the oracle, and round-trips."""
    text = disassemble_oracle(InstructionOracle(*inst))
    assert disassemble(Instruction(*inst)) == text
    assert _fields(assemble_line(text)) == _fields(
        assemble_line_oracle(text)
    )
    words = text.replace(",", "").split()
    if swap is not None:
        k, token = swap
        words[k % len(words)] = token
    line = words[0] + " " + sep.join(words[1:])
    got = _outcome(assemble_line, line)
    want = _outcome(assemble_line_oracle, line)
    assert got[0] == want[0], (line, got, want)
    if got[0] == "ok":
        assert _fields(got[1]) == _fields(want[1])
        assert assemble_line(disassemble(got[1])) == got[1]


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
def test_each_opcode_matches_oracle(op):
    """One instruction per opcode with distinct register fields: its
    facts, its text both ways and one step of execution."""
    f = (op, 3, 5, 6, -7)
    inst, ref = Instruction(*f), InstructionOracle(*f)
    for name in (
        "iclass", "vector_fields", "reads_scalar", "reads_vector",
        "writes_scalar", "writes_vector",
    ):
        assert getattr(inst, name) == getattr(ref, name), name
    assert disassemble(inst) == disassemble_oracle(ref)
    text = disassemble_oracle(ref)
    assert _fields(assemble_line(text)) == _fields(
        assemble_line_oracle(text)
    )
    state = ArchState(lanes=3, xregs=list(range(0, 160, 10)))
    want_state = ArchStateOracle(lanes=3, xregs=list(range(0, 160, 10)))
    res, want = state.execute(inst, 40), want_state.execute(ref, 40)
    assert [getattr(res, x.name) for x in dc_fields(res)] == [
        getattr(want, x.name) for x in dc_fields(want)
    ]
    assert (state.pc, state.xregs, state.vregs, state.memory) == (
        want_state.pc, want_state.xregs, want_state.vregs, want_state.memory
    )


@given(
    op=st.sampled_from(list(Opcode)),
    dst=st.integers(-2, 18),
    src1=st.integers(-2, 18),
    src2=st.integers(-2, 18),
    imm=st.integers(-2100, 2100),
)
@settings(max_examples=500, deadline=None)
def test_instruction_facts_match_oracle(op, dst, src1, src2, imm):
    """Field validation (the same ``IsaError`` messages), the class, the
    vector fields, the dependence facts, the encoding and the text."""
    got = _outcome(Instruction, op, dst, src1, src2, imm)
    want = _outcome(InstructionOracle, op, dst, src1, src2, imm)
    assert got[0] == want[0]
    if got[0] == "IsaError":
        assert got[1] == want[1]
        return
    inst, ref = got[1], want[1]
    for name in (
        "iclass", "vector_fields", "uses_vector_regs", "reads_scalar",
        "reads_vector", "writes_scalar", "writes_vector",
    ):
        assert getattr(inst, name) == getattr(ref, name), name
    assert inst.encode() == ref.encode()
    assert _fields(Instruction.decode(inst.encode())) == _fields(ref)
    assert str(inst) == str(ref) == disassemble_oracle(ref)


def test_class_of_matches_oracle():
    assert list(CLASS_OF.items()) == list(CLASS_OF_ORACLE.items())


_MIXES = st.builds(
    InstructionMix,
    weights=st.dictionaries(
        st.sampled_from(list(IClass)), st.floats(0.01, 5.0), min_size=1
    ),
    mem_stride=st.integers(1, 128),
    mem_region_words=st.integers(1, 4096),
    branch_backward_frac=st.floats(0.0, 1.0),
)


@given(seed=st.integers(0, 2**32 - 1), length=st.integers(4, 64),
       mix=_MIXES)
@settings(max_examples=100, deadline=None)
def test_random_program_matches_oracle(seed, length, mix):
    """Equal programs, and the generator left in the same state."""
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_program(rng, length, mix, name="p")
    want = random_program_oracle(ref_rng, length, mix, name="p")
    assert got.name == want.name
    assert [_fields(i) for i in got.instructions] == [
        _fields(i) for i in want.instructions
    ]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(seed=st.integers(0, 2**32 - 1), op=st.sampled_from(list(Opcode)),
       mix=_MIXES, mem_offset=st.integers(0, 5000))
@settings(max_examples=200, deadline=None)
def test_random_instruction_matches_oracle(seed, op, mix, mem_offset):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_instruction(rng, op, mix, mem_offset)
    want = random_instruction_oracle(ref_rng, op, mix, mem_offset)
    assert _fields(got) == _fields(want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(
    lanes=st.integers(1, 8),
    program=st.lists(_instructions(), min_size=1, max_size=40),
    xregs=st.lists(st.integers(0, WORD_MASK), min_size=N_XREGS - 1,
                   max_size=N_XREGS - 1),
    program_len=st.integers(1, 50),
)
@settings(max_examples=200, deadline=None)
def test_execute_matches_oracle(lanes, program, xregs, program_len):
    """Every step's ``ExecResult`` and the state after it, over all 20
    opcodes and lane counts 1-8."""
    state = ArchState(lanes=lanes, xregs=[0] + xregs)
    ref = ArchStateOracle(lanes=lanes, xregs=[0] + list(xregs))
    for f in program:
        res = state.execute(Instruction(*f), program_len)
        want = ref.execute(InstructionOracle(*f), program_len)
        assert [getattr(res, x.name) for x in dc_fields(res)] == [
            getattr(want, x.name) for x in dc_fields(want)
        ], f
        assert (state.pc, state.xregs, state.vregs, state.memory) == (
            ref.pc, ref.xregs, ref.vregs, ref.memory
        )
