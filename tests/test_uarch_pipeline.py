"""Tests for the pipeline timing model and activity traces."""

from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import build_core
from repro.errors import ReproError, StimulusError
from repro.isa import (
    OPCODE_TABLE,
    IClass,
    Instruction,
    InstructionMix,
    Opcode,
    Program,
    assemble,
    random_program,
)
from repro.isa.instructions import N_XREGS
from repro.rtl.backends import cc
from repro.uarch import (
    A77_LIKE,
    ActivityTrace,
    CoreParams,
    M0_LIKE,
    N1_LIKE,
    Pipeline,
    ThrottleScheme,
    pipeline,
    stimulus_schema,
)

from helpers import PipelineOracle, encode_stimulus_oracle


def _prog(src, name="t"):
    return Program(name, tuple(assemble(src)))


ALU_LOOP = _prog(
    """
    movi x1, 1
    movi x2, 2
    add x3, x1, x2
    add x4, x3, x1
    xor x5, x4, x2
    add x6, x5, x1
    """
)

VEC_LOOP = _prog(
    """
    movi x13, 0
    vld v1, 0(x13)
    vmac v2, v1, v1
    vmac v3, v1, v2
    vadd v4, v2, v3
    """
)


def test_schema_is_deterministic_and_unique():
    s1 = stimulus_schema(N1_LIKE)
    s2 = stimulus_schema(N1_LIKE)
    assert s1 == s2
    names = [n for n, _ in s1]
    assert len(set(names)) == len(names)


def test_a77_schema_is_wider():
    n1_bits = sum(w for _n, w in stimulus_schema(N1_LIKE))
    a77_bits = sum(w for _n, w in stimulus_schema(A77_LIKE))
    assert a77_bits > n1_bits


def test_pipeline_runs_and_retires():
    pipe = Pipeline(N1_LIKE)
    trace, stats = pipe.run(ALU_LOOP, 300)
    assert stats.cycles == 300
    assert stats.retired > 100  # a dependent ALU chain still flows
    assert 0 < stats.ipc <= N1_LIKE.retire_width


def test_rejects_nonpositive_cycles():
    with pytest.raises(ReproError):
        Pipeline(N1_LIKE).run(ALU_LOOP, 0)


def test_alu_channels_carry_operands():
    pipe = Pipeline(N1_LIKE)
    trace, _ = pipe.run(ALU_LOOP, 200)
    valid = trace.get("alu0/valid")
    a = trace.get("alu0/a")
    assert valid.sum() > 20
    # operand values appear on valid cycles
    assert a[valid.astype(bool)].max() > 0


def test_vector_program_lights_up_vec_unit():
    pipe = Pipeline(N1_LIKE)
    trace, _ = pipe.run(VEC_LOOP, 300)
    assert trace.get("vec0/valid").sum() > 10
    assert trace.duty_cycle("vec0/clk_en") > 0.1


def test_scalar_program_gates_vector_clock():
    pipe = Pipeline(N1_LIKE)
    trace, _ = pipe.run(ALU_LOOP, 300)
    assert trace.duty_cycle("vec0/clk_en") < 0.05
    assert trace.duty_cycle("alu0/clk_en") > 0.5


def test_dcache_misses_with_large_stride():
    src_lines = ["movi x13, 0"]
    # strided loads across a large footprint defeat the L1D
    for i in range(20):
        src_lines.append(f"ld x{1 + (i % 10)}, {i * 64}(x13)")
    prog = _prog("\n".join(src_lines))
    pipe = Pipeline(N1_LIKE)
    trace, stats = pipe.run(prog, 600)
    assert stats.l1d.miss_rate > 0.2
    assert trace.get("l2ctl/req").sum() > 5


def test_cache_resident_loads_mostly_hit():
    src_lines = ["movi x13, 0"]
    for i in range(12):
        src_lines.append(f"ld x{1 + (i % 10)}, {i % 16}(x13)")
    prog = _prog("\n".join(src_lines))
    pipe = Pipeline(N1_LIKE)
    _, stats = pipe.run(prog, 600)
    assert stats.l1d.miss_rate < 0.2


def test_branch_mispredicts_counted():
    # data-dependent alternating branch pattern confuses 2-bit counters
    prog = _prog(
        """
        movi x2, 1
        xor x1, x1, x2
        bne x1, x0, 2
        nop
        nop
        add x3, x1, x2
        """
    )
    pipe = Pipeline(N1_LIKE)
    _, stats = pipe.run(prog, 500)
    assert stats.mispredicts > 10


def test_throttling_reduces_ipc():
    prog = random_program(np.random.default_rng(0), 40)
    base = Pipeline(N1_LIKE).run(prog, 400)[1]
    throttled_params = N1_LIKE.with_throttle(ThrottleScheme(max_issue=1))
    thr = Pipeline(throttled_params).run(prog, 400)[1]
    assert thr.retired < base.retired


def test_vector_block_throttle_stalls_vec():
    params = N1_LIKE.with_throttle(ThrottleScheme(block_vector=True))
    trace, _ = Pipeline(params).run(VEC_LOOP, 300)
    assert trace.get("vec0/valid").sum() == 0


def test_encode_stimulus_shape_and_bits():
    pipe = Pipeline(N1_LIKE)
    trace, _ = pipe.run(ALU_LOOP, 50)
    stim = trace.encode_stimulus()
    assert stim.shape == (50, trace.total_bits)
    assert set(np.unique(stim)).issubset({0, 1})


def test_encode_rejects_overwide_values():
    trace = ActivityTrace([("a", 2)], 3)
    trace.set("a", 0, 7)
    with pytest.raises(StimulusError):
        trace.encode_stimulus()


def test_determinism():
    prog = random_program(np.random.default_rng(3), 50)
    t1, s1 = Pipeline(N1_LIKE).run(prog, 300)
    t2, s2 = Pipeline(N1_LIKE).run(prog, 300)
    assert s1.retired == s2.retired
    np.testing.assert_array_equal(
        t1.encode_stimulus(), t2.encode_stimulus()
    )


def test_rob_occupancy_bounded():
    prog = random_program(np.random.default_rng(4), 60)
    trace, _ = Pipeline(N1_LIKE).run(prog, 400)
    assert trace.get("rob/occ").max() <= N1_LIKE.rob_size
    assert trace.get("issue/occ").max() <= N1_LIKE.iq_size


def test_retire_rate_bounded():
    prog = random_program(np.random.default_rng(5), 60)
    trace, _ = Pipeline(N1_LIKE).run(prog, 400)
    assert trace.get("rob/retire").max() <= N1_LIKE.retire_width


# ---------------------------------------------------------------------- #
# Oracle: the per-channel ``trace.set`` model in ``tests/helpers.py``
# ---------------------------------------------------------------------- #
#: The three presets and a 2-wide shape (the benchmark core's).
ORACLE_CORES = {
    "n1": N1_LIKE,
    "a77": A77_LIKE,
    "m0": M0_LIKE,
    "2wide": CoreParams(
        name="2wide", fetch_width=2, issue_width=2, retire_width=2,
        n_alu=2, n_mul=1, n_vec=1, vec_lanes=2, lsu_ports=1, iq_size=8,
        rob_size=16, bp_entries=16,
    ),
}
THROTTLES = (
    None,
    ThrottleScheme(max_issue=1),
    ThrottleScheme(max_issue=2, period=8, duty=0.5),  # duty-cycled
    ThrottleScheme(block_vector=True),
    ThrottleScheme(max_issue=1, period=4, duty=0.25, block_vector=True),
    ThrottleScheme(max_issue=1, period=5, duty=0.3),  # duty * period = 1.5
)


@pytest.fixture(scope="module")
def oracle_cores():
    return {name: build_core(p) for name, p in ORACLE_CORES.items()}


def _random_mix_program(seed: int, length: int) -> Program:
    rng = np.random.default_rng(seed)
    mix = InstructionMix(
        weights={c: float(rng.random()) + 1e-3 for c in IClass},
        mem_stride=int(rng.integers(1, 128)),
        mem_region_words=int(rng.integers(8, 4096)),
        branch_backward_frac=float(rng.random()),
    )
    return random_program(rng, length, mix)


#: The two code paths of ``Pipeline.run``: the C kernel (where a compiler
#: is found) and the Python loop.
PATHS = (
    pytest.param("kernel", marks=pytest.mark.skipif(
        cc.compiler() is None, reason="no C compiler on this host"
    )),
    "loop",
)


def _paths_here():
    """The paths that run on this host: the loop, and the kernel where a
    compiler is found."""
    return ["loop"] + (["kernel"] if cc.compiler() is not None else [])


@contextmanager
def _on_path(path: str):
    """Run ``Pipeline.run`` on ``path`` inside the block."""
    if path == "kernel":
        assert pipeline.load_pipeline_kernel() is not None
        yield
    else:
        with mock.patch.object(pipeline, "load_pipeline_kernel", lambda: None):
            yield


def _assert_matches_oracle(params, prog, cycles, core, path, want=None):
    """Every channel (values and dtype), every stat and every stimulus
    bit of ``path``'s run equal ``PipelineOracle``'s (or ``want``, an
    oracle run already made); ``core`` encodes the stimulus, or
    ``None`` for the trace's own encoder."""
    with _on_path(path):
        got, got_stats = Pipeline(params).run(prog, cycles)
    want, want_stats = want or PipelineOracle(params).run(prog, cycles)
    assert got_stats == want_stats
    assert list(got.channels) == list(want.channels)
    for name, arr in want.channels.items():
        g = got.channels[name]
        assert g.dtype == arr.dtype and g.shape == arr.shape, name
        np.testing.assert_array_equal(g, arr, err_msg=name)
    stim = got.encode_stimulus() if core is None else core.stimulus_for(got)
    ref = encode_stimulus_oracle(want)
    assert stim.dtype == ref.dtype and stim.shape == ref.shape
    assert stim.flags.c_contiguous
    assert stim.tobytes() == ref.tobytes()


@given(
    core=st.sampled_from(sorted(ORACLE_CORES)),
    throttle=st.sampled_from(THROTTLES),
    hysteresis=st.sampled_from((0, 1, 2, 5)),
    seed=st.integers(0, 2**32 - 1),
    length=st.integers(4, 64),
    cycles=st.integers(1, 400),
)
@settings(max_examples=80, deadline=None)
def test_pipeline_matches_oracle(oracle_cores, core, throttle, hysteresis,
                                 seed, length, cycles):
    """Every channel (values and dtype), every stat and every stimulus
    bit equal the per-channel model's, on random-mix programs, on the
    Python loop and (where a compiler is found) on the kernel."""
    params = replace(
        ORACLE_CORES[core], gate_hysteresis=hysteresis, throttle=throttle
    )
    prog = _random_mix_program(seed, length)
    want = PipelineOracle(params).run(prog, cycles)
    for path in _paths_here():
        _assert_matches_oracle(
            params, prog, cycles, oracle_cores[core], path, want
        )


def _every_opcode_program(seed: int) -> Program:
    """Three instructions of every ``OPCODE_TABLE`` row in random order,
    each field drawn over its whole range, after MOVIs that give every
    scalar register a random value (some near the top of memory, so
    vector accesses wrap).  A branch lands on the next instruction
    whether taken or not, half of them through a negative ``pc + imm``
    that Python's floor modulo wraps; every instruction runs."""
    rng = np.random.default_rng(seed)
    body = [op for op in OPCODE_TABLE for _ in range(3)]
    body = [body[i] for i in rng.permutation(len(body))]
    n = (N_XREGS - 1) + len(body)
    insts = [
        Instruction(Opcode.MOVI, dst=r, imm=int(rng.integers(-2048, 2048)))
        for r in range(1, N_XREGS)
    ]
    for op in body:
        row = OPCODE_TABLE[op]
        regs = [int(rng.integers(0, lim)) for lim in row.limits]
        if row.fmt == "branch":
            imm = 1 - n if rng.random() < 0.5 else 1
        else:
            imm = int(rng.integers(-2048, 2048))
        insts.append(Instruction(op, *regs, imm=imm))
    return Program(f"every-op-{seed}", tuple(insts))


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("lanes", range(1, 9))
def test_every_opcode_matches_oracle(path, lanes):
    """A program that runs every opcode, at 1 to 8 vector lanes."""
    params = replace(N1_LIKE, name=f"lanes{lanes}", vec_lanes=lanes)
    for seed in range(2):
        _assert_matches_oracle(
            params, _every_opcode_program(100 * lanes + seed), 400, None,
            path,
        )


#: Loads into one N1 L1D set (16 sets x 4 ways of 8 words): four fill
#: it, a hit on the oldest line makes it the most recent, and the next
#: miss evicts by recency (keeping line 0 for the last load) where
#: first-in-first-out would evict line 0.
LRU_LOOP = _prog(
    """
    movi x13, 0
    ld x1, 0(x13)
    ld x2, 128(x13)
    ld x3, 256(x13)
    ld x4, 384(x13)
    ld x5, 0(x13)
    ld x6, 512(x13)
    ld x7, 0(x13)
    """
)


@pytest.mark.parametrize("path", PATHS)
def test_cache_replacement_matches_oracle(path):
    """Hits and misses follow LRU order, on each path."""
    _assert_matches_oracle(N1_LIKE, LRU_LOOP, 300, None, path)


def test_long_run_matches_oracle():
    """20,000 cycles under a duty-cycled throttle, on both paths: the
    kernel's rings, caches and miss slots wrap many times."""
    params = replace(
        A77_LIKE, throttle=ThrottleScheme(max_issue=2, period=8, duty=0.5)
    )
    prog = _random_mix_program(11, 48)
    want = PipelineOracle(params).run(prog, 20_000)
    for path in _paths_here():
        _assert_matches_oracle(params, prog, 20_000, None, path, want)


def test_constructing_a_pipeline_loads_no_kernel(monkeypatch):
    """The kernel is compiled and loaded by the first ``run``, never by
    ``Pipeline(params)``."""
    loads = []

    def load(source, symbol, argtypes, restype=None):
        loads.append(symbol)

    monkeypatch.setattr(cc, "load", load)
    pipe = Pipeline(N1_LIKE)
    assert loads == []
    pipe.run(ALU_LOOP, 8)  # no kernel loads: the Python loop runs
    assert loads == ["repro_pipeline_run"]


#: A value each ``CoreParams`` field rejects.
BAD_CORE_FIELDS = [
    (name, 0) for name in (
        "fetch_width", "issue_width", "retire_width", "n_alu", "n_mul",
        "n_vec", "vec_lanes", "lsu_ports", "iq_size", "rob_size",
        "fetch_buffer", "alu_latency", "mul_latency", "vec_latency",
        "vmul_latency", "l1_hit_latency", "l2_hit_latency", "mem_latency",
        "l1i_sets", "l1i_assoc", "l1i_line", "l1d_sets", "l1d_assoc",
        "l1d_line", "l2_sets", "l2_assoc", "l2_line", "bp_entries",
        "max_outstanding_misses",
    )
] + [
    ("iq_size", -1),
    ("mispredict_penalty", -1),
    ("gate_hysteresis", -1),
    ("issue_width", 65),
    ("fetch_width", 2.5),
    ("l1i_sets", 12),
    ("l1i_line", 6),
    ("l1d_sets", 3),
    ("l1d_line", 12),
    ("l2_sets", 96),
    ("l2_line", 10),
]


@pytest.mark.parametrize("field,value", BAD_CORE_FIELDS)
def test_core_params_reject_field(field, value):
    with pytest.raises(ReproError, match=rf"CoreParams\.{field} must"):
        replace(N1_LIKE, **{field: value})


@pytest.mark.parametrize("field,value", [
    ("max_issue", 0), ("max_issue", -2), ("period", 0), ("duty", -0.1),
    ("duty", 1.5), ("duty", float("nan")),
])
def test_throttle_scheme_rejects_field(field, value):
    with pytest.raises(ReproError, match=rf"ThrottleScheme\.{field} must"):
        ThrottleScheme(**{field: value})


def test_presets_and_edge_values_are_valid():
    for params in (N1_LIKE, A77_LIKE, M0_LIKE, *ORACLE_CORES.values()):
        assert replace(params) == params
    replace(N1_LIKE, mispredict_penalty=0, gate_hysteresis=0,
            issue_width=64, l2_assoc=3)
    ThrottleScheme(max_issue=None, period=1, duty=0.0)
    ThrottleScheme(max_issue=1, period=7, duty=1.0, block_vector=True)


def test_overwide_channel_error_matches_oracle():
    """A width overflow names the first offending channel in schema
    order, with the per-channel encoder's message."""
    trace = ActivityTrace([("a", 2), ("b", 1), ("c", 3)], 4)
    trace.set("a", 0, 3)
    trace.set("b", 1, 2)
    trace.set("c", 3, 9)
    with pytest.raises(StimulusError) as got:
        trace.encode_stimulus()
    with pytest.raises(StimulusError) as want:
        encode_stimulus_oracle(trace)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "channel 'b' value 2 exceeds 1-bit width"

    # A 1-wide fetch under a 4-wide dispatch overflows decode/valid.
    params = replace(N1_LIKE, name="narrow-fetch", fetch_width=1)
    prog = random_program(np.random.default_rng(4), 16)
    with pytest.raises(StimulusError) as got:
        Pipeline(params).run(prog, 200)[0].encode_stimulus()
    with pytest.raises(StimulusError) as want:
        encode_stimulus_oracle(PipelineOracle(params).run(prog, 200)[0])
    assert str(got.value) == str(want.value)
    assert "'decode/valid'" in str(got.value)


def test_long_trace_encodes_like_oracle():
    """Traces longer than one unpack block (4096 cycles) encode, block
    boundaries included, exactly as the per-channel encoder does."""
    trace, _ = Pipeline(N1_LIKE).run(_random_mix_program(7, 40), 9001)
    stim = trace.encode_stimulus()
    assert stim.flags.c_contiguous
    assert stim.tobytes() == encode_stimulus_oracle(trace).tobytes()


def test_channels_are_rows_of_one_matrix():
    trace, _ = Pipeline(N1_LIKE).run(ALU_LOOP, 64)
    rows = list(trace.channels.values())
    base = rows[0].base
    assert base is not None and base.shape == (len(rows), 64)
    assert all(r.base is base and r.flags.c_contiguous for r in rows)

