"""Equivalence tests for the bit-parallel (packed uint64) engine.

The packed engine renumbers storage rows, folds inverting gates into
polarities, aliases BUF/NOT chains, and records toggles in 64-lane words
— none of which may be observable: every `SimResult` artifact (packed
trace, column records, accumulator traces, final values) must be
*bit-identical* to the uint8 reference engine's.  Each property runs in
both of the packed engine's kernel states (``helpers.SIM_PATHS``): on
the C kernel and on the NumPy fallback loop.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.rtl import (
    ENGINES,
    Netlist,
    Op,
    RecordSpec,
    Simulator,
    pack_lanes,
    unpack_lanes,
)

from helpers import SIM_PATHS, random_netlist, simple_counter_design

#: The packed engine's two kernel states (NumPy loop, C kernel).
PACKED_PATHS = [p for p in SIM_PATHS if p != "uint8"]


def _run_both(nl, stim, record, engine="packed"):
    r8 = Simulator(nl, engine="uint8").run(stim, record)
    rp = Simulator(nl, engine=engine).run(stim, record)
    return r8, rp


def _assert_identical(r8, rp):
    assert r8.n_cycles == rp.n_cycles and r8.batch == rp.batch
    if r8.trace is not None or rp.trace is not None:
        np.testing.assert_array_equal(r8.trace.packed, rp.trace.packed)
    if r8.columns is not None or rp.columns is not None:
        np.testing.assert_array_equal(r8.columns, rp.columns)
    assert r8.accum.keys() == rp.accum.keys()
    for name in r8.accum:
        # Bitwise float equality, not approximate: the packed engine must
        # reproduce the reference GEMV exactly.
        np.testing.assert_array_equal(
            r8.accum[name].view(np.uint8),
            rp.accum[name].view(np.uint8),
        )
    np.testing.assert_array_equal(r8.final_values, rp.final_values)


# ---------------------------------------------------------------------- #
# Property test: random netlists, random stimuli, every recording mode
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", PACKED_PATHS, indirect=True)
@given(
    seed=st.integers(0, 100_000),
    batch=st.sampled_from([1, 3, 16, 64, 70, 130]),
    cycles=st.integers(1, 40),
)
# The engine fixture only sets the kernel state, which is the same for
# every example.
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_engines_bit_identical_on_random_netlists(engine, seed, batch, cycles):
    nl = random_netlist(seed, n_gates=60)
    rng = np.random.default_rng(seed + 1)
    stim = rng.integers(
        0, 2, size=(batch, cycles, len(nl.input_ids)), dtype=np.uint8
    )
    cols = np.sort(
        rng.choice(nl.n_nets, size=min(5, nl.n_nets), replace=False)
    )
    w = rng.random(nl.n_nets).astype(np.float32)
    record = RecordSpec(
        full_trace=True, columns=cols, accumulators={"p": w}
    )
    _assert_identical(*_run_both(nl, stim, record, engine))


@pytest.mark.parametrize("engine", PACKED_PATHS, indirect=True)
def test_engines_identical_columns_only_path(engine):
    """Column recording without a dense trace takes a separate fast path."""
    nl = random_netlist(11, n_gates=60)
    rng = np.random.default_rng(12)
    stim = rng.integers(0, 2, size=(70, 33, len(nl.input_ids)), dtype=np.uint8)
    cols = np.sort(rng.choice(nl.n_nets, size=7, replace=False))
    r8, rp = _run_both(nl, stim, RecordSpec(columns=cols), engine)
    np.testing.assert_array_equal(r8.columns, rp.columns)


@pytest.mark.parametrize("engine", PACKED_PATHS, indirect=True)
def test_engines_identical_on_clock_fanout(engine):
    """BUF/NOT driven by CLK nets must see the previous-cycle clock.

    This exercises the packed engine's one exception to BUF/NOT alias
    folding: combinational readers of a clock net observe its value from
    the *previous* cycle, so copies of clock nets stay evaluated.
    """
    nl = Netlist("clkfan")
    en = nl.input_bit("en")
    d_in = nl.input_bit("d")
    dom_g = nl.clock_domain("gated", enable=en)
    dom_f = nl.clock_domain("free")
    clk_g = dom_g.clk_net
    clk_f = dom_f.clk_net
    b1 = nl.gate(Op.BUF, clk_g)  # copy of a gated clock
    n1 = nl.gate(Op.NOT, clk_g)
    b2 = nl.gate(Op.BUF, clk_f)
    n2 = nl.gate(Op.NOT, b2)  # chain off a clock copy
    x = nl.gate(Op.XOR, b1, n1)
    y = nl.gate(Op.AND, n2, d_in)
    nl.reg(nl.gate(Op.OR, x, y), dom_g, init=0)
    nl.reg(y, dom_f, init=1)
    rng = np.random.default_rng(5)
    stim = rng.integers(0, 2, size=(8, 21, 2), dtype=np.uint8)
    w = rng.random(nl.n_nets).astype(np.float32)
    record = RecordSpec(full_trace=True, accumulators={"p": w})
    _assert_identical(*_run_both(nl, stim, record, engine))


@pytest.mark.parametrize("engine", PACKED_PATHS, indirect=True)
def test_engines_identical_on_counter_design(engine):
    for gated in (False, True):
        nl, _ = simple_counter_design(width=5, gated=gated)
        rng = np.random.default_rng(7)
        stim = rng.integers(
            0, 2, size=(3, 40, len(nl.input_ids)), dtype=np.uint8
        )
        _assert_identical(
            *_run_both(nl, stim, RecordSpec(full_trace=True), engine)
        )


@pytest.mark.parametrize("engine", PACKED_PATHS, indirect=True)
def test_engines_identical_on_small_core(small_core, engine):
    """A real (cut-down) core design agrees across engines."""
    rng = np.random.default_rng(9)
    nl = small_core.netlist
    stim = rng.integers(
        0, 2, size=(2, 25, len(nl.input_ids)), dtype=np.uint8
    )
    w = rng.random(nl.n_nets).astype(np.float32)
    record = RecordSpec(full_trace=True, accumulators={"p": w})
    _assert_identical(*_run_both(nl, stim, record, engine))


# ---------------------------------------------------------------------- #
# Chunked simulation: k chunks via init_values == one unchunked run
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)
def test_chunked_run_matches_unchunked(engine):
    nl = random_netlist(21, n_gates=60)
    rng = np.random.default_rng(22)
    batch, cycles = 5, 48
    stim = rng.integers(
        0, 2, size=(batch, cycles, len(nl.input_ids)), dtype=np.uint8
    )
    w = rng.random(nl.n_nets).astype(np.float32)
    record = RecordSpec(full_trace=True, accumulators={"p": w})
    sim = Simulator(nl, engine=engine)
    whole = sim.run(stim, record)

    for k in (2, 3):
        bounds = np.linspace(0, cycles, k + 1, dtype=int)
        prev = None
        traces, accums = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            res = sim.run(
                stim[:, s:e],
                record,
                init_values=None if prev is None else prev.final_values,
            )
            traces.append(res.trace.packed)
            accums.append(res.accum["p"])
            prev = res
        np.testing.assert_array_equal(
            np.concatenate(traces, axis=1), whole.trace.packed
        )
        np.testing.assert_array_equal(
            np.concatenate(accums, axis=1).view(np.uint8),
            whole.accum["p"].view(np.uint8),
        )
        np.testing.assert_array_equal(
            prev.final_values, whole.final_values
        )


@pytest.mark.parametrize("engine", PACKED_PATHS, indirect=True)
def test_chunked_runs_agree_across_engines(engine):
    """Chunk boundary state transfers between engines, either direction."""
    nl = random_netlist(31, n_gates=50)
    rng = np.random.default_rng(32)
    stim = rng.integers(0, 2, size=(4, 30, len(nl.input_ids)), dtype=np.uint8)
    record = RecordSpec(full_trace=True)
    whole = Simulator(nl, engine="uint8").run(stim, record)
    first = Simulator(nl, engine=engine).run(stim[:, :17], record)
    second = Simulator(nl, engine="uint8").run(
        stim[:, 17:], record, init_values=first.final_values
    )
    np.testing.assert_array_equal(
        np.concatenate([first.trace.packed, second.trace.packed], axis=1),
        whole.trace.packed,
    )


# ---------------------------------------------------------------------- #
# Engine selection and lane-word packing primitives
# ---------------------------------------------------------------------- #


def test_unknown_engine_rejected():
    nl, _ = simple_counter_design(width=2)
    with pytest.raises(SimulationError) as exc:
        Simulator(nl, engine="simd")
    # The error names every registered engine so the fix is obvious.
    for name in ENGINES:
        assert name in str(exc.value)
    assert set(ENGINES) == {"packed", "uint8"}


def test_engine_attribute_and_schedule():
    nl, _ = simple_counter_design(width=2)
    packed = Simulator(nl)  # packed is the default
    assert packed.engine == "packed"
    assert packed.packed_schedule is not None
    ref = Simulator(nl, engine="uint8")
    assert ref.engine == "uint8"
    assert ref.packed_schedule is None


@given(
    lanes=st.integers(1, 130),
    rows=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_pack_unpack_lanes_round_trip(lanes, rows, seed):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(rows, lanes), dtype=np.uint8)
    words = pack_lanes(bits)
    assert words.dtype == np.uint64
    assert words.shape == (rows, (lanes + 63) // 64)
    np.testing.assert_array_equal(unpack_lanes(words, lanes), bits)


def test_pack_lanes_bit_order():
    bits = np.zeros((1, 70), dtype=np.uint8)
    bits[0, 0] = 1  # lane 0 -> bit 0 of word 0
    bits[0, 65] = 1  # lane 65 -> bit 1 of word 1
    words = pack_lanes(bits)
    assert words[0, 0] == np.uint64(1)
    assert words[0, 1] == np.uint64(2)


@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)
def test_stream_source_extends_chunked_run(engine):
    """The stream source layer inherits the chunked-run guarantee:
    concatenated SimulatorSource blocks equal the whole-trace proxy
    columns, with per-chunk state handoff hidden from the consumer."""
    from repro.stream import SimulatorSource

    nl = random_netlist(51, n_gates=60)
    rng = np.random.default_rng(52)
    cycles = 53
    stim = rng.integers(0, 2, size=(cycles, len(nl.input_ids)), dtype=np.uint8)
    proxies = np.sort(rng.choice(nl.n_nets, size=7, replace=False))
    whole = Simulator(nl, engine=engine).run(
        stim, RecordSpec(columns=proxies)
    )
    for chunk in (1, 16, 17, 53, 64):
        blocks = list(
            SimulatorSource(
                nl, proxies, stim, chunk_cycles=chunk, engine=engine
            )
        )
        np.testing.assert_array_equal(
            np.concatenate([b.toggles for b in blocks], axis=0),
            whole.columns[0],
        )
        assert blocks[-1].last
        assert sum(b.n_cycles for b in blocks) == cycles
