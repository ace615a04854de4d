"""Tests for the vectorized cycle simulator."""

import numpy as np
import pytest

from repro.errors import SimulationError, StimulusError
from repro.rtl import ENGINES, Netlist, RecordSpec, Simulator
from repro.rtl.datapath import (
    connect_register_bus,
    incrementer,
    register_bus_uninit,
)

from helpers import random_netlist, simple_counter_design


def _counter_values(trace_dense, regs):
    """Reconstruct counter values from toggles (start at 0)."""
    vals = []
    cur = [0] * len(regs)
    for cyc in range(trace_dense.shape[1]):
        for k, r in enumerate(regs):
            cur[k] ^= int(trace_dense[0, cyc, r])
        vals.append(sum(bit << i for i, bit in enumerate(cur)))
    return vals


def test_counter_counts():
    nl, nets = simple_counter_design(width=4)
    sim = Simulator(nl)
    stim = np.zeros((10, 0), dtype=np.uint8)
    res = sim.run(stim)
    dense = res.trace.dense()
    values = _counter_values(dense, nets["regs"])
    # The first posedge (start of cycle 0) captures the increment computed
    # in the reset state, so the counter reads 1 during cycle 0.
    assert values == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_gated_counter_holds_when_disabled():
    nl, nets = simple_counter_design(width=4, gated=True)
    sim = Simulator(nl)
    en = np.array([1, 1, 0, 0, 1, 1, 1, 0, 1, 1], dtype=np.uint8)
    stim = en[:, None]
    res = sim.run(stim)
    dense = res.trace.dense()
    values = _counter_values(dense, nets["regs"])
    # The enable seen at cycle i gates the capture at cycle i+1.
    expect = [0]
    for e in en[:-1]:
        expect.append(expect[-1] + int(e))
    assert values == expect


def test_clock_net_toggles_follow_enable():
    nl, nets = simple_counter_design(width=2, gated=True)
    sim = Simulator(nl)
    en = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    res = sim.run(en[:, None])
    clk = nl.domains[0].clk_net
    clk_toggles = res.trace.dense()[0, :, clk]
    # Clock toggle at cycle i equals the enable latched in cycle i-1;
    # the reset-state enable is 0.
    assert list(clk_toggles) == [0, 1, 0, 1, 0]


def test_always_on_clock_toggles_every_cycle():
    nl, nets = simple_counter_design(width=2, gated=False)
    sim = Simulator(nl)
    res = sim.run(np.zeros((6, 0), dtype=np.uint8))
    clk = nl.domains[0].clk_net
    assert res.trace.dense()[0, :, clk].tolist() == [1] * 6


def test_batched_run_matches_independent_runs():
    nl, nets = simple_counter_design(width=4, gated=True)
    sim = Simulator(nl)
    rng = np.random.default_rng(0)
    stim = rng.integers(0, 2, size=(3, 12, 1), dtype=np.uint8)
    batched = sim.run(stim)
    for k in range(3):
        single = sim.run(stim[k])
        np.testing.assert_array_equal(
            batched.trace.dense()[k], single.trace.dense()[0]
        )


def test_column_recording_matches_full_trace():
    nl, nets = simple_counter_design(width=4)
    sim = Simulator(nl)
    stim = np.zeros((8, 0), dtype=np.uint8)
    cols = np.asarray(nets["regs"], dtype=np.int64)
    full = sim.run(stim, RecordSpec(full_trace=True))
    part = sim.run(stim, RecordSpec(columns=cols))
    np.testing.assert_array_equal(
        part.columns[0], full.trace.dense(cols)[0]
    )
    assert part.trace is None


def test_accumulator_matches_weighted_toggles():
    nl, nets = simple_counter_design(width=4)
    sim = Simulator(nl)
    stim = np.zeros((8, 0), dtype=np.uint8)
    rng = np.random.default_rng(1)
    w = rng.random(nl.n_nets).astype(np.float32)
    res = sim.run(
        stim, RecordSpec(full_trace=True, accumulators={"p": w})
    )
    dense = res.trace.dense()[0].astype(np.float64)
    np.testing.assert_allclose(
        res.accum["p"][0], dense @ w, rtol=1e-5
    )


def test_stimulus_width_checked():
    nl, nets = simple_counter_design(width=2, gated=True)
    sim = Simulator(nl)
    with pytest.raises(StimulusError):
        sim.run(np.zeros((5, 3), dtype=np.uint8))


def test_bad_record_columns_rejected():
    nl, _ = simple_counter_design(width=2)
    sim = Simulator(nl)
    with pytest.raises(SimulationError):
        sim.run(
            np.zeros((3, 0), dtype=np.uint8),
            RecordSpec(columns=np.array([999])),
        )


def test_bad_accumulator_shape_rejected():
    nl, _ = simple_counter_design(width=2)
    sim = Simulator(nl)
    with pytest.raises(SimulationError):
        sim.run(
            np.zeros((3, 0), dtype=np.uint8),
            RecordSpec(accumulators={"w": np.zeros(3, dtype=np.float32)}),
        )


def _random_run_args(seed=3):
    nl = random_netlist(seed, n_gates=60)
    rng = np.random.default_rng(seed)
    stim = rng.integers(0, 2, size=(4, 12, len(nl.input_ids)))
    return nl, stim


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "value, dtype",
    [(2, np.uint8), (255, np.uint8), (256, np.int64), (-1, np.int64),
     (0.5, np.float64)],
    ids=["uint8-2", "uint8-255", "int64-256", "int64-minus-1", "float-half"],
)
def test_run_rejects_non_binary_stimulus(engine, value, dtype):
    # A uint8 cast would wrap 256 to 0 and -1 to 255, and the engines
    # disagree on any value but 0 or 1, so the check runs before it.
    nl, stim = _random_run_args()
    stim = stim.astype(dtype)
    stim[1, 5, 0] = value
    with pytest.raises(StimulusError, match="stimulus must be 0 or 1"):
        Simulator(nl, engine=engine).run(stim)


@pytest.mark.parametrize("engine", ENGINES)
def test_run_rejects_non_binary_init_values(engine):
    nl, stim = _random_run_args()
    sim = Simulator(nl, engine=engine)
    init = sim.run(stim[:, :4]).final_values.copy()
    init[0, 1] = 2
    with pytest.raises(StimulusError, match="init_values must be 0 or 1"):
        sim.run(stim, init_values=init)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e39],
                         ids=["inf", "-inf", "nan", "1e39"])
def test_run_rejects_non_finite_accumulator_weights(engine, bad):
    # 1e39 is finite as float64 but overflows the float32 cast.
    nl, stim = _random_run_args()
    w = np.ones(nl.n_nets, dtype=np.float64)
    w[nl.n_nets // 2] = bad
    with pytest.raises(SimulationError, match="non-finite"):
        Simulator(nl, engine=engine).run(
            stim, RecordSpec(accumulators={"p": w})
        )


def test_run_accepts_bool_and_wide_binary_stimulus():
    nl, stim = _random_run_args()
    sim = Simulator(nl)
    want = sim.run(stim.astype(np.uint8))
    for arr in (stim.astype(bool), stim.astype(np.int64),
                stim.astype(np.float32)):
        got = sim.run(arr)
        np.testing.assert_array_equal(got.trace.packed, want.trace.packed)


def test_comb_eval_applies_inputs():
    nl = Netlist("t")
    a = nl.input_bit("a")
    b = nl.input_bit("b")
    g = nl.and_(a, b)
    sim = Simulator(nl)
    vals = sim.comb_eval(np.array([1, 1], dtype=np.uint8))
    assert vals[g, 0] == 1
    vals = sim.comb_eval(np.array([1, 0], dtype=np.uint8))
    assert vals[g, 0] == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "bits",
    [np.array([256, 1]), np.array([2, 3], dtype=np.uint8)],
    ids=["int-256-wraps-to-0", "uint8-above-1"],
)
def test_comb_eval_rejects_non_binary_inputs(engine, bits):
    # A bare uint8 cast would read 256 as 0 and pass 2 and 3 through.
    nl = Netlist("t")
    nl.and_(nl.input_bit("a"), nl.input_bit("b"))
    with pytest.raises(StimulusError, match="input_bits"):
        Simulator(nl, engine=engine).comb_eval(bits)


def test_determinism():
    nl, nets = simple_counter_design(width=4, gated=True)
    sim = Simulator(nl)
    rng = np.random.default_rng(7)
    stim = rng.integers(0, 2, size=(20, 1), dtype=np.uint8)
    r1 = sim.run(stim)
    r2 = sim.run(stim)
    np.testing.assert_array_equal(r1.trace.packed, r2.trace.packed)


def test_mux_feedback_pipeline():
    """A 2-stage pipeline built directly: r2 <- r1 <- input."""
    nl = Netlist("t")
    d = nl.input_bit("d")
    dom = nl.clock_domain("main")
    r1 = nl.reg(d, dom, name="r1")
    r2 = nl.reg(r1, dom, name="r2")
    sim = Simulator(nl)
    stim = np.array([[1], [0], [1], [1], [0]], dtype=np.uint8)
    res = sim.run(stim)
    dense = res.trace.dense()[0]
    # Reconstruct r2 values from its toggles.
    v, seq = 0, []
    for c in range(5):
        v ^= int(dense[c, r2])
        seq.append(v)
    # r2 sees the input delayed by two cycles (reset value 0).
    assert seq == [0, 0, 1, 0, 1]
