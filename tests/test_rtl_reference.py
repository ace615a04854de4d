"""Differential tests: vectorized simulator vs the reference interpreter.

Random netlists (gate soup with registers, gated domains, consts) and
random stimuli must produce bit-identical toggle streams from both
engines.  This is the strongest correctness evidence for the simulator
that every experiment depends on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StimulusError
from repro.rtl import ENGINES, Netlist, Simulator
from repro.rtl.reference import ReferenceSimulator

from helpers import random_netlist, simple_counter_design


@given(st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_vectorized_matches_reference_on_random_netlists(seed):
    nl = random_netlist(seed)
    rng = np.random.default_rng(seed + 1)
    stim = rng.integers(0, 2, size=(12, 4), dtype=np.uint8)
    fast = Simulator(nl).run(stim).trace.dense()[0]
    slow = ReferenceSimulator(nl).run(stim)
    np.testing.assert_array_equal(fast, slow)


def test_reference_clock_readers_see_previous_cycle_clock():
    """Logic reading a CLK net sees the clock's previous-cycle value in
    every engine, the reference included."""
    nl = Netlist("clkread")
    en = nl.input_bit("en")
    d_in = nl.input_bit("d")
    dom_g = nl.clock_domain("gated", enable=en)
    dom_f = nl.clock_domain("free")
    x = nl.xor(dom_g.clk_net, d_in)
    y = nl.and_(nl.not_(dom_f.clk_net), x)
    nl.reg(nl.or_(x, y), dom_g, init=1)
    rng = np.random.default_rng(6)
    stim = rng.integers(0, 2, size=(20, 2), dtype=np.uint8)
    slow = ReferenceSimulator(nl).run(stim)
    for engine in ENGINES:
        fast = Simulator(nl, engine=engine).run(stim).trace.dense()[0]
        np.testing.assert_array_equal(fast, slow)


def test_reference_on_counter_design():
    nl, _nets = simple_counter_design(width=4, gated=True)
    rng = np.random.default_rng(0)
    stim = rng.integers(0, 2, size=(15, 1), dtype=np.uint8)
    fast = Simulator(nl).run(stim).trace.dense()[0]
    slow = ReferenceSimulator(nl).run(stim)
    np.testing.assert_array_equal(fast, slow)


def test_reference_stimulus_validation():
    nl, _ = simple_counter_design(width=2, gated=True)
    with pytest.raises(StimulusError):
        ReferenceSimulator(nl).run(np.zeros((4, 3), dtype=np.uint8))


def test_reference_matches_on_real_core_fragment():
    """A small real unit (the ALU) agrees between both engines."""
    from repro.rtl.datapath import register_bus
    from repro.design.units import build_alu
    from repro.uarch import CoreParams
    from repro.uarch.events import stimulus_schema

    params = CoreParams(name="frag", n_alu=1)
    nl = Netlist("frag")
    ports = {}
    for name, width in stimulus_schema(params):
        ports[name] = nl.input_bus(name, width)
    dom = nl.clock_domain("alu0", enable=ports["alu0/clk_en"][0])
    with nl.scope("alu0"):
        build_alu(nl, dom, ports, params, 0)
    rng = np.random.default_rng(3)
    stim = rng.integers(
        0, 2, size=(10, len(nl.input_ids)), dtype=np.uint8
    )
    fast = Simulator(nl).run(stim).trace.dense()[0]
    slow = ReferenceSimulator(nl).run(stim)
    np.testing.assert_array_equal(fast, slow)
