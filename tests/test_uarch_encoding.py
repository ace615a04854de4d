"""Bit-level tests for stimulus encoding and channel conventions."""

import numpy as np
import pytest

from repro.uarch.events import ActivityTrace, stimulus_schema
from repro.uarch.params import N1_LIKE


def test_encoding_is_lsb_first():
    trace = ActivityTrace([("v", 4)], 2)
    trace.set("v", 0, 0b1010)
    trace.set("v", 1, 0b0001)
    stim = trace.encode_stimulus()
    np.testing.assert_array_equal(stim[0], [0, 1, 0, 1])
    np.testing.assert_array_equal(stim[1], [1, 0, 0, 0])


def test_encoding_concatenates_in_schema_order():
    trace = ActivityTrace([("a", 2), ("b", 3)], 1)
    trace.set("a", 0, 0b11)
    trace.set("b", 0, 0b101)
    stim = trace.encode_stimulus()
    np.testing.assert_array_equal(stim[0], [1, 1, 1, 0, 1])


def test_total_bits_matches_design_inputs():
    from repro.design import build_core

    core = build_core(N1_LIKE)
    schema_bits = sum(w for _n, w in stimulus_schema(N1_LIKE))
    assert schema_bits == len(core.netlist.input_ids)


def test_channel_values_roundtrip_through_bits():
    rng = np.random.default_rng(0)
    schema = [("x", 7), ("y", 12), ("z", 1)]
    trace = ActivityTrace(schema, 50)
    vals = {}
    for name, width in schema:
        v = rng.integers(0, 1 << width, size=50)
        for c in range(50):
            trace.set(name, c, int(v[c]))
        vals[name] = v
    stim = trace.encode_stimulus()
    col = 0
    for name, width in schema:
        decoded = (
            stim[:, col : col + width]
            @ (1 << np.arange(width))
        )
        np.testing.assert_array_equal(decoded, vals[name])
        col += width


def test_duplicate_channel_names_rejected():
    from repro.errors import StimulusError

    with pytest.raises(StimulusError):
        ActivityTrace([("a", 1), ("a", 2)], 3)


def test_duty_cycle_helper():
    trace = ActivityTrace([("v", 1)], 4)
    trace.set("v", 0, 1)
    trace.set("v", 2, 1)
    assert trace.duty_cycle("v") == pytest.approx(0.5)


def test_channel_widths_outside_0_to_64_rejected():
    """Channel values are uint64, so a wider channel could only ever
    encode zeros above bit 63; the schema is refused instead."""
    from repro.errors import StimulusError

    for width in (65, -1):
        with pytest.raises(StimulusError):
            ActivityTrace([("a", 1), ("w", width)], 3)
    trace = ActivityTrace([("z", 0), ("w", 64)], 2)
    trace.set("w", 1, (1 << 64) - 1)
    stim = trace.encode_stimulus()
    assert stim.shape == (2, 64)
    assert stim[0].sum() == 0 and stim[1].sum() == 64
