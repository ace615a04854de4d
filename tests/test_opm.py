"""Tests for OPM quantization, the behavioural meter, and the gate-level
hardware — including bit-exact hardware-vs-meter verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import opm_oracle
from repro.core import ApolloModel
from repro.errors import OpmError
from repro.opm import (
    OpmMeter,
    QuantizedModel,
    build_opm_netlist,
    estimate_opm_cost,
    quantize_model,
    table3_rows,
)


def _model(q=12, seed=0, negative=True):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.05, 2.0, size=q)
    if negative:
        w[rng.random(q) < 0.25] *= -1
    return ApolloModel(
        proxies=np.arange(q) * 3 + 1,
        weights=w,
        intercept=0.8,
    )


def _toggles(n, q, seed=1):
    rng = np.random.default_rng(seed)
    return (rng.random((n, q)) < rng.uniform(0.05, 0.6, size=q)).astype(
        np.uint8
    )


# --------------------------------------------------------------------- #
# quantization
# --------------------------------------------------------------------- #
def test_quantize_roundtrip_accuracy():
    model = _model()
    X = _toggles(500, model.q).astype(np.float64)
    exact = model.predict(X)
    for bits, tol in ((6, 0.2), (10, 0.02), (14, 0.002)):
        qm = quantize_model(model, bits=bits)
        err = np.abs(qm.predict(X) - exact).max()
        assert err < tol, f"B={bits}: max err {err}"


def test_quantize_error_decreases_with_bits():
    model = _model()
    X = _toggles(400, model.q).astype(np.float64)
    exact = model.predict(X)
    errs = [
        np.abs(quantize_model(model, bits=b).predict(X) - exact).mean()
        for b in (4, 8, 12)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_quantize_validation():
    model = _model()
    with pytest.raises(OpmError):
        quantize_model(model, bits=1)
    zero = ApolloModel(proxies=[1], weights=[0.0])
    with pytest.raises(OpmError):
        quantize_model(zero, bits=8)


def test_accumulator_bits_grow_with_t():
    qm = quantize_model(_model(), bits=10)
    assert qm.accumulator_bits(1) < qm.accumulator_bits(64)


# --------------------------------------------------------------------- #
# behavioural meter
# --------------------------------------------------------------------- #
def test_meter_matches_float_model_closely():
    model = _model()
    qm = quantize_model(model, bits=12)
    X = _toggles(512, model.q)
    meter = OpmMeter(qm, t=8)
    got = meter.read(X)
    expect = model.predict_window(X.astype(float), 8)
    assert np.abs(got - expect).max() < 0.05


def test_meter_bit_drop_division_floor():
    """Integer output = floor(window sum / T), exactly."""
    qm = quantize_model(_model(negative=False), bits=8)
    X = _toggles(64, qm.q)
    meter = OpmMeter(qm, t=4)
    got = meter.accumulate(X)
    sums = opm_oracle(X, qm).reshape(-1, 4).sum(axis=1)
    np.testing.assert_array_equal(got, sums // 4)


def test_meter_requires_pow2_t_and_binary_inputs():
    qm = quantize_model(_model(), bits=8)
    with pytest.raises(OpmError):
        OpmMeter(qm, t=3)
    meter = OpmMeter(qm, t=2)
    with pytest.raises(OpmError):
        meter.accumulate(np.full((8, qm.q), 2))
    with pytest.raises(OpmError):
        meter.accumulate(np.zeros((1, qm.q), dtype=np.uint8))


def test_meter_accumulator_fits_declared_width():
    qm = quantize_model(_model(), bits=10)
    X = np.ones((256, qm.q), dtype=np.uint8)  # worst case: all toggling
    meter = OpmMeter(qm, t=64)
    peak = meter.max_abs_accumulator(X)
    assert peak < 2 ** (qm.accumulator_bits(64) - 1)


def test_max_abs_accumulator_rejects_non_binary_toggles():
    meter = OpmMeter(quantize_model(_model(), bits=10), t=8)
    with pytest.raises(OpmError, match="0 or 1"):
        meter.max_abs_accumulator(np.full((32, meter.qmodel.q), 2))


def _widest_bits(q: int, t: int) -> int:
    """Widest weight width whose T-window sum the gateway admits
    (``accumulator_bits(t) <= 64``)."""
    return 64 - (max(2, q) - 1).bit_length() - (t - 1).bit_length() - 1


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_per_cycle_equals_int64_oracle(data):
    """Every real 0/1 dtype, any row count (0 too), signed intercepts and
    weights up to the widest width admitted at (Q, T)."""
    q = data.draw(st.integers(1, 32), label="q")
    t = data.draw(st.sampled_from([1, 2, 8, 64]), label="t")
    widest = _widest_bits(q, t)
    bits = data.draw(
        st.one_of(st.just(widest), st.integers(2, widest)), label="bits"
    )
    limit = (1 << (bits - 1)) - 1
    ints = st.integers(-limit, limit)
    qm = QuantizedModel(
        proxies=np.arange(q),
        int_weights=np.array(
            data.draw(st.lists(ints, min_size=q, max_size=q)), np.int64
        ),
        int_intercept=data.draw(ints, label="intercept"),
        step=0.01,
        bits=bits,
    )
    assert qm.accumulator_bits(t) <= 64
    rows = data.draw(st.integers(0, 300), label="rows")
    bits01 = data.draw(
        arrays(np.uint8, (rows, q), elements=st.integers(0, 1))
    )
    dtype = data.draw(
        st.sampled_from([np.uint8, np.bool_, np.int64, np.float64])
    )
    got = OpmMeter(qm, t=t).per_cycle(bits01.astype(dtype))
    assert got.dtype == np.int64 and got.shape == (rows,)
    np.testing.assert_array_equal(got, opm_oracle(bits01, qm))


def test_per_cycle_is_exact_where_float64_rounds():
    # Q=24, T=8 admits B=55: per-cycle sums near 2^58 have low bits a
    # float64 sum drops; the int64 kernel keeps every one.
    q, bits = 24, _widest_bits(24, 8)
    assert bits == 55
    limit = (1 << (bits - 1)) - 1
    qm = QuantizedModel(
        proxies=np.arange(q),
        int_weights=np.array([limit - k for k in range(q)], np.int64),
        int_intercept=-limit,
        step=1.0,
        bits=bits,
    )
    X = np.ones((4, q), dtype=np.uint8)
    X[1, ::2] = 0
    exact = [sum(int(w) for w, x in zip(qm.int_weights, row) if x)
             + qm.int_intercept for row in X]
    got = OpmMeter(qm, t=8).per_cycle(X)
    assert got.tolist() == exact
    floats = X.astype(np.float64) @ qm.int_weights.astype(np.float64)
    assert (floats + qm.int_intercept).astype(np.int64).tolist() != exact


def test_int_weights_are_stored_as_int64():
    # A sum in int32 wraps (2^30 + 2^30 -> -2^31), so weights of any
    # integer dtype are widened when the model is built.
    qm = QuantizedModel(
        proxies=np.arange(2),
        int_weights=np.array([2**30, 2**30], dtype=np.int32),
        int_intercept=0,
        step=1.0,
        bits=32,
    )
    assert qm.int_weights.dtype == np.int64
    got = OpmMeter(qm).per_cycle(np.ones((1, 2), dtype=np.uint8))
    assert got.tolist() == [2**31]


def test_quantized_model_rejects_int64_min_weight():
    # np.abs(INT64_MIN) wraps onto itself, so the width check must not
    # use it; no 64-bit signed weight may exceed 2^63 - 1 in magnitude.
    with pytest.raises(OpmError, match="bit width"):
        QuantizedModel(
            proxies=np.arange(1),
            int_weights=np.array([np.iinfo(np.int64).min]),
            int_intercept=0,
            step=1.0,
            bits=64,
        )


@pytest.mark.parametrize("t", [True, 2.0, "4", None])
def test_meter_rejects_non_int_t(t):
    qm = quantize_model(_model(), bits=8)
    with pytest.raises(OpmError, match="T must be an int"):
        OpmMeter(qm, t=t)
    assert OpmMeter(qm, t=np.int64(4)).t == 4


# --------------------------------------------------------------------- #
# gate-level hardware
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("t", [1, 4, 8])
def test_hardware_bit_exact_vs_meter(t):
    model = _model(q=8)
    qm = quantize_model(model, bits=8)
    hw = build_opm_netlist(qm, t=t)
    X = _toggles(8 * t, qm.q, seed=3)
    meter = OpmMeter(qm, t=t)
    np.testing.assert_array_equal(hw.simulate(X), meter.accumulate(X))


def test_hardware_with_clock_proxies_bit_exact():
    model = _model(q=6)
    qm = quantize_model(model, bits=8)
    clock_mask = np.array([True, False, True, False, False, False])
    hw = build_opm_netlist(qm, t=4, clock_mask=clock_mask)
    X = _toggles(32, qm.q, seed=4)
    meter = OpmMeter(qm, t=4)
    np.testing.assert_array_equal(hw.simulate(X), meter.accumulate(X))


def test_hardware_negative_weights_bit_exact():
    rng = np.random.default_rng(9)
    model = ApolloModel(
        proxies=np.arange(5),
        weights=np.array([-1.3, 0.7, -0.2, 1.9, -0.9]),
        intercept=-0.4,
    )
    qm = quantize_model(model, bits=9)
    hw = build_opm_netlist(qm, t=2)
    X = _toggles(20, 5, seed=5)
    meter = OpmMeter(qm, t=2)
    np.testing.assert_array_equal(hw.simulate(X), meter.accumulate(X))


def test_hardware_area_scales_with_q_and_b():
    small = build_opm_netlist(quantize_model(_model(q=6), bits=6))
    big_q = build_opm_netlist(quantize_model(_model(q=24), bits=6))
    big_b = build_opm_netlist(quantize_model(_model(q=6), bits=14))
    assert big_q.area > small.area
    assert big_b.area > small.area


def test_hardware_validation():
    qm = quantize_model(_model(q=4), bits=6)
    with pytest.raises(OpmError):
        build_opm_netlist(qm, t=3)
    with pytest.raises(OpmError):
        build_opm_netlist(qm, t=2, clock_mask=np.zeros(3, dtype=bool))
    hw = build_opm_netlist(qm, t=2)
    with pytest.raises(OpmError):
        hw.simulate(np.zeros((1, 4), dtype=np.uint8))


# --------------------------------------------------------------------- #
# cost model
# --------------------------------------------------------------------- #
def test_cost_report_on_real_core():
    from repro.design import build_core
    from repro.uarch import CoreParams

    core = build_core(CoreParams(name="cost-test", n_alu=1, n_vec=1,
                                 vec_lanes=2, bp_entries=16, iq_size=8,
                                 rob_size=16))
    mon = core.monitorable_nets()
    rng = np.random.default_rng(0)
    proxies = np.sort(rng.choice(mon, size=10, replace=False))
    model = ApolloModel(
        proxies=proxies, weights=rng.uniform(0.1, 1.0, 10), intercept=0.5
    )
    qm = quantize_model(model, bits=8)
    hw = build_opm_netlist(qm, t=4)
    toggles = _toggles(64, 10)
    report = estimate_opm_cost(core, hw, toggles, core_power_mw=3.0)
    assert report.opm_area > 0
    assert report.buffer_area > 0
    assert report.area_overhead_pct > 0
    assert (
        report.area_overhead_pct_paper_scale < report.area_overhead_pct
    )
    assert 0 < report.power_overhead_pct
    assert report.latency_cycles == 2


def test_table3_shape():
    rows = table3_rows(q=159)
    methods = [r["method"] for r in rows]
    assert any("APOLLO" in m for m in methods)
    apollo = [r for r in rows if r["method"] == "APOLLO (per-cycle)"][0]
    assert apollo["counters"] == 1
    assert apollo["multipliers"] == 0
    simmani = [r for r in rows if "Simmani" in r["method"]][0]
    assert simmani["multipliers"] == 159**2


def test_quantized_model_save_load_roundtrip(tmp_path):
    from repro.opm import QuantizedModel

    qm = quantize_model(_model(q=9, seed=3), bits=10)
    path = tmp_path / "opm.npz"
    qm.save(path)
    loaded = QuantizedModel.load(path)
    np.testing.assert_array_equal(loaded.proxies, qm.proxies)
    np.testing.assert_array_equal(loaded.int_weights, qm.int_weights)
    assert loaded.int_intercept == qm.int_intercept
    assert loaded.step == qm.step  # exact: float stored, not re-derived
    assert loaded.bits == qm.bits
    # loaded model meters bit-identically
    X = _toggles(64, 9, seed=4)
    np.testing.assert_array_equal(
        OpmMeter(loaded, t=8).accumulate(X),
        OpmMeter(qm, t=8).accumulate(X),
    )


def test_quantized_model_load_rejects_apollo_artifact(tmp_path):
    from repro.errors import PowerModelError
    from repro.opm import QuantizedModel

    model = _model(q=4, seed=5)
    path = tmp_path / "apollo.npz"
    model.save(path)
    with pytest.raises(PowerModelError):
        QuantizedModel.load(path)


@pytest.mark.parametrize(
    "fields",
    [
        {"proxies": np.arange(5)},  # 5 proxies, 4 weights
        {"int_weights": np.array([1.0, 2.0, 3.0, 4.0])},
        {"int_weights": np.array([True, False, True, True])},
        {"proxies": np.arange(4).reshape(2, 2)},
        {"proxies": np.arange(0), "int_weights": np.arange(0)},
        {"step": float("nan")},
        {"step": float("inf")},
        {"step": 0.0},
        {"step": -0.01},
    ],
)
def test_quantized_model_rejects_malformed_fields(fields):
    from repro.opm import QuantizedModel

    good = dict(proxies=np.arange(4), int_weights=np.array([3, -1, 2, 0]),
                int_intercept=1, step=0.01, bits=8)
    QuantizedModel(**good)
    with pytest.raises(OpmError):
        QuantizedModel(**{**good, **fields})


def _save_foreign_npz(path, kind):
    """Archives that are not a saved QuantizedModel."""
    if kind == "bytes":
        path.write_bytes(b"\x93NUMPY not really an archive")
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "keys":
        np.savez(path, weights=np.arange(3))
    elif kind == "pickle":
        np.savez(path, proxies=np.array([{"a": 1}], dtype=object),
                 int_weights=np.arange(1), int_intercept=0, step=1.0,
                 bits=8)
    elif kind == "shape":
        np.savez(path, proxies=np.arange(2), int_weights=np.arange(2),
                 int_intercept=np.arange(3), step=1.0, bits=8)


@pytest.mark.parametrize("kind", ["bytes", "empty", "keys", "pickle",
                                  "shape"])
def test_quantized_model_load_rejects_foreign_archives(tmp_path, kind):
    from repro.opm import QuantizedModel

    path = tmp_path / "foreign.npz"
    _save_foreign_npz(path, kind)
    with pytest.raises(OpmError):
        QuantizedModel.load(path)


@given(keep=st.floats(0.0, 0.999))
@settings(max_examples=30, deadline=None)
def test_torn_quantized_model_raises_opm_error(tmp_path_factory, keep):
    from repro.opm import QuantizedModel
    from repro.resilience.faults import truncate_file

    path = tmp_path_factory.mktemp("torn") / "opm.npz"
    qm = quantize_model(_model(q=9, seed=3), bits=10)
    qm.save(path)
    truncate_file(path, keep)
    with pytest.raises(OpmError):
        QuantizedModel.load(path)
    # A torn sidecar raises too, unless the cut only took whitespace.
    qm.save(path)
    truncate_file(path.with_name(path.name + ".json"), keep)
    try:
        loaded = QuantizedModel.load(path)
    except OpmError:
        return
    np.testing.assert_array_equal(loaded.int_weights, qm.int_weights)
