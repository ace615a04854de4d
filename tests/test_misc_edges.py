"""Edge-case tests across subsystems: chunked simulation continuation,
routing-cost preconditions, error hierarchy, dataset versioning."""

import numpy as np
import pytest

from repro import errors
from repro.rtl import Netlist, RecordSpec, Simulator

from helpers import simple_counter_design


# --------------------------------------------------------------------- #
# chunked simulation equals one-shot simulation
# --------------------------------------------------------------------- #
def test_chunked_run_bit_identical():
    nl, nets = simple_counter_design(width=4, gated=True)
    sim = Simulator(nl)
    rng = np.random.default_rng(0)
    stim = rng.integers(0, 2, size=(64, 1), dtype=np.uint8)

    whole = sim.run(stim).trace.dense()
    state = None
    pieces = []
    for start in range(0, 64, 16):
        res = sim.run(stim[start : start + 16], init_values=state)
        state = res.final_values
        pieces.append(res.trace.dense())
    np.testing.assert_array_equal(
        whole, np.concatenate(pieces, axis=1)
    )


def test_init_values_shape_checked():
    nl, _ = simple_counter_design(width=2)
    sim = Simulator(nl)
    with pytest.raises(errors.SimulationError):
        sim.run(
            np.zeros((4, 0), dtype=np.uint8),
            init_values=np.zeros((3, 1), dtype=np.uint8),
        )


# --------------------------------------------------------------------- #
# routing-cost preconditions
# --------------------------------------------------------------------- #
def test_opm_cost_requires_placement():
    from repro.core import ApolloModel
    from repro.opm import build_opm_netlist, estimate_opm_cost, \
        quantize_model

    class FakeCore:
        pass

    nl, nets = simple_counter_design(width=4)
    fake = FakeCore()
    fake.netlist = nl  # no positions attached
    model = ApolloModel(
        proxies=np.asarray(nets["regs"]),
        weights=np.ones(4),
        intercept=0.0,
    )
    hw = build_opm_netlist(quantize_model(model, bits=6))
    toggles = np.zeros((8, 4), dtype=np.uint8)
    toggles[::2] = 1
    with pytest.raises(errors.OpmError):
        estimate_opm_cost(fake, hw, toggles, core_power_mw=1.0)


def test_opm_cost_requires_positive_core_power():
    from repro.core import ApolloModel
    from repro.opm import build_opm_netlist, estimate_opm_cost, \
        quantize_model
    from repro.errors import OpmError

    model = ApolloModel(proxies=[0], weights=[1.0])
    hw = build_opm_netlist(quantize_model(model, bits=6))
    with pytest.raises(OpmError):
        estimate_opm_cost(
            None, hw, np.zeros((4, 1), dtype=np.uint8),
            core_power_mw=0.0,
        )


# --------------------------------------------------------------------- #
# error hierarchy
# --------------------------------------------------------------------- #
def test_all_errors_derive_from_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)
    assert issubclass(errors.StimulusError, errors.SimulationError)
    assert issubclass(errors.SelectionError, errors.PowerModelError)


# --------------------------------------------------------------------- #
# dataset versioning invalidates caches
# --------------------------------------------------------------------- #
def test_cache_key_includes_dataset_version(tmp_path, monkeypatch):
    from repro.experiments import ExperimentContext

    ctx = ExperimentContext(design="n1", scale="tiny", cache_dir=tmp_path)
    key_v = ctx._key("train")
    import repro.genbench.dataset as ds

    monkeypatch.setattr(ds, "DATASET_VERSION", ds.DATASET_VERSION + 1)
    key_v2 = ctx._key("train")
    assert key_v != key_v2


def test_cache_key_includes_netlist_content(tmp_path):
    # Same summary (nets, regs, domains...), different gates: an AND
    # made an OR must not load the other design's datasets.
    from types import SimpleNamespace

    from repro.experiments import ExperimentContext

    keys = []
    for gate in ("and_", "or_"):
        nl = Netlist("t")
        a, b = nl.input_bit("a"), nl.input_bit("b")
        getattr(nl, gate)(a, b)
        ctx = ExperimentContext(design="n1", scale="tiny", cache_dir=tmp_path)
        ctx._core = SimpleNamespace(netlist=nl)
        keys.append((nl.summary(), nl.fingerprint(), ctx._key("train")))
    (s_and, fp_and, key_and), (s_or, fp_or, key_or) = keys
    assert s_and == s_or and fp_and != fp_or
    assert key_and != key_or
