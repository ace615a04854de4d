"""Direct tests for levelization (evaluation scheduling)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.design import build_core
from repro.power import analyzer
from repro.power.analyzer import PowerAnalyzer
from repro.rtl import Netlist, Op
from repro.rtl.levelize import compile_packed, levelize
from repro.uarch import A77_LIKE, N1_LIKE

from helpers import (
    annotate_capacitance_oracle,
    assert_schedules_identical,
    levelize_oracle,
    packed_alias_oracle,
    random_netlist,
)


def test_levels_follow_dependency_depth():
    nl = Netlist("t")
    a = nl.input_bit("a")
    b = nl.input_bit("b")
    g1 = nl.and_(a, b)  # level 1
    g2 = nl.xor(g1, a)  # level 2
    g3 = nl.or_(g2, g1)  # level 3
    sched = levelize(nl)
    assert sched.levels[a] == 0
    assert sched.levels[g1] == 1
    assert sched.levels[g2] == 2
    assert sched.levels[g3] == 3
    assert sched.max_level == 3


def test_groups_cover_every_comb_net_once():
    nl = Netlist("t")
    a = nl.input_bit("a")
    b = nl.input_bit("b")
    nets = []
    for k in range(30):
        op = [nl.and_, nl.or_, nl.xor][k % 3]
        nets.append(op(a if k % 2 else b, nets[-1] if nets else a))
    sched = levelize(nl)
    seen = np.concatenate([g.out for g in sched.groups])
    assert len(seen) == len(set(seen.tolist())) == 30


def test_groups_sorted_by_level():
    nl = Netlist("t")
    a = nl.input_bit("a")
    x = a
    for _ in range(5):
        x = nl.not_(x)
    sched = levelize(nl)
    levels = [int(sched.levels[g.out[0]]) for g in sched.groups]
    assert levels == sorted(levels)


def test_registers_are_level_zero_sources():
    nl = Netlist("t")
    dom = nl.clock_domain("d")
    a = nl.input_bit("a")
    r = nl.reg(a, dom)
    g = nl.and_(r, a)
    sched = levelize(nl)
    assert sched.levels[r] == 0
    assert sched.levels[g] == 1
    assert r in sched.reg_out.tolist()


def test_reg_enable_bookkeeping():
    nl = Netlist("t")
    en = nl.input_bit("en")
    gated = nl.clock_domain("g", enable=en)
    free = nl.clock_domain("f")
    a = nl.input_bit("a")
    r1 = nl.reg(a, gated)
    r2 = nl.reg(a, free)
    sched = levelize(nl)
    idx1 = sched.reg_out.tolist().index(r1)
    idx2 = sched.reg_out.tolist().index(r2)
    assert sched.reg_en[idx1] == en
    assert sched.reg_en[idx2] == -1  # NO_NET


def test_const_bookkeeping():
    nl = Netlist("t")
    z = nl.const(0)
    o = nl.const(1)
    sched = levelize(nl)
    consts = dict(zip(sched.const_ids.tolist(), sched.const_vals.tolist()))
    assert consts == {z: 0, o: 1}


def test_mux_three_fanin_group():
    nl = Netlist("t")
    s = nl.input_bit("s")
    a = nl.input_bit("a")
    b = nl.input_bit("b")
    m = nl.mux(s, a, b)
    sched = levelize(nl)
    mux_groups = [g for g in sched.groups if g.op == Op.MUX]
    assert len(mux_groups) == 1
    g = mux_groups[0]
    assert g.out[0] == m
    assert (g.a[0], g.b[0], g.c[0]) == (s, a, b)


def test_empty_netlist():
    sched = levelize(Netlist("empty"))
    assert sched.n_nets == 0
    assert sched.max_level == 0
    assert not sched.groups


# ---------------------------------------------------------------------- #
# Array compile path vs the per-net oracles in ``helpers``
# ---------------------------------------------------------------------- #
def _oracle_label_weights(nl):
    """Label weights built on the per-net levelization and capacitance
    annotation."""
    with mock.patch.object(analyzer, "levelize", levelize_oracle), \
            mock.patch.object(analyzer, "annotate_capacitance",
                              annotate_capacitance_oracle):
        return PowerAnalyzer(nl).label_weights()


def _assert_compile_matches_oracles(nl):
    sch = levelize(nl)
    assert_schedules_identical(sch, levelize_oracle(nl))

    psch = compile_packed(nl, sch)
    pol, root, alias = packed_alias_oracle(nl, sch)
    assert psch.pol.dtype == pol.dtype
    np.testing.assert_array_equal(psch.pol, pol)
    # The alias block holds exactly the oracle's aliases in id order,
    # each fed from its root's storage row.
    rows = psch.row_of_net
    np.testing.assert_array_equal(
        rows[alias], np.arange(psch.sl_alias.start, psch.sl_alias.stop)
    )
    np.testing.assert_array_equal(psch.alias_src, rows[root[alias]])

    assert (
        PowerAnalyzer(nl).label_weights().tobytes()
        == _oracle_label_weights(nl).tobytes()
    )


@given(seed=st.integers(0, 100_000), n_gates=st.integers(0, 80))
@settings(max_examples=40, deadline=None)
def test_compile_matches_oracles_on_random_netlists(seed, n_gates):
    _assert_compile_matches_oracles(random_netlist(seed, n_gates=n_gates))


@pytest.mark.parametrize("core", ["small", "n1", "a77"])
def test_compile_matches_oracles_on_cores(core, small_core):
    """``small_core`` has the benchmark core's parameters (same netlist
    fingerprint), so this covers the bench, N1-like and A77-like cores."""
    params = {"n1": N1_LIKE, "a77": A77_LIKE}.get(core)
    nl = small_core.netlist if params is None else build_core(params).netlist
    _assert_compile_matches_oracles(nl)
