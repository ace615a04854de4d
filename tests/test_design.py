"""Tests for the CPU design generator and its integration with the
pipeline model and power analyzer."""

import numpy as np
import pytest

from repro.design import build_core
from repro.errors import NetlistError
from repro.isa import assemble, Program, random_program
from repro.power import PowerAnalyzer
from repro.rtl import RecordSpec, Simulator
from repro.uarch import A77_LIKE, N1_LIKE, Pipeline, stimulus_schema


@pytest.fixture(scope="module")
def n1_core():
    return build_core(N1_LIKE)


@pytest.fixture(scope="module")
def n1_sim(n1_core):
    return Simulator(n1_core.netlist)


def _activity(core, src_or_prog, cycles=200, seed=0):
    if isinstance(src_or_prog, str):
        prog = Program("t", tuple(assemble(src_or_prog)))
    else:
        prog = src_or_prog
    return Pipeline(core.params).run(prog, cycles)[0]


def test_core_builds_and_validates(n1_core):
    s = n1_core.netlist.summary()
    assert s["nets"] > 5000
    assert s["regs"] > 500
    # one domain per unit + global + fine-grained derived domains
    # (decode slots, vector lanes, store buffer)
    expected_min = (
        len(N1_LIKE.unit_names)
        + 1
        + N1_LIKE.fetch_width
        + N1_LIKE.n_vec * N1_LIKE.vec_lanes
        + N1_LIKE.lsu_ports
    )
    assert s["clk"] == expected_min
    assert n1_core.netlist.positions is not None


def test_inputs_match_schema_order(n1_core):
    ids = n1_core.netlist.input_ids
    col = 0
    for name, width in n1_core.schema:
        assert n1_core.ports[name] == ids[col : col + width]
        col += width
    assert col == len(ids)


def test_a77_is_larger_than_n1(n1_core):
    a77 = build_core(A77_LIKE)
    assert a77.n_nets > 1.5 * n1_core.n_nets


def test_every_unit_has_nets(n1_core):
    tags = {u.split("/")[0] for u in n1_core.netlist.unit_names()}
    for unit in N1_LIKE.unit_names:
        assert unit in tags, f"unit {unit} missing from netlist"
    assert "global" in tags


def test_monitorable_excludes_inputs_and_consts(n1_core):
    from repro.rtl.cells import Op

    mon = n1_core.monitorable_nets()
    ops = n1_core.netlist.ops_array()
    assert len(mon) > 0
    bad = {int(Op.INPUT), int(Op.CONST0), int(Op.CONST1)}
    assert not any(int(ops[m]) in bad for m in mon[:500])


def test_stimulus_schema_mismatch_rejected(n1_core):
    from repro.uarch.events import ActivityTrace

    wrong = ActivityTrace([("x", 1)], 10)
    with pytest.raises(NetlistError):
        n1_core.stimulus_for(wrong)


def test_stimulus_schema_width_mismatch_rejected(n1_core):
    """Same channel names and the same total width, but ``issue/occ``
    one bit wider and ``rob/occ`` one bit narrower: the bits would land
    on the wrong input pins, so the trace is refused."""
    from repro.uarch.events import ActivityTrace

    delta = {"issue/occ": 1, "rob/occ": -1}
    schema = [(n, w + delta.get(n, 0)) for n, w in n1_core.schema]
    assert sum(w for _n, w in schema) == len(n1_core.netlist.input_ids)
    with pytest.raises(NetlistError):
        n1_core.stimulus_for(ActivityTrace(schema, 4))


def test_gated_unit_is_quiet_when_idle(n1_core, n1_sim):
    """A scalar-only program must produce ~zero vector-unit power."""
    act = _activity(
        n1_core,
        "movi x1, 1\nmovi x2, 2\nadd x3, x1, x2\nadd x4, x3, x2",
        cycles=300,
    )
    pa = PowerAnalyzer(n1_core.netlist)
    res = n1_sim.run(
        n1_core.stimulus_for(act), RecordSpec(full_trace=True)
    )
    rep = pa.report(res.trace, with_units=True)
    vec_power = rep.by_unit["vec0"].mean()
    alu_power = rep.by_unit["alu0"].mean()
    assert vec_power < 0.05 * alu_power


def test_vector_program_burns_vector_power(n1_core, n1_sim):
    act = _activity(
        n1_core,
        "movi x13, 0\nvld v1, 0(x13)\nvmac v2, v1, v1\nvmac v3, v2, v1\n"
        "vadd v4, v2, v3",
        cycles=300,
    )
    pa = PowerAnalyzer(n1_core.netlist)
    res = n1_sim.run(
        n1_core.stimulus_for(act), RecordSpec(full_trace=True)
    )
    rep = pa.report(res.trace, with_units=True)
    assert rep.by_unit["vec0"].mean() > rep.by_unit["alu1"].mean()


def test_power_is_workload_dependent(n1_core, n1_sim):
    """A vector power virus burns clearly more than a NOP loop, which in
    turn burns more than a serialized dependent chain."""
    pa = PowerAnalyzer(n1_core.netlist)
    w = pa.label_weights()

    def mean_power(src):
        act = _activity(n1_core, src, cycles=300)
        return n1_sim.run(
            n1_core.stimulus_for(act), RecordSpec(accumulators={"p": w})
        ).accum["p"].mean()

    p_nop = mean_power("nop\nnop\nnop\nnop")
    p_virus = mean_power(
        "movi x13, 0\nvld v1, 0(x13)\nvld v2, 4(x13)\n"
        "vmac v3, v1, v2\nvmac v4, v2, v1\nvmul v5, v1, v2\n"
        "vadd v6, v3, v4\nmac x1, x2, x3\nmac x4, x5, x6"
    )
    p_serial = mean_power(
        "movi x1, 3\n" + "\n".join(["mul x1, x1, x1"] * 8)
    )
    assert p_virus > 1.5 * p_nop
    assert p_serial < p_virus


def test_baseline_power_never_zero(n1_core, n1_sim):
    """The always-on global domain keeps idle cycles above zero power."""
    pa = PowerAnalyzer(n1_core.netlist)
    act = _activity(n1_core, "nop\nnop\nnop\nnop", cycles=200)
    p = n1_sim.run(
        n1_core.stimulus_for(act),
        RecordSpec(accumulators={"p": pa.label_weights()}),
    ).accum["p"][0]
    assert p.min() > 0


def test_floorplan_covers_units(n1_core):
    for unit in N1_LIKE.unit_names:
        assert unit in n1_core.floorplan
    # rectangles are non-degenerate
    for x0, y0, x1, y1 in n1_core.floorplan.values():
        assert x1 > x0 and y1 > y0


def test_unit_of_net_strips_hierarchy(n1_core):
    vec_nets = [
        i
        for i in range(n1_core.n_nets)
        if n1_core.netlist.unit_of(i).startswith("vec0/")
    ]
    assert vec_nets
    assert n1_core.unit_of_net(vec_nets[0]) == "vec0"
