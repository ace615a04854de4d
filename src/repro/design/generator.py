"""Core assembly: schema-ordered ports, gated domains, unit netlists.

``build_core`` is the reproduction's stand-in for "the RTL of an arbitrary
CPU design" handed to APOLLO: given :class:`~repro.uarch.params.CoreParams`
it emits a netlist whose inputs exactly match the pipeline model's stimulus
schema, builds each functional unit inside its own gated clock domain, and
annotates a floorplan placement used by the OPM routing-cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetlistError
from repro.rtl.netlist import ClockDomain, Netlist
from repro.uarch.events import ActivityTrace, stimulus_schema
from repro.uarch.params import CoreParams
from repro.design import units as unit_builders

__all__ = ["CoreDesign", "build_core"]


@dataclass
class CoreDesign:
    """A generated core: netlist + the metadata experiments need."""

    params: CoreParams
    netlist: Netlist
    schema: list[tuple[str, int]]
    ports: dict[str, list[int]]
    domains: dict[str, ClockDomain]
    floorplan: dict[str, tuple[float, float, float, float]] = field(
        default_factory=dict
    )

    @property
    def n_nets(self) -> int:
        return self.netlist.n_nets

    def unit_of_net(self, net: int) -> str:
        """Top-level unit tag of a net ("alu0", "issue", ...)."""
        unit = self.netlist.unit_of(net)
        return unit.split("/")[0]

    def monitorable_nets(self) -> np.ndarray:
        """Net ids APOLLO may select as proxies.

        Everything except tie cells and raw input pins — matching the
        paper, where proxies are internal RTL signals (including gated
        clocks) rather than top-level ports.
        """
        from repro.rtl.cells import Op

        ops = self.netlist.ops_array()
        mask = (ops != int(Op.CONST0)) & (ops != int(Op.CONST1)) & (
            ops != int(Op.INPUT)
        )
        return np.nonzero(mask)[0].astype(np.int64)

    def stimulus_for(self, activity: ActivityTrace) -> np.ndarray:
        """Encode a pipeline activity trace for this design's inputs.

        The trace's (channel, width) schema must equal the design's: a
        width mismatch would shift every later channel onto the wrong
        input pins.
        """
        if list(map(tuple, activity.schema)) != list(map(tuple, self.schema)):
            raise NetlistError(
                "activity trace schema does not match design schema"
            )
        return activity.encode_stimulus()


def build_core(params: CoreParams) -> CoreDesign:
    """Generate the gate-level core for ``params``."""
    nl = Netlist(params.name)
    schema = stimulus_schema(params)

    # 1. Inputs first, in schema order (the simulator feeds them by
    #    creation order).
    ports: dict[str, list[int]] = {}
    for name, width in schema:
        ports[name] = nl.input_bus(name, width)

    # 2. One gated clock domain per unit, enabled by its clk_en port.
    #    Domains are created inside the unit scope so their clock-tree
    #    nets attribute to the unit in power breakdowns and Fig. 15(a).
    domains: dict[str, ClockDomain] = {}
    for unit in params.unit_names:
        with nl.scope(unit):
            domains[unit] = nl.clock_domain(
                unit, enable=ports[f"{unit}/clk_en"][0]
            )

    # 2b. A small always-on "global" domain (cycle counter, LFSR-based
    #     debug/DFT churn): real cores never gate everything, so baseline
    #     power stays above zero on fully idle cycles.
    with nl.scope("global"):
        gdom = nl.clock_domain("global", enable=None)
        domains["global"] = gdom
        from repro.rtl.datapath import (
            connect_register_bus,
            incrementer,
            register_bus_uninit,
        )

        ctr = register_bus_uninit(nl, 12, gdom, name="cycles")
        connect_register_bus(nl, ctr, incrementer(nl, ctr))
        lfsr = register_bus_uninit(nl, 16, gdom, name="lfsr", init=0xACE1)
        fb = nl.xor(
            nl.xor(lfsr[15], lfsr[13]), nl.xor(lfsr[12], lfsr[10])
        )
        connect_register_bus(nl, lfsr, [fb] + lfsr[:-1])

    # 3. Unit logic.
    with nl.scope("fetch"):
        unit_builders.build_fetch(nl, domains["fetch"], ports, params)
    with nl.scope("decode"):
        unit_builders.build_decode(nl, domains["decode"], ports, params)
    with nl.scope("rename"):
        unit_builders.build_rename(nl, domains["rename"], ports, params)
    with nl.scope("issue"):
        unit_builders.build_issue(nl, domains["issue"], ports, params)
    with nl.scope("rob"):
        unit_builders.build_rob(nl, domains["rob"], ports, params)
    for i in range(params.n_alu):
        with nl.scope(f"alu{i}"):
            unit_builders.build_alu(nl, domains[f"alu{i}"], ports, params, i)
    for i in range(params.n_mul):
        with nl.scope(f"mul{i}"):
            unit_builders.build_mul(nl, domains[f"mul{i}"], ports, params, i)
    for i in range(params.n_vec):
        with nl.scope(f"vec{i}"):
            unit_builders.build_vec(nl, domains[f"vec{i}"], ports, params, i)
    for i in range(params.lsu_ports):
        with nl.scope(f"lsu{i}"):
            unit_builders.build_lsu(nl, domains[f"lsu{i}"], ports, params, i)
    with nl.scope("l2ctl"):
        unit_builders.build_l2ctl(nl, domains["l2ctl"], ports, params)

    nl.validate()
    floorplan = _place(nl, params)
    return CoreDesign(
        params=params,
        netlist=nl,
        schema=schema,
        ports=ports,
        domains=domains,
        floorplan=floorplan,
    )


def _place(
    nl: Netlist, params: CoreParams
) -> dict[str, tuple[float, float, float, float]]:
    """Assign each unit a floorplan rectangle and scatter its nets inside.

    The floorplan is a grid of unit tiles on a square die whose side scales
    with total area.  Net coordinates feed the OPM's proxy-routing buffer
    model (§7.5: proxies routed to a centralized OPM need buffers).
    """
    unit_tags = nl.units_array()
    top_tags = np.array([t.split("/")[0] for t in unit_tags])
    units = [u for u in dict.fromkeys(top_tags) if u != "top"]
    total = max(1.0, sum(nl.area_by_unit().values()))
    die = math.sqrt(total) * 1.2
    cols = math.ceil(math.sqrt(len(units)))
    rows = math.ceil(len(units) / cols)
    tile_w, tile_h = die / cols, die / rows

    floorplan: dict[str, tuple[float, float, float, float]] = {}
    for k, unit in enumerate(units):
        cx, cy = k % cols, k // cols
        floorplan[unit] = (
            cx * tile_w, cy * tile_h, (cx + 1) * tile_w, (cy + 1) * tile_h
        )

    rng = np.random.default_rng(0xF100F)
    xy = np.zeros((nl.n_nets, 2), dtype=np.float64)
    for unit in units:
        x0, y0, x1, y1 = floorplan[unit]
        mask = top_tags == unit
        n = int(mask.sum())
        if n:
            xy[mask, 0] = rng.uniform(x0, x1, size=n)
            xy[mask, 1] = rng.uniform(y0, y1, size=n)
    # "top" nets (ports etc.) scatter over the whole die.
    top_mask = top_tags == "top"
    n_top = int(top_mask.sum())
    if n_top:
        xy[top_mask, 0] = rng.uniform(0, die, size=n_top)
        xy[top_mask, 1] = rng.uniform(0, die, size=n_top)
    nl.set_positions(xy)
    return floorplan
