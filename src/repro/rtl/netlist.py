"""Netlist IR: a flat array-of-structs of single-bit nets with hierarchy.

The builder API is designed for programmatic design generation: gates are
appended one at a time (or via the bus-level combinators in
:mod:`repro.rtl.datapath`) and the netlist keeps struct-of-arrays storage so
the simulator can compile it into vectorized NumPy schedules.

Concepts
--------
* **Net** — one single-bit signal driven by one cell (:class:`~repro.rtl.cells.Op`).
* **Unit** — a hierarchy tag (e.g. ``"issue"``, ``"vec0"``); set via the
  :meth:`Netlist.scope` context manager and used for power breakdowns and
  Fig. 15(a)'s proxy distribution.
* **Clock domain** — a group of registers gated by one enable net.  Each
  domain owns a ``CLK`` net modeling its clock-tree branch; the CLK net's
  per-cycle toggle bit equals the (latched) enable, mirroring how APOLLO
  traces gated clocks through their enable signals (§6 of the paper).
* **Bus** — a named ordered list of nets; used by the OPM interface
  generator to share one toggle detector OR-tree per bus.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import NetlistError
from repro.rtl.cells import CELL_LIBRARY, EVAL_OPS, IS_EVAL, N_FANIN, Op

__all__ = ["Netlist", "ClockDomain"]

NO_NET = -1


@dataclass
class ClockDomain:
    """A gated clock domain.

    Attributes
    ----------
    index:
        Domain id (position in :attr:`Netlist.domains`).
    name:
        Human-readable name, usually the unit it clocks.
    enable:
        Net id of the clock-gate enable, or ``None`` for an always-on
        domain (the root clock).
    clk_net:
        Net id of this domain's ``CLK`` net.
    """

    index: int
    name: str
    enable: int | None
    clk_net: int

    @property
    def gated(self) -> bool:
        return self.enable is not None


class Netlist:
    """A mutable flat netlist of single-bit nets.

    Nets are identified by dense integer ids in creation order.  The class
    exposes low-level primitives (``gate``, ``reg``, ``input_bit``) plus a
    handful of conveniences; wider datapath combinators live in
    :mod:`repro.rtl.datapath`.
    """

    def __init__(self, name: str = "design") -> None:
        self.name = name
        self._op: list[int] = []
        self._fanin: list[tuple[int, int, int]] = []
        self._names: list[str] = []
        self._units: list[str] = []
        self._reg_domain: list[int] = []  # parallel to nets; -1 for non-regs
        self._reg_init: list[int] = []  # parallel to nets; 0 for non-regs
        self.domains: list[ClockDomain] = []
        self.buses: dict[str, list[int]] = {}
        self._unit_stack: list[str] = []
        self._name_counts: dict[str, int] = {}
        # Optional physical placement (set by the design generator); used by
        # the OPM routing-overhead model.  Filled lazily; None until set.
        self._xy: np.ndarray | None = None
        # Cached content hash; invalidated by structural edits.
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._op)

    @property
    def n_nets(self) -> int:
        return len(self._op)

    def op_of(self, net: int) -> Op:
        return Op(self._op[net])

    def fanin_of(self, net: int) -> tuple[int, ...]:
        n = N_FANIN[Op(self._op[net])]
        return tuple(self._fanin[net][:n])

    def name_of(self, net: int) -> str:
        return self._names[net]

    def unit_of(self, net: int) -> str:
        return self._units[net]

    def domain_of_reg(self, net: int) -> ClockDomain:
        d = self._reg_domain[net]
        if d < 0:
            raise NetlistError(f"net {net} ({self._names[net]}) is not a REG")
        return self.domains[d]

    @property
    def input_ids(self) -> list[int]:
        return np.flatnonzero(self.ops_array() == Op.INPUT).tolist()

    @property
    def reg_ids(self) -> list[int]:
        return np.flatnonzero(self.ops_array() == Op.REG).tolist()

    @property
    def clk_ids(self) -> list[int]:
        return [d.clk_net for d in self.domains]

    def ops_array(self) -> np.ndarray:
        return np.asarray(self._op, dtype=np.int8)

    def fanin_array(self) -> np.ndarray:
        return np.fromiter(
            chain.from_iterable(self._fanin), dtype=np.int32,
            count=3 * len(self._fanin),
        ).reshape(-1, 3)

    def units_array(self) -> np.ndarray:
        return np.asarray(self._units, dtype=object)

    def unit_names(self) -> list[str]:
        """Distinct unit tags in first-appearance order."""
        seen: dict[str, None] = {}
        for u in self._units:
            seen.setdefault(u, None)
        return list(seen)

    def nets_in_unit(self, unit: str) -> list[int]:
        return [i for i, u in enumerate(self._units) if u == unit]

    def fanout_counts(self) -> np.ndarray:
        """Number of sinks per net (how many fanin slots reference it)."""
        counts = np.zeros(self.n_nets, dtype=np.int32)
        fanin = self.fanin_array()
        used = fanin[fanin >= 0]
        if used.size:
            np.add.at(counts, used, 1)
        return counts

    def fingerprint(self) -> str:
        """Content hash (hex sha256) of the simulation-relevant structure.

        Covers ops, fanin, register init values and domain assignments,
        and each domain's enable/CLK wiring — everything that determines
        simulation results.  Names, units, buses, and placement are
        deliberately excluded: two netlists with the same fingerprint
        simulate identically, which is what content-addressed evaluation
        caching (:class:`repro.parallel.EvalCache`) keys on.  The hash is
        cached and invalidated by structural edits.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(np.int64(self.n_nets).tobytes())
            h.update(self.ops_array().tobytes())
            h.update(self.fanin_array().tobytes())
            h.update(self.reg_init_array().tobytes())
            h.update(self.reg_domain_array().tobytes())
            for dom in self.domains:
                enable = NO_NET if dom.enable is None else dom.enable
                h.update(np.asarray(
                    [enable, dom.clk_net], dtype=np.int64
                ).tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def total_area(self) -> float:
        """Sum of cell areas in gate equivalents."""
        return float(
            sum(CELL_LIBRARY[Op(op)].area for op in self._op)
        )

    def area_by_unit(self) -> dict[str, float]:
        areas: dict[str, float] = {}
        for op, unit in zip(self._op, self._units):
            areas[unit] = areas.get(unit, 0.0) + CELL_LIBRARY[Op(op)].area
        return areas

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    def set_positions(self, xy: np.ndarray) -> None:
        """Attach (n_nets, 2) float placement coordinates (arbitrary units)."""
        xy = np.asarray(xy, dtype=np.float64)
        if xy.shape != (self.n_nets, 2):
            raise NetlistError(
                f"positions shape {xy.shape} != ({self.n_nets}, 2)"
            )
        self._xy = xy

    @property
    def positions(self) -> np.ndarray | None:
        return self._xy

    # ------------------------------------------------------------------ #
    # hierarchy
    # ------------------------------------------------------------------ #
    @contextmanager
    def scope(self, unit: str) -> Iterator[None]:
        """Tag nets created inside the context with ``unit``.

        Scopes nest with ``/`` separators: ``scope("vec0")`` inside
        ``scope("exec")`` tags nets as ``"exec/vec0"``.
        """
        if self._unit_stack:
            unit = f"{self._unit_stack[-1]}/{unit}"
        self._unit_stack.append(unit)
        try:
            yield
        finally:
            self._unit_stack.pop()

    @property
    def current_unit(self) -> str:
        return self._unit_stack[-1] if self._unit_stack else "top"

    def _fresh_name(self, base: str) -> str:
        key = f"{self.current_unit}/{base}"
        n = self._name_counts.get(key, 0)
        self._name_counts[key] = n + 1
        return key if n == 0 else f"{key}${n}"

    # ------------------------------------------------------------------ #
    # construction primitives
    # ------------------------------------------------------------------ #
    def _append(
        self,
        op: Op,
        fanin: Sequence[int],
        name: str | None,
        domain: int = -1,
        init: int = 0,
    ) -> int:
        want = N_FANIN[op]
        if len(fanin) != want:
            raise NetlistError(
                f"{op.name} takes {want} fanin nets, got {len(fanin)}"
            )
        nid = len(self._op)
        for f in fanin:
            if not (0 <= f < nid):
                raise NetlistError(
                    f"fanin {f} of new net {nid} ({op.name}) does not exist "
                    "yet; nets must be created in topological order"
                )
        padded = tuple(fanin) + (NO_NET,) * (3 - len(fanin))
        self._op.append(int(op))
        self._fanin.append(padded)  # type: ignore[arg-type]
        self._names.append(self._fresh_name(name or op.name.lower()))
        self._units.append(self.current_unit)
        self._reg_domain.append(domain)
        self._reg_init.append(init)
        self._xy = None  # placement invalidated by structural edits
        self._fingerprint = None
        return nid

    def const(self, value: int, name: str | None = None) -> int:
        return self._append(Op.CONST1 if value else Op.CONST0, (), name)

    def input_bit(self, name: str | None = None) -> int:
        return self._append(Op.INPUT, (), name)

    def input_bus(self, name: str, width: int) -> list[int]:
        """Create ``width`` input bits and register them as a bus."""
        bits = [self.input_bit(f"{name}[{i}]") for i in range(width)]
        self.add_bus(name, bits)
        return bits

    def gate(self, op: Op, *fanin: int, name: str | None = None) -> int:
        if op not in EVAL_OPS:
            raise NetlistError(f"{op.name} is not a combinational gate op")
        return self._append(op, fanin, name)

    def buf(self, a: int, name: str | None = None) -> int:
        return self.gate(Op.BUF, a, name=name)

    def not_(self, a: int, name: str | None = None) -> int:
        return self.gate(Op.NOT, a, name=name)

    def and_(self, a: int, b: int, name: str | None = None) -> int:
        return self.gate(Op.AND, a, b, name=name)

    def or_(self, a: int, b: int, name: str | None = None) -> int:
        return self.gate(Op.OR, a, b, name=name)

    def xor(self, a: int, b: int, name: str | None = None) -> int:
        return self.gate(Op.XOR, a, b, name=name)

    def nand(self, a: int, b: int, name: str | None = None) -> int:
        return self.gate(Op.NAND, a, b, name=name)

    def nor(self, a: int, b: int, name: str | None = None) -> int:
        return self.gate(Op.NOR, a, b, name=name)

    def xnor(self, a: int, b: int, name: str | None = None) -> int:
        return self.gate(Op.XNOR, a, b, name=name)

    def mux(self, sel: int, a: int, b: int, name: str | None = None) -> int:
        """``sel ? a : b``."""
        return self.gate(Op.MUX, sel, a, b, name=name)

    def clock_domain(
        self, name: str, enable: int | None = None
    ) -> ClockDomain:
        """Create a clock domain and its CLK net.

        ``enable`` can be attached later via :meth:`set_domain_enable` when
        the gating logic is built after the registers it gates.
        """
        clk = self._append(Op.CLK, (), f"clk_{name}")
        dom = ClockDomain(
            index=len(self.domains), name=name, enable=enable, clk_net=clk
        )
        self.domains.append(dom)
        return dom

    def set_domain_enable(self, domain: ClockDomain, enable: int) -> None:
        if not (0 <= enable < self.n_nets):
            raise NetlistError(f"enable net {enable} does not exist")
        domain.enable = enable
        self._fingerprint = None

    def reg(
        self,
        d: int,
        domain: ClockDomain,
        init: int = 0,
        name: str | None = None,
    ) -> int:
        """A flip-flop capturing ``d`` on clock edges of ``domain``."""
        if domain is not self.domains[domain.index]:
            raise NetlistError("domain does not belong to this netlist")
        return self._append(
            Op.REG, (d,), name or "reg", domain=domain.index, init=init & 1
        )

    def reg_uninit(
        self, domain: ClockDomain, init: int = 0, name: str | None = None
    ) -> int:
        """A flip-flop whose D input is connected later.

        Sequential feedback (counters, FSM state, accumulators) needs the
        register to exist before the logic computing its next value; use
        :meth:`connect_reg` to attach the D net afterwards.  A netlist with
        unconnected registers fails :meth:`validate`.
        """
        if domain is not self.domains[domain.index]:
            raise NetlistError("domain does not belong to this netlist")
        nid = len(self._op)
        self._op.append(int(Op.REG))
        self._fanin.append((NO_NET, NO_NET, NO_NET))
        self._names.append(self._fresh_name(name or "reg"))
        self._units.append(self.current_unit)
        self._reg_domain.append(domain.index)
        self._reg_init.append(init & 1)
        self._xy = None
        self._fingerprint = None
        return nid

    def connect_reg(self, reg: int, d: int) -> None:
        """Attach the D input of a register created by :meth:`reg_uninit`."""
        if self._op[reg] != Op.REG:
            raise NetlistError(f"net {reg} is not a REG")
        if self._fanin[reg][0] != NO_NET:
            raise NetlistError(f"register {self._names[reg]} already driven")
        if not (0 <= d < self.n_nets):
            raise NetlistError(f"D net {d} does not exist")
        self._fanin[reg] = (d, NO_NET, NO_NET)
        self._fingerprint = None

    def add_bus(self, name: str, nets: Iterable[int]) -> None:
        nets = list(nets)
        if name in self.buses:
            raise NetlistError(f"bus {name!r} already registered")
        for n in nets:
            if not (0 <= n < self.n_nets):
                raise NetlistError(f"bus {name!r} references missing net {n}")
        self.buses[name] = nets

    def bus_of_net(self) -> dict[int, str]:
        """Map net id -> bus name for all nets that belong to a bus."""
        out: dict[int, str] = {}
        for bus, nets in self.buses.items():
            for n in nets:
                out[n] = bus
        return out

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants; raises :class:`NetlistError`.

        Creation order already guarantees acyclicity (fanins must exist
        before the net), so this focuses on domain wiring and array
        consistency.
        """
        n = self.n_nets
        if not (
            len(self._fanin)
            == len(self._names)
            == len(self._units)
            == len(self._reg_domain)
            == len(self._reg_init)
            == n
        ):
            raise NetlistError("internal arrays out of sync")
        for dom in self.domains:
            if dom.enable is not None and not (0 <= dom.enable < n):
                raise NetlistError(
                    f"domain {dom.name!r} enable {dom.enable} missing"
                )
            if self._op[dom.clk_net] != Op.CLK:
                raise NetlistError(f"domain {dom.name!r} clk net corrupted")
        regs = np.flatnonzero(self.ops_array() == Op.REG)
        dom = self.reg_domain_array()[regs]
        bad_dom = (dom < 0) | (dom >= len(self.domains))
        bad = np.flatnonzero(
            bad_dom | (self.fanin_array()[regs, 0] == NO_NET)
        )
        if bad.size:  # report the lowest-id offender, domain first
            k = int(bad[0])
            i = int(regs[k])
            if bad_dom[k]:
                raise NetlistError(
                    f"reg {i} ({self._names[i]}) has bad domain {dom[k]}"
                )
            raise NetlistError(
                f"register {self._names[i]} has no D connection"
            )

    def reg_init_array(self) -> np.ndarray:
        return np.asarray(self._reg_init, dtype=np.uint8)

    def reg_domain_array(self) -> np.ndarray:
        return np.asarray(self._reg_domain, dtype=np.int32)

    def summary(self) -> dict[str, int]:
        """Counts by op category, for logging and tests."""
        ops = self.ops_array()
        return {
            "nets": self.n_nets,
            "inputs": int(np.count_nonzero(ops == Op.INPUT)),
            "regs": int(np.count_nonzero(ops == Op.REG)),
            "comb": int(np.count_nonzero(IS_EVAL[ops])),
            "clk": len(self.domains),
            "buses": len(self.buses),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.summary()
        return (
            f"Netlist({self.name!r}, nets={s['nets']}, regs={s['regs']}, "
            f"comb={s['comb']}, domains={s['clk']})"
        )
