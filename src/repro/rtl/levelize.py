"""Levelization: compile a netlist into vectorizable evaluation groups.

Because the :class:`~repro.rtl.netlist.Netlist` builder enforces that every
fanin already exists (topological creation order), combinational logic is
acyclic by construction and the logic level of each net is
``level = 1 + max(level(fanins))`` with inputs/registers/consts/CLK nets
at level 0.

The simulator wants, per level and per op, contiguous index arrays
``(out, a, b, c)`` so each group is one vectorized NumPy expression.
Compilation itself is array code too: levels come from a fixed point with
one gather-max pass per logic level, groups from one sort, and every
per-net table from masks over :meth:`~repro.rtl.netlist.Netlist.ops_array`
— no Python loop runs per net.

:func:`compile_packed` goes one step further for the bit-parallel engine:
it folds inverting ops into per-net storage polarities (AIG-style) and
fuses every gate of a level into at most four kernel segments — an
AND-run (AND/NAND/OR/NOR), an XOR-run (XOR/XNOR), a copy-run (BUF/NOT)
and a MUX-run — each driven by one concatenated fanin gather plus one
precomputed complement mask.  A net's *stored* word is
``true_value XOR pol[net]``; since both operands of a toggle XOR carry
the same polarity, toggles computed on stored words are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import NetlistError
from repro.rtl.cells import IS_EVAL, N_FANIN, Op, op_table
from repro.rtl.netlist import NO_NET, Netlist

__all__ = [
    "EvalGroup",
    "LevelSchedule",
    "levelize",
    "PackedLevel",
    "PackedSchedule",
    "compile_packed",
]


@dataclass(frozen=True)
class EvalGroup:
    """One vectorized evaluation step: all nets of one op at one level."""

    op: Op
    out: np.ndarray  # int32 net ids
    a: np.ndarray  # first fanin ids
    b: np.ndarray  # second fanin ids (unused slots hold 0)
    c: np.ndarray  # third fanin ids (MUX only; unused slots hold 0)

    def __len__(self) -> int:
        return int(self.out.size)


@dataclass
class LevelSchedule:
    """Compiled evaluation order plus register / clock bookkeeping.

    Attributes
    ----------
    groups:
        Evaluation groups in dependency-safe order (level-major).
    levels:
        Per-net logic depth (int32), 0 for sources.
    reg_out / reg_d / reg_en:
        Parallel arrays describing registers: output net id, data fanin id,
        and the domain-enable net id (``NO_NET`` for always-on domains).
    reg_init:
        Initial register values (uint8).
    clk_out / clk_en:
        CLK net ids and their enable net ids (``NO_NET`` if always-on).
    input_ids:
        Stimulus-driven nets in creation order.
    const_ids / const_vals:
        Tie cells and their values.
    max_level:
        Maximum combinational depth (used by the glitch power model).
    """

    groups: list[EvalGroup]
    levels: np.ndarray
    reg_out: np.ndarray
    reg_d: np.ndarray
    reg_en: np.ndarray
    reg_init: np.ndarray
    clk_out: np.ndarray
    clk_en: np.ndarray
    input_ids: np.ndarray
    const_ids: np.ndarray
    const_vals: np.ndarray
    max_level: int = field(default=0)

    @property
    def n_nets(self) -> int:
        return int(self.levels.size)


_N_FANIN = op_table(N_FANIN, np.int8)


def _logic_levels(comb: np.ndarray, ops: np.ndarray,
                  fanin: np.ndarray) -> np.ndarray:
    """Per-net logic depth: 0 for sources, ``1 + max(fanin depths)`` for
    the combinational nets ``comb``.

    A fixed point over every combinational net at once: after pass ``k``
    each net holds ``min(depth, k)``, so a net that ends a pass below
    ``k`` is final and leaves the active set.  That is one gather-max
    per logic level, over the nets not yet settled.
    """
    n = ops.size
    # Row ``n`` is a level-0 stand-in for fanin slots the op leaves unused.
    levels = np.zeros(n + 1, dtype=np.int32)
    fa = fanin[comb]
    used = (fa != NO_NET) & (np.arange(3) < _N_FANIN[ops[comb]][:, None])
    src = np.where(used, fa, n)
    act = comb
    depth = 0
    while act.size:
        # Each level holds a net, so every net settles by pass
        # ``comb.size + 1``; running longer means a cycle.
        if depth > comb.size:  # pragma: no cover - builder forbids cycles
            raise NetlistError("combinational logic contains a cycle")
        depth += 1
        new = levels[src].max(axis=1) + 1
        levels[act] = new
        keep = new == depth
        act, src = act[keep], src[keep]
    return levels[:n]


def levelize(netlist: Netlist) -> LevelSchedule:
    """Compile ``netlist`` into a :class:`LevelSchedule`.

    Raises
    ------
    NetlistError
        If the netlist fails :meth:`Netlist.validate`.
    """
    netlist.validate()
    n = netlist.n_nets
    ops = netlist.ops_array()
    fanin = netlist.fanin_array()

    comb = np.flatnonzero(IS_EVAL[ops])
    levels = _logic_levels(comb, ops, fanin)

    # Group combinational nets by (level, op), ids ascending in a group.
    out = comb[np.lexsort((comb, ops[comb], levels[comb]))].astype(np.int32)
    fa = fanin[out]
    a, b, c = np.ascontiguousarray(np.where(fa == NO_NET, 0, fa).T)
    key = levels[out] * len(Op) + ops[out]
    bounds = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
    groups = [
        EvalGroup(op=Op(int(ops[out[s]])), out=out[s:e],
                  a=a[s:e], b=b[s:e], c=c[s:e])
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]

    # Registers and clock nets; a domain's enable gates both.
    clk_out = np.asarray(
        [d.clk_net for d in netlist.domains], dtype=np.int32
    )
    clk_en = np.asarray(
        [NO_NET if d.enable is None else d.enable for d in netlist.domains],
        dtype=np.int32,
    )
    reg_ids = np.flatnonzero(ops == Op.REG).astype(np.int32)
    const_ids = np.flatnonzero(
        (ops == Op.CONST0) | (ops == Op.CONST1)
    ).astype(np.int32)

    return LevelSchedule(
        groups=groups,
        levels=levels,
        reg_out=reg_ids,
        reg_d=fanin[reg_ids, 0],
        reg_en=clk_en[netlist.reg_domain_array()[reg_ids]],
        reg_init=netlist.reg_init_array()[reg_ids],
        clk_out=clk_out,
        clk_en=clk_en,
        input_ids=np.flatnonzero(ops == Op.INPUT).astype(np.int32),
        const_ids=const_ids,
        const_vals=(ops[const_ids] == Op.CONST1).astype(np.uint8),
        max_level=int(levels.max()) if n else 0,
    )

# ---------------------------------------------------------------------- #
# Bit-parallel (packed uint64) compilation
# ---------------------------------------------------------------------- #
# The packed engine stores one uint64 word per net per 64 batch lanes and
# keeps net values in *renumbered* storage rows chosen so that every write
# target of the simulation loop is a contiguous slice:
#
#   [consts | inputs | free regs | gated regs | free CLKs | gated CLKs |
#    level 1: AND-run, XOR-run, copy-run, MUX outs | level 2: ... |
#    aliases]
#
# Per level the engine does one concatenated fanin gather, one
# complement-mask XOR, and one in-place kernel per non-empty segment that
# writes straight into the value array — no scatter indexing anywhere in
# the cycle loop.  Inverting ops fold into per-net storage polarities
# (AIG style): a net's stored word is ``true_value ^ pol[net]``, which
# turns NAND/OR/NOR into the AND-run and XNOR into the XOR-run.  MUXes
# fold into the AND-run too: ``sel ? x : y`` is the disjoint union
# ``(sel & x) | (~sel & y)``, so two *virtual* product rows ``u = s & x``
# and ``v = ~s & y`` ride along the AND-run and the MUX output is the
# single extra call ``u ^ v``.  BUF/NOT nets are pure storage aliases of
# their (transitive) source and are never evaluated; their toggle rows
# are filled from the source rows once per cycle.  The one exception is a
# BUF/NOT driven by a CLK net, which must keep the uint8 engine's
# semantics of observing the previous-cycle clock value — those stay as
# an evaluated copy-run.

_POL_ONE = op_table(
    {op: op in (Op.NAND, Op.OR, Op.XNOR) for op in Op}, np.uint8
)
_COMP_OPERAND_OPS = frozenset({int(Op.OR), int(Op.NOR)})
_AND_FAMILY = frozenset({int(Op.AND), int(Op.NAND), int(Op.OR), int(Op.NOR)})
_XOR_FAMILY = frozenset({int(Op.XOR), int(Op.XNOR)})
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _inv_column(bits: np.ndarray) -> np.ndarray:
    """uint64 complement-mask column: all-ones where ``bits`` is set."""
    return np.where(bits.astype(bool), _ALL_ONES, np.uint64(0))[:, None]


@dataclass(frozen=True)
class PackedLevel:
    """One fused evaluation step of the packed engine.

    ``gather`` holds the source *rows* (renumbered, alias-resolved) of
    all operands, run-major (``[A-run | B-run | xor_a | xor_b | copy]``
    with MUX select/data operands folded into the A/B runs); ``inv`` is
    the matching complement-mask column.  The ``sl_*`` slices address
    operand runs inside the gathered scratch buffer while ``out_*`` /
    ``sl_u`` / ``sl_v`` slices address contiguous storage rows in the
    value array (``sl_u``/``sl_v`` are the virtual MUX product rows).
    """

    gather: np.ndarray  # intp source rows, run-major
    inv: np.ndarray  # uint64 (width, 1) complement-mask column
    has_inv: bool
    n_and: int  # A/B operand pairs (real AND-family + 2 per MUX)
    n_xor: int
    n_copy: int
    n_mux: int
    sl_and_a: slice
    sl_and_b: slice
    sl_xor_a: slice
    sl_xor_b: slice
    sl_copy: slice
    out_and: slice  # AND-run rows: [real outs | u products | v products]
    out_xor: slice
    out_copy: slice
    out_mux: slice
    sl_u: slice  # virtual rows holding sel & x
    sl_v: slice  # virtual rows holding ~sel & y

    @property
    def width(self) -> int:
        return int(self.gather.size)


@dataclass
class PackedSchedule:
    """Renumbered, polarity-folded compilation for the packed engine.

    ``row_of_net`` maps net ids to storage rows; the value array has
    ``n_rows >= n_nets`` rows because MUX gates contribute two virtual
    product rows each.  All index arrays below live in storage-row space
    with aliases already resolved to their driving root.  ``*_inv``
    arrays are uint64 complement-mask columns derived from operand
    polarities; the matching ``*_has_inv`` flags let the simulator skip
    all-zero masks.
    """

    levels: list[PackedLevel]
    pol: np.ndarray  # (n_nets,) uint8, indexed by net id
    row_of_net: np.ndarray  # (n_nets,) int32: net id -> storage row
    n_rows: int  # storage rows (nets + virtual MUX products)
    max_gather: int
    # Contiguous row blocks of the renumbered layout.
    sl_const: slice
    sl_inputs: slice
    sl_free: slice
    sl_gated: slice
    sl_clk_free: slice
    sl_clk_gated: slice
    sl_clk_all: slice
    sl_alias: slice
    # Sequential-element sources (storage rows).
    free_d: np.ndarray
    free_d_inv: np.ndarray
    free_has_inv: bool
    gated_d: np.ndarray
    gated_d_inv: np.ndarray
    gated_d_has_inv: bool
    gated_en: np.ndarray
    gated_en_inv: np.ndarray
    gated_en_has_inv: bool
    clk_g_en: np.ndarray
    clk_g_en_inv: np.ndarray
    clk_g_has_inv: bool
    alias_src: np.ndarray  # storage rows feeding the alias block

    @property
    def n_nets(self) -> int:
        return int(self.pol.size)


def compile_packed(
    netlist: Netlist, schedule: LevelSchedule | None = None
) -> PackedSchedule:
    """Compile ``netlist`` for the bit-parallel engine.

    Reuses an existing :class:`LevelSchedule` when given (the simulator
    always has one) to avoid levelizing twice.
    """
    sch = schedule if schedule is not None else levelize(netlist)
    n = sch.n_nets

    is_clk = np.zeros(n, dtype=bool)
    is_clk[sch.clk_out] = True

    # Polarities: inverting outputs store their complement; aliases
    # inherit theirs from the source below.
    pol = _POL_ONE[netlist.ops_array()]
    root = np.arange(n, dtype=np.int32)
    is_alias = np.zeros(n, dtype=bool)
    buf_i, not_i = int(Op.BUF), int(Op.NOT)

    # --- bucket comb gates by level into AND/XOR/copy/MUX segments ---
    per_level: dict[int, dict[str, list]] = {}

    def _bucket(lv: int) -> dict[str, list]:
        return per_level.setdefault(
            lv, {"and": [], "xor": [], "copy": [], "mux": []}
        )

    for g in sch.groups:
        op = int(g.op)
        lv = int(sch.levels[g.out[0]])
        if op == buf_i or op == not_i:
            # Alias resolution, one level at a time: a copy's source sits
            # at a lower level, so its root and polarity are final.  A
            # copy of a CLK net stays evaluated: comb logic must see the
            # previous-cycle clock value, which only the level-ordered
            # copy-run does.
            flip = np.uint8(1 if op == not_i else 0)
            copy = is_clk[root[g.a]]
            ids, src = g.out[~copy], g.a[~copy]
            root[ids] = root[src]
            pol[ids] = pol[src] ^ flip
            is_alias[ids] = True
            if copy.any():
                _bucket(lv)["copy"].append((g.out[copy], g.a[copy], flip))
            continue
        if op in _AND_FAMILY:
            comp = np.uint8(1 if op in _COMP_OPERAND_OPS else 0)
            _bucket(lv)["and"].append((g.out, g.a, g.b, comp))
        elif op in _XOR_FAMILY:
            _bucket(lv)["xor"].append((g.out, g.a, g.b))
        else:  # MUX: fanin order (sel, x, y) meaning sel ? x : y
            _bucket(lv)["mux"].append((g.out, g.a, g.b, g.c))

    # --- sequential bookkeeping (net-id space) ---
    gated_m = sch.reg_en != NO_NET
    free_out_ids = sch.reg_out[~gated_m]
    free_d_ids = sch.reg_d[~gated_m]
    gated_out_ids = sch.reg_out[gated_m]
    gated_d_ids = sch.reg_d[gated_m]
    gated_en_ids = sch.reg_en[gated_m]
    clk_g_m = sch.clk_en != NO_NET
    clk_free_ids = sch.clk_out[~clk_g_m]
    clk_g_ids = sch.clk_out[clk_g_m]
    clk_g_en_ids = sch.clk_en[clk_g_m]

    # --- renumbered storage layout ---
    row_of_net = np.full(n, -1, dtype=np.int32)
    cursor = [0]

    def _place(ids: np.ndarray) -> slice:
        s = slice(cursor[0], cursor[0] + ids.size)
        row_of_net[ids] = np.arange(s.start, s.stop, dtype=np.int32)
        cursor[0] = s.stop
        return s

    def _skip(count: int) -> slice:
        s = slice(cursor[0], cursor[0] + count)
        cursor[0] = s.stop
        return s

    sl_const = _place(sch.const_ids)
    sl_inputs = _place(sch.input_ids)
    sl_free = _place(free_out_ids)
    sl_gated = _place(gated_out_ids)
    sl_clk_free = _place(clk_free_ids)
    sl_clk_gated = _place(clk_g_ids)
    sl_clk_all = slice(sl_clk_free.start, sl_clk_gated.stop)

    def _cat(tuples: list, idx: int) -> np.ndarray:
        if not tuples:
            return np.zeros(0, dtype=np.int32)
        return np.concatenate([t[idx] for t in tuples]).astype(np.int32)

    def _flags(tuples: list) -> np.ndarray:
        if not tuples:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate(
            [np.full(t[0].size, t[-1], dtype=np.uint8) for t in tuples]
        )

    level_tmp = []
    for lv in sorted(per_level):
        seg = per_level[lv]
        and_out, and_a, and_b = (_cat(seg["and"], k) for k in range(3))
        and_comp = _flags(seg["and"])
        xor_out, xor_a, xor_b = (_cat(seg["xor"], k) for k in range(3))
        copy_out, copy_a = (_cat(seg["copy"], k) for k in range(2))
        copy_flip = _flags(seg["copy"])
        mux_out, mux_s, mux_x, mux_y = (
            _cat(seg["mux"], k) for k in range(4)
        )
        n_mux = mux_s.size
        out_real_and = _place(and_out)
        sl_u = _skip(n_mux)
        sl_v = _skip(n_mux)
        out_and = slice(out_real_and.start, sl_v.stop)
        out_xor = _place(xor_out)
        out_copy = _place(copy_out)
        out_mux = _place(mux_out)
        level_tmp.append(
            (and_a, and_b, and_comp, xor_a, xor_b, copy_a, copy_flip,
             mux_s, mux_x, mux_y, out_and, out_xor, out_copy, out_mux,
             sl_u, sl_v)
        )
    alias_ids = np.flatnonzero(is_alias).astype(np.int32)
    sl_alias = _place(alias_ids)
    n_rows = cursor[0]

    if int((row_of_net >= 0).sum()) != n:  # pragma: no cover - invariant
        raise NetlistError("packed layout does not cover every net")

    def _rows(ids: np.ndarray) -> np.ndarray:
        """Alias-resolved storage rows for operand net ids.

        Returned as ``intp`` so the simulator's ``take`` calls skip the
        per-call index-dtype conversion.
        """
        if not ids.size:
            return np.zeros(0, dtype=np.intp)
        return row_of_net[root[ids]].astype(np.intp)

    def _invcol(bits: np.ndarray) -> tuple[np.ndarray, bool]:
        return _inv_column(bits), bool(bits.any())

    one = np.uint8(1)
    levels_out: list[PackedLevel] = []
    max_gather = 0
    for (and_a, and_b, and_comp, xor_a, xor_b, copy_a, copy_flip,
         mux_s, mux_x, mux_y, out_and, out_xor, out_copy, out_mux,
         sl_u, sl_v) in level_tmp:
        # A/B operand runs: real AND-family pairs, then (s, x) for the u
        # products, then (s, y) — with s complemented — for the v ones.
        src = np.concatenate(
            [and_a, mux_s, mux_s, and_b, mux_x, mux_y,
             xor_a, xor_b, copy_a]
        )
        inv_bits = np.concatenate([
            pol[and_a] ^ and_comp,
            pol[mux_s],
            pol[mux_s] ^ one,
            pol[and_b] ^ and_comp,
            pol[mux_x],
            pol[mux_y],
            pol[xor_a],
            pol[xor_b],
            pol[copy_a] ^ copy_flip,
        ])
        n_and = and_a.size + 2 * mux_s.size
        n_xor, n_copy, n_mux = xor_a.size, copy_a.size, mux_s.size
        o = [0]

        def _run(count: int) -> slice:
            s = slice(o[0], o[0] + count)
            o[0] = s.stop
            return s

        inv, has_inv = _invcol(inv_bits)
        levels_out.append(
            PackedLevel(
                gather=np.ascontiguousarray(_rows(src)),
                inv=inv,
                has_inv=has_inv,
                n_and=n_and,
                n_xor=n_xor,
                n_copy=n_copy,
                n_mux=n_mux,
                sl_and_a=_run(n_and),
                sl_and_b=_run(n_and),
                sl_xor_a=_run(n_xor),
                sl_xor_b=_run(n_xor),
                sl_copy=_run(n_copy),
                out_and=out_and,
                out_xor=out_xor,
                out_copy=out_copy,
                out_mux=out_mux,
                sl_u=sl_u,
                sl_v=sl_v,
            )
        )
        max_gather = max(max_gather, src.size)

    free_d_inv, free_has_inv = _invcol(pol[free_d_ids])
    gated_d_inv, gated_d_has_inv = _invcol(pol[gated_d_ids])
    gated_en_inv, gated_en_has_inv = _invcol(pol[gated_en_ids])
    clk_g_en_inv, clk_g_has_inv = _invcol(pol[clk_g_en_ids])

    return PackedSchedule(
        levels=levels_out,
        pol=pol,
        row_of_net=row_of_net,
        n_rows=n_rows,
        max_gather=max_gather,
        sl_const=sl_const,
        sl_inputs=sl_inputs,
        sl_free=sl_free,
        sl_gated=sl_gated,
        sl_clk_free=sl_clk_free,
        sl_clk_gated=sl_clk_gated,
        sl_clk_all=sl_clk_all,
        sl_alias=sl_alias,
        free_d=_rows(free_d_ids),
        free_d_inv=free_d_inv,
        free_has_inv=free_has_inv,
        gated_d=_rows(gated_d_ids),
        gated_d_inv=gated_d_inv,
        gated_d_has_inv=gated_d_has_inv,
        gated_en=_rows(gated_en_ids),
        gated_en_inv=gated_en_inv,
        gated_en_has_inv=gated_en_has_inv,
        clk_g_en=_rows(clk_g_en_ids),
        clk_g_en_inv=clk_g_en_inv,
        clk_g_has_inv=clk_g_has_inv,
        alias_src=_rows(alias_ids),
    )
