"""Flat op tables for the packed engine's C kernel.

The packed engine's NumPy loop binds array views; the C kernel
(:mod:`repro.rtl.backends.cc`) wants plain integers instead.  This
module lowers a :class:`~repro.rtl.levelize.PackedSchedule` into flat
``int64``/``uint64`` arrays that the kernel's interpreter loop executes
over a single uint64 *arena*:

``arena`` row layout (each row is ``W`` lane words)::

    [ vals parity 0 | vals parity 1 | gather scratch | en buf | d buf ]
      0 .. nr         nr .. 2nr       2nr .. +mg       +ng      +ng

One op-table row is ``(code, out, a, b, n)`` operating on ``n``
consecutive arena rows:

====  =========  ====================================================
code  name       semantics
====  =========  ====================================================
0     XOR        ``arena[out+j] = arena[a+j] ^ arena[b+j]``
1     AND        ``arena[out+j] = arena[a+j] & arena[b+j]``
2     TAKE       ``arena[out+j] = arena[idx_pool[b+j]]`` (gather)
3     COPY       ``arena[out+j] = arena[a+j]``
4     XORMASK    ``arena[out+j] = arena[a+j] ^ mask_pool[b+j]``
5     FILL1      ``arena[out+j] = ~0``
====  =========  ====================================================

Everything is independent of the word width ``W`` (rows are scaled by
``W`` at execution time), so the tables are built once per netlist.
The op sequence mirrors ``_PackedPlan._build`` exactly — same order,
same operands — which is what keeps the kernel bit-identical to the
NumPy loop (and therefore to the uint8 reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rtl.levelize import PackedSchedule

__all__ = ["CompiledTables", "OP_XOR", "OP_AND", "OP_TAKE", "OP_COPY",
           "OP_XORMASK", "OP_FILL1", "build_tables"]

OP_XOR, OP_AND, OP_TAKE, OP_COPY, OP_XORMASK, OP_FILL1 = range(6)


@dataclass(frozen=True)
class CompiledTables:
    """W-independent kernel tables for one netlist."""

    prog0: np.ndarray  # (n_ops, 5) int64, parity-0 micro-program
    prog1: np.ndarray  # (n_ops, 5) int64, parity-1 micro-program
    idx_pool: np.ndarray  # int64 gather indices (arena rows)
    mask_pool: np.ndarray  # uint64 complement masks
    arena_rows: int  # total arena height
    n_rows: int  # storage rows per value buffer (psch.n_rows)
    in_row: int  # first input row (inside a value buffer)
    net_rows: np.ndarray  # (n_nets,) int64: net id -> storage row
    alias_src: np.ndarray  # int64 storage rows feeding the alias block
    alias_start: int
    clk_free_start: int
    n_clk_free: int
    clk_g_start: int
    n_clk_g: int


class _Pool:
    """An operand pool grown by whole arrays; ``add`` returns the offset."""

    def __init__(self, dtype) -> None:
        self.dtype = dtype
        self.parts: list[np.ndarray] = []
        self.size = 0

    def add(self, values: np.ndarray) -> int:
        off = self.size
        self.parts.append(values)
        self.size += values.size
        return off

    def array(self) -> np.ndarray:
        if not self.parts:
            return np.zeros(0, dtype=self.dtype)
        return np.concatenate(self.parts, dtype=self.dtype)


def _emit(psch: PackedSchedule, parity: int,
          idx_pool: _Pool, mask_pool: _Pool) -> np.ndarray:
    nr = psch.n_rows
    vb = parity * nr  # vals base
    pb = (1 - parity) * nr  # prev base
    scr = 2 * nr
    n_gated = psch.sl_gated.stop - psch.sl_gated.start
    en = scr + psch.max_gather
    db = en + n_gated
    ops: list[tuple[int, int, int, int, int]] = []

    def take(dst: int, rows: np.ndarray) -> None:
        ops.append((OP_TAKE, dst, 0, idx_pool.add(rows), rows.size))

    def xormask(dst: int, inv_col: np.ndarray) -> None:
        ops.append(
            (OP_XORMASK, dst, dst, mask_pool.add(inv_col[:, 0]),
             inv_col.shape[0])
        )

    # 1. register capture (previous-cycle D and enables).
    if psch.free_d.size:
        dst = vb + psch.sl_free.start
        take(dst, pb + psch.free_d)
        if psch.free_has_inv:
            xormask(dst, psch.free_d_inv)
    if psch.gated_d.size:
        take(en, pb + psch.gated_en)
        if psch.gated_en_has_inv:
            xormask(en, psch.gated_en_inv)
        take(db, pb + psch.gated_d)
        if psch.gated_d_has_inv:
            xormask(db, psch.gated_d_inv)
        q = pb + psch.sl_gated.start
        # hold-or-capture without a select: q ^ (en & (d ^ q))
        ops.append((OP_XOR, db, db, q, n_gated))
        ops.append((OP_AND, db, db, en, n_gated))
        ops.append((OP_XOR, db, db, q, n_gated))
        ops.append((OP_COPY, vb + psch.sl_gated.start, db, 0, n_gated))
    # 2. comb readers of a CLK net observe its previous-cycle value.
    ca = psch.sl_clk_all
    if ca.stop > ca.start:
        ops.append(
            (OP_COPY, vb + ca.start, pb + ca.start, 0, ca.stop - ca.start)
        )
    # 3. fused combinational evaluation, one level at a time.
    for L in psch.levels:
        take(scr, vb + L.gather.astype(np.int64))
        if L.has_inv:
            xormask(scr, L.inv)
        if L.n_and:
            ops.append((OP_AND, vb + L.out_and.start,
                        scr + L.sl_and_a.start, scr + L.sl_and_b.start,
                        L.n_and))
        if L.n_xor:
            ops.append((OP_XOR, vb + L.out_xor.start,
                        scr + L.sl_xor_a.start, scr + L.sl_xor_b.start,
                        L.n_xor))
        if L.n_copy:
            ops.append((OP_COPY, vb + L.out_copy.start,
                        scr + L.sl_copy.start, 0, L.n_copy))
        if L.n_mux:
            ops.append((OP_XOR, vb + L.out_mux.start,
                        vb + L.sl_u.start, vb + L.sl_v.start, L.n_mux))
    # 4. clock nets.
    cf = psch.sl_clk_free
    if cf.stop > cf.start:
        ops.append((OP_FILL1, vb + cf.start, 0, 0, cf.stop - cf.start))
    if psch.clk_g_en.size:
        dst = vb + psch.sl_clk_gated.start
        take(dst, pb + psch.clk_g_en)
        if psch.clk_g_has_inv:
            xormask(dst, psch.clk_g_en_inv)
    if not ops:
        return np.zeros((0, 5), dtype=np.int64)
    return np.asarray(ops, dtype=np.int64)


def build_tables(psch: PackedSchedule) -> CompiledTables:
    """Lower ``psch`` into flat kernel tables (once per netlist)."""
    idx_pool, mask_pool = _Pool(np.int64), _Pool(np.uint64)
    prog0 = _emit(psch, 0, idx_pool, mask_pool)
    prog1 = _emit(psch, 1, idx_pool, mask_pool)
    nr = psch.n_rows
    n_gated = psch.sl_gated.stop - psch.sl_gated.start
    return CompiledTables(
        prog0=prog0,
        prog1=prog1,
        idx_pool=idx_pool.array(),
        mask_pool=mask_pool.array(),
        arena_rows=2 * nr + psch.max_gather + 2 * n_gated,
        n_rows=nr,
        in_row=psch.sl_inputs.start,
        net_rows=psch.row_of_net.astype(np.int64),
        alias_src=psch.alias_src.astype(np.int64),
        alias_start=psch.sl_alias.start,
        clk_free_start=psch.sl_clk_free.start,
        n_clk_free=psch.sl_clk_free.stop - psch.sl_clk_free.start,
        clk_g_start=psch.sl_clk_gated.start,
        n_clk_g=psch.sl_clk_gated.stop - psch.sl_clk_gated.start,
    )
