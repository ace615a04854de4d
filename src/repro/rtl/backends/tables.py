"""Fused op tables for the packed engine's C kernel.

The packed engine's NumPy loop binds array views; the C kernel
(:mod:`repro.rtl.backends.cc`) wants plain integers instead.  This
module lowers a :class:`~repro.rtl.levelize.PackedSchedule` into flat
*runs* that the kernel executes over a single uint64 *arena* holding
the two value buffers and nothing else:

``arena`` row layout (each row is ``W`` lane words)::

    [ vals parity 0 | vals parity 1 ]
      0 .. nr         nr .. 2nr

One run is an ``int64`` row ``(code, out, n, off)``: it writes the
``n`` consecutive arena rows from ``out``, reading its operands from
``operands[off:]``, one block of ``n`` per operand (``A`` at ``off``,
``B`` at ``off + n``, ``C`` at ``off + 2n``).  An operand is one
``uint32`` ``row << 1 | inv`` naming an arena row and whether its word
is complemented, so every gate reads its fanin rows directly:

====  =====  ==========================================================
code  name   ``arena[out + j]`` becomes
====  =====  ==========================================================
0     COPY   ``A[j]``
1     AND    ``A[j] & B[j]``
2     XOR    ``A[j] ^ B[j]``
3     HOLD   ``C[j] ^ (A[j] & (B[j] ^ C[j]))`` (enable, D, Q)
4     FILL1  ``~0`` (no operands)
====  =====  ==========================================================

where ``A[j]`` is the word of row ``operands[off + j] >> 1``, complemented
when ``operands[off + j] & 1``.  Each parity has its own runs
(``prog0``/``prog1``) over its own half of ``operands``: the same rows,
shifted by ``n_rows`` for the buffer they read and write.

A cycle runs register capture (a COPY run of the free registers' D
inputs and one HOLD run for the gated registers), the CLK copy that
lets comb logic see the previous-cycle clock, then per logic level an
AND, XOR and copy run plus an XOR run over the MUXes' two product rows,
and finally the clock nets (FILL1 for free clocks, a COPY of each gated
clock's enable).

Everything is independent of the word width ``W`` (rows are scaled by
``W`` at execution time), so the tables are built once per netlist, in
array code: one concatenation of the levels' fanin rows, with no loop
per row.  Bit-identity with the NumPy loop does not rest on mirroring
its op order: every run writes rows whose operands were all written
earlier in the cycle (a gate's fanins sit at lower levels, a MUX's
products earlier in its own level, register and CLK sources in the
previous buffer), and each row is a bitwise function of its operands,
so any such order computes the same words.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rtl.levelize import PackedSchedule

__all__ = ["CompiledTables", "OP_COPY", "OP_AND", "OP_XOR", "OP_HOLD",
           "OP_FILL1", "build_tables"]

OP_COPY, OP_AND, OP_XOR, OP_HOLD, OP_FILL1 = range(5)


@dataclass(frozen=True)
class CompiledTables:
    """W-independent kernel tables for one netlist."""

    prog0: np.ndarray  # (n_runs, 4) int64, parity-0 runs
    prog1: np.ndarray  # (n_runs, 4) int64, parity-1 runs
    operands: np.ndarray  # uint32 ``row << 1 | inv``, both parities
    n_rows: int  # storage rows per value buffer (psch.n_rows)
    in_row: int  # first input row (inside a value buffer)
    net_rows: np.ndarray  # (n_nets,) int64: net id -> storage row
    alias_src: np.ndarray  # int64 storage rows feeding the alias block
    alias_start: int
    clk_free_start: int
    n_clk_free: int
    clk_g_start: int
    n_clk_g: int


def _rows(sl: slice) -> np.ndarray:
    return np.arange(sl.start, sl.stop, dtype=np.int64)


def build_tables(psch: PackedSchedule) -> CompiledTables:
    """Lower ``psch`` into flat kernel tables (once per netlist)."""
    nr = psch.n_rows
    runs: list[tuple[int, int, int, int]] = []
    # Operand blocks: storage rows, complement column (or None) and
    # whether they read the previous cycle's buffer.
    parts: list[tuple[np.ndarray, np.ndarray | None, bool]] = []
    size = 0

    def run(code: int, out: int, n: int, *operands) -> None:
        nonlocal size
        if not n:
            return
        runs.append((code, out, n, size))
        for rows, inv, prev in operands:
            parts.append((rows, inv, prev))
            size += rows.size

    # 1. register capture (previous-cycle D and enables).
    sf, sg = psch.sl_free, psch.sl_gated
    run(OP_COPY, sf.start, sf.stop - sf.start,
        (psch.free_d, psch.free_d_inv, True))
    run(OP_HOLD, sg.start, sg.stop - sg.start,
        (psch.gated_en, psch.gated_en_inv, True),
        (psch.gated_d, psch.gated_d_inv, True),
        (_rows(sg), None, True))
    # 2. comb readers of a CLK net observe its previous-cycle value.
    ca = psch.sl_clk_all
    run(OP_COPY, ca.start, ca.stop - ca.start, (_rows(ca), None, True))
    # 3. fused combinational evaluation, one level at a time: the
    # level's fanin rows are already run-major ([A | B] of the AND-run,
    # [A | B] of the XOR-run, the copy-run), so each run points into
    # them; a MUX XORs its adjacent u and v product rows.
    for L in psch.levels:
        base = size
        parts.append((L.gather, L.inv if L.has_inv else None, False))
        size += L.gather.size
        for code, out, n, sl in (
            (OP_AND, L.out_and, L.n_and, L.sl_and_a),
            (OP_XOR, L.out_xor, L.n_xor, L.sl_xor_a),
            (OP_COPY, L.out_copy, L.n_copy, L.sl_copy),
        ):
            if n:
                runs.append((code, out.start, n, base + sl.start))
        run(OP_XOR, L.out_mux.start, L.n_mux,
            (np.arange(L.sl_u.start, L.sl_v.stop, dtype=np.int64), None,
             False))
    # 4. clock nets.
    cf, cg = psch.sl_clk_free, psch.sl_clk_gated
    run(OP_FILL1, cf.start, cf.stop - cf.start)
    run(OP_COPY, cg.start, cg.stop - cg.start,
        (psch.clk_g_en, psch.clk_g_en_inv, True))

    prog0 = np.asarray(runs, dtype=np.int64).reshape(-1, 4)
    prog1 = prog0 + np.asarray([0, nr, 0, size], dtype=np.int64)
    if parts:
        rows = np.concatenate([p[0] for p in parts], dtype=np.int64)
        inv = np.zeros(size, dtype=np.uint64)
        prev = np.repeat(
            np.asarray([p[2] for p in parts]),
            [p[0].size for p in parts],
        ).astype(np.int64)
        off = 0
        for p_rows, p_inv, _prev in parts:
            if p_inv is not None:
                inv[off:off + p_rows.size] = p_inv[:, 0]
            off += p_rows.size
        enc = rows << 1 | (inv & np.uint64(1)).astype(np.int64)
        operands = np.concatenate(
            [enc + 2 * nr * prev, enc + 2 * nr * (1 - prev)]
        ).astype(np.uint32)
    else:
        operands = np.zeros(0, dtype=np.uint32)
    return CompiledTables(
        prog0=prog0,
        prog1=prog1,
        operands=operands,
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
