"""Bit-parallel engine: 64 stimulus lanes per uint64 word.

Values live in renumbered storage rows (see
:func:`repro.rtl.levelize.compile_packed`), polarity-folded
(``true ^ pol[net]``), so NAND/OR/NOR collapse into the AND-run, XNOR
into the XOR-run, and each MUX into two AND-run product rows plus one
XOR.  Every write target is a contiguous row slice, so a cycle is one
precompiled *micro-program* with no scatter indexing (two variants, one
per buffer parity).  Toggle words are exact because both cycles carry
the same polarity.

The micro-program runs one of two ways, chosen once per simulator by
whether the C kernel loads — never by an option:

* **C kernel** (any host with a working C compiler): the schedule is
  lowered to fused op tables (:mod:`repro.rtl.backends.tables`) whose
  runs read each gate's fanin rows directly, and the whole cycle loop —
  stimulus lane packing, toggle recording and the accumulator reduction
  over the toggled nets included — runs natively in
  :mod:`repro.rtl.backends.cc`;
* **NumPy loop** (fallback): one ufunc call per program entry over
  prebound array views.  Toggle words are gathered back into net-id
  order and appended to a block buffer, so the lane unpacking runs once
  per :data:`REC_BLOCK` cycles on one contiguous array, while the
  accumulator reduction (:func:`~repro.rtl.backends.base.acc_reduce`)
  keeps the reference engine's exact per-cycle call shape.

Both make every recorded artifact bit-identical to the uint8 reference
engine.
"""

from __future__ import annotations

import numpy as np

from repro.rtl.backends import cc as _cc
from repro.rtl.backends.base import (
    WORD_ONES,
    Backend,
    acc_reduce,
    register_backend,
)
from repro.rtl.backends.tables import build_tables
from repro.rtl.levelize import PackedSchedule, compile_packed
from repro.rtl.trace import pack_lanes, unpack_lanes

__all__ = ["PackedBackend", "REC_BLOCK"]

#: Cycles buffered before the NumPy loop unpacks a toggle block
#: (amortizes the net-order gather and bit unpacking).
REC_BLOCK = 32


@register_backend
class PackedBackend(Backend):
    """Fused-microprogram uint64 lane engine (the default)."""

    name = "packed"
    requires_little_endian = True

    def __init__(self, netlist, schedule) -> None:
        super().__init__(netlist, schedule)
        self.packed_schedule: PackedSchedule = compile_packed(
            netlist, schedule
        )
        #: The loaded C kernel, or ``None`` where none loads (the NumPy
        #: loop runs instead).
        self.kernel = _cc.load_kernel()
        self._tables = (
            build_tables(self.packed_schedule)
            if self.kernel is not None else None
        )
        self._plans: dict[int, _PackedPlan] = {}
        #: Stored bits of the reset state, by storage row (first use).
        self._reset_rows: np.ndarray | None = None

    def run(
        self,
        stim: np.ndarray,
        cols: np.ndarray | None,
        acc_weights: dict[str, np.ndarray],
        packed_out: np.ndarray | None,
        cols_out: np.ndarray | None,
        acc_out: dict[str, np.ndarray],
        init_values: np.ndarray | None,
    ) -> np.ndarray:
        if self.kernel is None:
            return self._run_numpy(
                stim, cols, acc_weights, packed_out, cols_out, acc_out,
                init_values,
            )
        psch = self.packed_schedule
        tab = self._tables
        batch, cycles, n_in = stim.shape
        W = (batch + 63) // 64
        nr = tab.n_rows
        lane_mask = pack_lanes(np.ones(batch, dtype=np.uint8))
        init_w = self._init_words(lane_mask, init_values)
        arena = np.zeros((2 * nr, W), dtype=np.uint64)
        arena[nr:] = init_w  # v_prev of cycle 0
        arena[psch.sl_const] = init_w[psch.sl_const]
        acc_names = list(acc_weights)
        n_acc = len(acc_names)
        if n_acc:
            acc_mat = np.stack([acc_weights[k] for k in acc_names])
            acc_res = np.empty((n_acc, batch, cycles), dtype=np.float64)
        else:
            acc_mat = np.zeros((0, 0), dtype=np.float64)
            acc_res = np.zeros(0, dtype=np.float64)
        if cols is not None:
            col_rows = tab.net_rows[cols]
        else:
            col_rows = np.zeros(0, dtype=np.int64)
        n_cols = col_rows.size
        has_trace = packed_out is not None
        nbytes = packed_out.shape[1] if has_trace else 0
        trace_buf = (
            packed_out if has_trace else np.zeros(0, dtype=np.uint8)
        )
        cols_buf = (
            cols_out if cols_out is not None else np.zeros(0, np.uint8)
        )
        need_tog = has_trace or n_acc > 0 or n_cols > 0
        par = np.asarray(
            [nr, W, cycles, batch, n_in, tab.in_row, psch.n_nets, n_acc,
             int(has_trace), nbytes, n_cols, tab.alias_src.size,
             tab.alias_start, tab.clk_free_start, tab.n_clk_free,
             tab.clk_g_start, tab.n_clk_g, int(need_tog)],
            dtype=np.int64,
        )
        if cycles:
            _cc.run_cycles(
                self.kernel, par, arena.ravel(),
                np.empty(nr * W, dtype=np.uint64),  # toggle words
                np.empty(psch.n_nets if n_acc else 0, dtype=np.int64),
                tab.prog0, tab.prog1, tab.operands,
                np.ascontiguousarray(stim).ravel(), tab.net_rows,
                tab.alias_src, lane_mask, acc_mat.ravel(), acc_res.ravel(),
                np.empty(W * 64, dtype=np.float64),  # per-lane sums
                col_rows, cols_buf.ravel(), trace_buf.ravel(),
            )
        for a_i, name in enumerate(acc_names):
            acc_out[name][:] = acc_res[a_i]
        p_last = (cycles - 1) & 1 if cycles else 1
        return self._final_values(arena[p_last * nr:(p_last + 1) * nr], batch)

    def _init_words(
        self, lane_mask: np.ndarray, init_values: np.ndarray | None
    ) -> np.ndarray:
        """Initial stored words (storage-row order) for the lanes set
        in ``lane_mask``.

        The reset state is the same in every lane, so its stored bits
        are built once per backend, from the one evaluated reset lane,
        and spread over the lanes by a multiply.  Virtual MUX product
        rows and alias rows are recomputed before use, so zeros are
        fine there.
        """
        psch = self.packed_schedule
        if init_values is not None:
            stored = np.zeros(
                (psch.n_rows, init_values.shape[1]), dtype=np.uint8
            )
            stored[psch.row_of_net] = (
                np.asarray(init_values, dtype=np.uint8) ^ psch.pol[:, None]
            )
            return pack_lanes(stored)
        if self._reset_rows is None:
            rows = np.zeros(psch.n_rows, dtype=np.uint64)
            rows[psch.row_of_net] = self.initial_values(1)[:, 0] ^ psch.pol
            self._reset_rows = rows
        return self._reset_rows[:, None] * lane_mask

    def _lane_words(
        self, stim: np.ndarray, init_values: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The NumPy loop's inputs: initial stored words and the
        stimulus as cycle-major lane words ``(cycles, n_in, W)``."""
        lane_mask = pack_lanes(np.ones(stim.shape[0], dtype=np.uint8))
        stim_w = pack_lanes(
            np.ascontiguousarray(np.transpose(stim, (1, 2, 0)))
        )
        return self._init_words(lane_mask, init_values), stim_w

    def _final_values(self, fv: np.ndarray, batch: int) -> np.ndarray:
        """Net-ordered true values from the last cycle's stored words."""
        psch = self.packed_schedule
        if psch.alias_src.size:
            np.take(fv, psch.alias_src, axis=0, out=fv[psch.sl_alias])
        final = unpack_lanes(np.take(fv, psch.row_of_net, axis=0), batch)
        return final ^ psch.pol[:, None]

    def _run_numpy(
        self, stim, cols, acc_weights, packed_out, cols_out, acc_out,
        init_values,
    ) -> np.ndarray:
        psch = self.packed_schedule
        batch, cycles, n_in = stim.shape
        W = (batch + 63) // 64
        plan = self._plans.get(W)
        if plan is None:
            plan = self._plans[W] = _PackedPlan(psch, W)
        init_w, stim_w = self._lane_words(stim, init_values)
        row_of = psch.row_of_net
        bufs = plan.bufs
        np.copyto(bufs[1], init_w)  # v_prev of cycle 0
        bufs[0][psch.sl_const] = init_w[psch.sl_const]  # written once
        progs = plan.progs
        in_views = plan.in_views
        tr = plan.tog_row
        alias_src = psch.alias_src
        has_alias = alias_src.size > 0
        sl_alias = psch.sl_alias
        sl_clk_free = psch.sl_clk_free
        sl_clk_g = psch.sl_clk_gated
        has_clk_free = sl_clk_free.stop > sl_clk_free.start
        has_clk_g = sl_clk_g.stop > sl_clk_g.start
        need_dense = packed_out is not None or bool(acc_weights)
        # The per-cycle gather restores net-id order (all nets when the
        # dense block is needed, just the selected rows otherwise), so
        # the flush unpacks one contiguous block per REC_BLOCK cycles.
        if need_dense:
            rec_rows = row_of.astype(np.intp)
        elif cols is not None:
            rec_rows = row_of[cols].astype(np.intp)
        else:
            rec_rows = None
        tb = None
        if rec_rows is not None:
            tb = np.empty(
                (min(REC_BLOCK, max(cycles, 1)), rec_rows.size, W),
                dtype=np.uint64,
            )
        acc_items = list(acc_weights.items())
        j = 0  # cycles buffered in the toggle block
        blk0 = 0  # first cycle index of the current block

        for i in range(cycles):
            p = i & 1
            vals = bufs[p]
            if n_in:
                np.copyto(in_views[p], stim_w[i])
            for code, a, b, o in progs[p]:
                if code == 0:
                    np.bitwise_xor(a, b, o)
                elif code == 1:
                    np.bitwise_and(a, b, o)
                elif code == 2:
                    a.take(b, 0, o)
                else:
                    np.copyto(o, a)
            if tb is None:
                continue
            # Toggles in storage-row order (polarity cancels in the
            # XOR); alias rows mirror their source, CLK rows report the
            # enable; then one gather into the net-ordered block.
            np.bitwise_xor(vals, bufs[1 - p], tr)
            if has_alias:
                tr.take(alias_src, 0, tr[sl_alias])
            if has_clk_free:
                tr[sl_clk_free] = WORD_ONES
            if has_clk_g:
                tr[sl_clk_g] = vals[sl_clk_g]
            tr.take(rec_rows, 0, tb[j])
            j += 1
            if j == tb.shape[0] or i == cycles - 1:
                # Flush: one contiguous unpack per block, then record
                # with the reference engine's exact per-cycle GEMV call
                # shape.
                dense = unpack_lanes(tb[:j], batch)
                if need_dense:
                    if packed_out is not None:
                        packed_out[blk0:blk0 + j] = np.packbits(
                            dense, axis=1
                        )
                    if cols_out is not None:
                        cols_out[:, blk0:blk0 + j, :] = dense[
                            :, cols
                        ].transpose(2, 0, 1)
                    for name, w in acc_items:
                        o = acc_out[name]
                        for k in range(j):
                            o[:, blk0 + k] = acc_reduce(w, dense[k])
                else:
                    cols_out[:, blk0:blk0 + j, :] = dense.transpose(
                        2, 0, 1
                    )
                blk0 = i + 1
                j = 0

        fv = bufs[(cycles - 1) & 1] if cycles else bufs[1]
        return self._final_values(fv, batch)


class _PackedPlan:
    """Per-word-width execution state for the packed engine.

    Holds the double-buffered value arrays plus, for each buffer parity,
    a *micro-program*: a flat tuple of ``(opcode, a, b, out)`` entries
    whose operands are prebound array views (opcodes: 0 = XOR, 1 = AND,
    2 = take, 3 = copy).  Binding every slice once per word width — the
    buffers are reused across runs — removes all indexing overhead from
    the cycle loop.
    """

    def __init__(self, psch: PackedSchedule, W: int) -> None:
        nr = psch.n_rows
        self.bufs = (
            np.zeros((nr, W), dtype=np.uint64),
            np.zeros((nr, W), dtype=np.uint64),
        )
        self.scratch = np.empty((psch.max_gather, W), dtype=np.uint64)
        n_gated = psch.sl_gated.stop - psch.sl_gated.start
        self.en_buf = np.empty((n_gated, W), dtype=np.uint64)
        self.d_buf = np.empty((n_gated, W), dtype=np.uint64)
        self.tog_row = np.empty((nr, W), dtype=np.uint64)
        self.progs = (
            self._build(psch, self.bufs[0], self.bufs[1]),
            self._build(psch, self.bufs[1], self.bufs[0]),
        )
        self.in_views = (
            self.bufs[0][psch.sl_inputs],
            self.bufs[1][psch.sl_inputs],
        )

    def _build(
        self, psch: PackedSchedule, vals: np.ndarray, v_prev: np.ndarray
    ) -> tuple:
        XOR, AND, TAKE, COPY = 0, 1, 2, 3
        P: list[tuple] = []
        # 1. register capture (previous-cycle D and enables).
        if psch.free_d.size:
            o = vals[psch.sl_free]
            P.append((TAKE, v_prev, psch.free_d, o))
            if psch.free_has_inv:
                P.append((XOR, o, psch.free_d_inv, o))
        if psch.gated_d.size:
            en, d = self.en_buf, self.d_buf
            P.append((TAKE, v_prev, psch.gated_en, en))
            if psch.gated_en_has_inv:
                P.append((XOR, en, psch.gated_en_inv, en))
            P.append((TAKE, v_prev, psch.gated_d, d))
            if psch.gated_d_has_inv:
                P.append((XOR, d, psch.gated_d_inv, d))
            q = v_prev[psch.sl_gated]
            # hold-or-capture without a select: q ^ (en & (d ^ q))
            P.append((XOR, d, q, d))
            P.append((AND, d, en, d))
            P.append((XOR, d, q, d))
            P.append((COPY, d, None, vals[psch.sl_gated]))
        # 2. comb readers of a CLK net must observe its previous-cycle
        # value (the uint8 engine's copyto semantics).  Stimulus rows are
        # written by the cycle loop before the program runs.
        if psch.sl_clk_all.stop > psch.sl_clk_all.start:
            P.append(
                (COPY, v_prev[psch.sl_clk_all], None,
                 vals[psch.sl_clk_all])
            )
        # 3. fused combinational evaluation, one level at a time.
        for L in psch.levels:
            g = self.scratch[: L.width]
            P.append((TAKE, vals, L.gather, g))
            if L.has_inv:
                P.append((XOR, g, L.inv, g))
            if L.n_and:
                P.append(
                    (AND, g[L.sl_and_a], g[L.sl_and_b], vals[L.out_and])
                )
            if L.n_xor:
                P.append(
                    (XOR, g[L.sl_xor_a], g[L.sl_xor_b], vals[L.out_xor])
                )
            if L.n_copy:
                P.append((COPY, g[L.sl_copy], None, vals[L.out_copy]))
            if L.n_mux:
                P.append(
                    (XOR, vals[L.sl_u], vals[L.sl_v], vals[L.out_mux])
                )
        # 4. clock nets.
        if psch.sl_clk_free.stop > psch.sl_clk_free.start:
            P.append((COPY, WORD_ONES, None, vals[psch.sl_clk_free]))
        if psch.clk_g_en.size:
            o = vals[psch.sl_clk_gated]
            P.append((TAKE, v_prev, psch.clk_g_en, o))
            if psch.clk_g_has_inv:
                P.append((XOR, o, psch.clk_g_en_inv, o))
        return tuple(P)
