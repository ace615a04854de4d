"""Trace-driven out-of-order pipeline timing model.

Architectural values are computed in program order (functional-first via
:class:`repro.isa.ArchState`); this model schedules *when* each dynamic
instruction's activity happens: fetch with an I-cache and branch predictor,
in-order dispatch into an issue queue + ROB, out-of-order issue limited by
functional units / dependencies / optional throttling, a D-cache + L2 with
bounded outstanding misses, and in-order retire.

Its product is an :class:`~repro.uarch.events.ActivityTrace`: per-cycle
channel values (operands flowing into each unit, occupancies, clock-gate
enables) that the gate-level design consumes as stimulus.  Fidelity goals
are behavioural, not RTL-exact: stalls, bursts, miss clusters, gated idle
units — the structures that shape real per-cycle power.

The cycle loop is plain Python over small tables built once per
:class:`Pipeline`: each cycle fills one ``array("Q")`` row of channel
values by schema column, and each static instruction is decoded once per
run.  A
unit's activity is marked in its ``*/clk_en`` column; after the loop one
NumPy pass turns those marks into clock enables (``cycle - last_active <=
gate_hysteresis``) and the rows into one (channels x cycles) matrix whose
rows are the trace's channels.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import ReproError
from repro.isa.instructions import (
    N_VREGS,
    N_XREGS,
    OPCODE_TABLE,
    IClass,
    Instruction,
)
from repro.isa.program import Program
from repro.isa.semantics import ArchState, ExecResult
from repro.uarch.caches import Cache, CacheStats
from repro.uarch.events import ActivityTrace, stimulus_schema
from repro.uarch.params import CoreParams

__all__ = ["Pipeline", "PipelineStats"]

#: Functional-unit pools: indices into the issue stage's free-unit counts.
_ALU, _MUL, _VEC, _LSU = range(4)
_NO_POOL = -1

#: ``last_active`` of a unit that has not been active yet.
_NEVER = -(10**9)

#: Pool, ``CoreParams`` latency field and ``block_vector`` stall of each
#: instruction class (memory ops: the L1 hit latency, refined at issue;
#: NOPs take 1 cycle).
_CLASS_POOL = {
    IClass.NOP: (_NO_POOL, None, False),
    IClass.ALU: (_ALU, "alu_latency", False),
    IClass.BRANCH: (_ALU, "alu_latency", False),
    IClass.MUL: (_MUL, "mul_latency", False),
    IClass.VEC: (_VEC, "vec_latency", True),
    IClass.VMUL: (_VEC, "vmul_latency", True),
    IClass.MEM: (_LSU, "l1_hit_latency", False),
    IClass.VMEM: (_LSU, "l1_hit_latency", True),
}


@dataclass
class PipelineStats:
    """Aggregate statistics of one pipeline run."""

    cycles: int = 0
    fetched: int = 0
    retired: int = 0
    mispredicts: int = 0
    l1i: CacheStats = field(default_factory=CacheStats)
    l1d: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)

    @property
    def ipc(self) -> float:
        return self.retired / self.cycles if self.cycles else 0.0


class _Decoded(NamedTuple):
    """What the cycle loop needs of one static instruction."""

    inst: Instruction
    pool: int  # _ALU.._LSU, or _NO_POOL (NOP)
    latency: int  # memory ops: the L1 hit latency, refined at issue
    vector: bool  # stalled by a ``block_vector`` throttle
    srcs: tuple[int, ...]  # readiness slots read (x1-x15, then v0-v7)
    dst: int  # readiness slot written, or -1
    word: int  # 32-bit encoding, driven on ``fetch/inst{k}``
    branch: bool
    vmem: bool
    store: bool
    op: int  # ``alu{i}/op`` or ``vec{i}/op`` code


class _BranchPredictor:
    """Per-PC 2-bit saturating counters (taken >= 2)."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.table = [2] * entries  # weakly taken

    def predict_update(self, pc: int, taken: bool) -> bool:
        """Return the prediction for ``pc``, then train on ``taken``."""
        i = pc % self.entries
        ctr = self.table[i]
        self.table[i] = min(3, ctr + 1) if taken else max(0, ctr - 1)
        return ctr >= 2


def _l2_access(l2: Cache, addr: int, row: array, cols: tuple) -> bool:
    """Access the L2 and drive the ``l2ctl`` channels."""
    clk, req, addr_col, hit_col = cols
    hit = l2.access(addr)
    row[clk] = 1
    row[req] = 1
    row[addr_col] = addr & 0xFFFF
    row[hit_col] = int(hit)
    return hit


def _drive_vec(row: array, cols: tuple, op: int, va, vb) -> None:
    """Drive one vector unit's channels; missing lanes read 0."""
    valid, op_col, clk, a_cols, b_cols = cols
    row[valid] = 1
    row[op_col] = op
    row[clk] = 1
    na, nb = len(va), len(vb)
    for lane, c in enumerate(a_cols):
        row[c] = va[lane] & 0xFFFF if lane < na else 0
    for lane, c in enumerate(b_cols):
        row[c] = vb[lane] & 0xFFFF if lane < nb else 0


class Pipeline:
    """Cycle-level model of one core configuration."""

    def __init__(self, params: CoreParams) -> None:
        p = self.params = params
        self.schema = stimulus_schema(params)
        self._names = [name for name, _w in self.schema]
        col = self._col = {name: i for i, name in enumerate(self._names)}
        self._clk_cols = [col[f"{u}/clk_en"] for u in p.unit_names]

        def cols(unit: str, *channels: str) -> tuple[int, ...]:
            return tuple([col[f"{unit}/{c}"] for c in channels])

        # Per-unit column tuples, indexed by unit number within a pool.
        self._alu_cols = [
            cols(f"alu{i}", "valid", "op", "a", "b", "clk_en")
            for i in range(p.n_alu)
        ]
        self._mul_cols = [
            cols(f"mul{i}", "valid", "a", "b", "acc", "clk_en")
            for i in range(p.n_mul)
        ]
        a_lanes = [f"a{k}" for k in range(p.vec_lanes)]
        b_lanes = [f"b{k}" for k in range(p.vec_lanes)]
        self._vec_cols = [
            cols(f"vec{i}", "valid", "op", "clk_en")
            + (cols(f"vec{i}", *a_lanes), cols(f"vec{i}", *b_lanes))
            for i in range(p.n_vec)
        ]
        self._lsu_cols = [
            cols(f"lsu{i}", "valid", "is_store", "addr", "wdata", "hit",
                 "clk_en")
            for i in range(p.lsu_ports)
        ]
        self._fetch_cols = cols("fetch", "clk_en", "valid", "pc") + (
            cols("fetch", *[f"inst{k}" for k in range(p.fetch_width)]),
        )
        self._l2_cols = cols("l2ctl", "clk_en", "req", "addr", "hit")

    def _decode(self, inst: Instruction) -> _Decoded:
        row = OPCODE_TABLE[inst.opcode]
        pool, latency, vector = _CLASS_POOL[row.iclass]
        # x0 is hardwired zero: reading it never waits, and writing it
        # publishes nothing.
        srcs = [r for r in (getattr(inst, n) for n in row.x_reads) if r != 0]
        srcs += [N_XREGS + getattr(inst, n) for n in row.v_reads]
        if row.x_write is not None:
            dst = getattr(inst, row.x_write) or -1
        elif row.v_write is not None:
            dst = N_XREGS + getattr(inst, row.v_write)
        else:
            dst = -1
        return _Decoded(
            inst,
            pool,
            1 if latency is None else getattr(self.params, latency),
            vector,
            tuple(srcs),
            dst,
            inst.encode(),
            row.iclass is IClass.BRANCH,
            row.iclass is IClass.VMEM,
            row.fmt in ("store", "vstore"),
            row.unit_op,
        )

    # ------------------------------------------------------------------ #
    def run(self, program: Program, n_cycles: int) -> tuple[
        ActivityTrace, PipelineStats
    ]:
        """Run ``program`` (looping) for exactly ``n_cycles`` cycles."""
        if n_cycles <= 0:
            raise ReproError("n_cycles must be positive")
        p = self.params
        col = self._col
        arch = ArchState(lanes=p.vec_lanes)
        predictor = _BranchPredictor(p.bp_entries)
        l1i = Cache(p.l1i_sets, p.l1i_assoc, p.l1i_line)
        l1d = Cache(p.l1d_sets, p.l1d_assoc, p.l1d_line)
        l2 = Cache(p.l2_sets, p.l2_assoc, p.l2_line)
        decoded = [self._decode(inst) for inst in program.instructions]
        n_prog = len(decoded)

        throttle = p.throttle
        totals = (p.n_alu, p.n_mul, p.n_vec, p.lsu_ports)
        fetch_width, issue_width = p.fetch_width, p.issue_width
        retire_width, fetch_buffer = p.retire_width, p.fetch_buffer
        alu_cols, mul_cols = self._alu_cols, self._mul_cols
        vec_cols, lsu_cols = self._vec_cols, self._lsu_cols
        fetch_clk, fetch_valid, fetch_pc, inst_cols = self._fetch_cols
        l2_cols = self._l2_cols
        decode_clk, decode_valid = col["decode/clk_en"], col["decode/valid"]
        rename_clk, rename_count = col["rename/clk_en"], col["rename/count"]
        issue_clk, issue_occ = col["issue/clk_en"], col["issue/occ"]
        rob_clk, rob_occ, rob_retire = (
            col["rob/clk_en"], col["rob/occ"], col["rob/retire"]
        )

        fetched = retired_total = mispredicts = 0
        fetch_stall_until = 0
        fetch_queue: deque[tuple[_Decoded, ExecResult]] = deque()
        # IQ entries are (decoded, result, rob slot); a ROB slot is a
        # one-item list holding the done cycle (None until issue).
        iq: list[tuple[_Decoded, ExecResult, list]] = []
        rob: deque[list] = deque()
        ready = [0] * (N_XREGS + N_VREGS)  # cycle each register is ready
        ready_at = ready.__getitem__
        outstanding_misses: list[int] = []  # completion cycles
        # One row of uint64 channel values per cycle, in schema order.
        blank = array("Q", bytes(8 * len(self._names)))
        rows: list[array] = []

        for cycle in range(n_cycles):
            row = blank[:]
            rows.append(row)
            # ---------------- retire (in order) ---------------- #
            retired = 0
            while rob and retired < retire_width:
                done = rob[0][0]
                if done is None or done > cycle:
                    break
                rob.popleft()
                retired += 1
            if retired:
                retired_total += retired
                row[rob_clk] = 1
            row[rob_retire] = retired

            # ---------------- miss completion ---------------- #
            if outstanding_misses:
                outstanding_misses = [
                    c for c in outstanding_misses if c > cycle
                ]

            # ---------------- issue (out of order) ---------------- #
            n_issued = 0
            if iq:
                issue_cap = issue_width
                block_vector = False
                if throttle is not None and throttle.active(cycle):
                    if throttle.max_issue is not None:
                        issue_cap = min(issue_cap, throttle.max_issue)
                    block_vector = throttle.block_vector
                free = list(totals)
                waiting: list[tuple[_Decoded, ExecResult, list]] = []
                for k, entry in enumerate(iq):
                    if n_issued >= issue_cap:
                        waiting += iq[k:]
                        break
                    d, res, slot = entry
                    pool = d.pool
                    if (
                        (pool != _NO_POOL and free[pool] <= 0)
                        or (block_vector and d.vector)
                        or (d.srcs and max(map(ready_at, d.srcs)) > cycle)
                        or (pool == _LSU and len(outstanding_misses)
                            >= p.max_outstanding_misses)
                    ):
                        waiting.append(entry)
                        continue
                    latency = d.latency
                    if pool != _NO_POOL:
                        idx = totals[pool] - free[pool]
                        free[pool] -= 1
                        if pool == _ALU:
                            valid, op_c, a_c, b_c, clk = alu_cols[idx]
                            ops = res.operands
                            row[valid] = 1
                            row[op_c] = d.op
                            row[a_c] = ops[0] & 0xFFFF if ops else 0
                            row[b_c] = (
                                ops[1] & 0xFFFF if len(ops) > 1 else 0
                            )
                            row[clk] = 1
                        elif pool == _MUL:
                            valid, a_c, b_c, acc_c, clk = mul_cols[idx]
                            ops = res.operands
                            n_ops = len(ops)
                            row[valid] = 1
                            row[a_c] = ops[0] & 0xFFFF if n_ops else 0
                            row[b_c] = ops[1] & 0xFFFF if n_ops > 1 else 0
                            row[acc_c] = (
                                ops[2] & 0xFFFF if n_ops > 2 else 0
                            )
                            row[clk] = 1
                        elif pool == _VEC:
                            vops = res.vector_operands
                            _drive_vec(
                                row, vec_cols[idx], d.op,
                                vops[0] if vops else (),
                                vops[1] if len(vops) > 1 else (),
                            )
                        else:
                            latency = self._memory_access(
                                d, res, cycle, row, lsu_cols[idx], l1d, l2,
                                l2_cols, outstanding_misses,
                            )
                    done = cycle + latency
                    if d.dst >= 0:
                        ready[d.dst] = done
                    slot[0] = done
                    n_issued += 1
                iq = waiting
                # The IQ clock gates on *events* (issue or dispatch), not
                # on occupancy: a full-but-stalled queue holds state
                # untouched.
                if n_issued:
                    row[issue_clk] = 1
                row[issue_occ] = len(iq)

            # ---------------- dispatch (decode -> IQ/ROB) ---------------- #
            dispatched = min(
                len(fetch_queue),
                issue_width,
                p.iq_size - len(iq),
                p.rob_size - len(rob),
            )
            if dispatched > 0:
                for _ in range(dispatched):
                    d, res = fetch_queue.popleft()
                    slot = [None]
                    iq.append((d, res, slot))
                    rob.append(slot)
                row[decode_clk] = row[rename_clk] = 1
                row[issue_clk] = row[rob_clk] = 1
                row[decode_valid] = (1 << dispatched) - 1
                row[rename_count] = dispatched
            row[rob_occ] = len(rob)

            # ---------------- fetch ---------------- #
            room = min(fetch_width, fetch_buffer - len(fetch_queue))
            if cycle >= fetch_stall_until and room > 0:
                first_pc = arch.pc
                n_fetched = 0
                for _slot in range(room):
                    pc = arch.pc
                    if not l1i.access(pc):
                        fetch_stall_until = cycle + (
                            p.l2_hit_latency
                            if _l2_access(l2, pc + 0x8000, row, l2_cols)
                            else p.mem_latency
                        )
                        break
                    d = decoded[pc]
                    res = arch.execute(d.inst, n_prog)
                    fetch_queue.append((d, res))
                    row[inst_cols[n_fetched]] = d.word
                    n_fetched += 1
                    if d.branch:
                        taken = res.branch_taken
                        if predictor.predict_update(pc, taken) != taken:
                            mispredicts += 1
                            fetch_stall_until = (
                                cycle + p.mispredict_penalty
                            )
                        break  # redirect: stop fetching this cycle
                if n_fetched:
                    fetched += n_fetched
                    row[fetch_clk] = row[fetch_valid] = 1
                    row[fetch_pc] = first_pc & 0xFFF

        # One (channels x cycles) matrix; its rows are the channels.
        flat = np.frombuffer(b"".join(rows), dtype=np.uint64)
        del rows
        mat = flat.reshape(n_cycles, -1).T.copy()
        # ---------------- clock enables ---------------- #
        # The loop marked each unit's active cycles in its clk_en row; a
        # clock stays enabled while cycle - last_active <= hysteresis.
        clk = self._clk_cols
        cycles = np.arange(n_cycles)
        last_active = np.maximum.accumulate(
            np.where(mat[clk] != 0, cycles, _NEVER), axis=1
        )
        mat[clk] = cycles - last_active <= p.gate_hysteresis

        stats = PipelineStats(
            cycles=n_cycles,
            fetched=fetched,
            retired=retired_total,
            mispredicts=mispredicts,
            l1i=l1i.stats,
            l1d=l1d.stats,
            l2=l2.stats,
        )
        trace = ActivityTrace(
            self.schema, n_cycles, dict(zip(self._names, mat))
        )
        return trace, stats

    # ------------------------------------------------------------------ #
    def _memory_access(
        self,
        d: _Decoded,
        res: ExecResult,
        cycle: int,
        row: array,
        cols: tuple,
        l1d: Cache,
        l2: Cache,
        l2_cols: tuple,
        outstanding: list[int],
    ) -> int:
        """Access the D-cache (and L2 on a miss), drive the port's
        channels, and return the access latency."""
        p = self.params
        addr = res.addresses[0] if res.addresses else 0
        hit = l1d.access(addr)
        if hit:
            latency = p.l1_hit_latency
        else:
            latency = (
                p.l2_hit_latency
                if _l2_access(l2, addr, row, l2_cols)
                else p.mem_latency
            )
            outstanding.append(cycle + latency)
        if d.store:
            wdata = res.operands[1] if len(res.operands) > 1 else (
                res.vector_operands[0][0] if res.vector_operands else 0
            )
        else:
            wdata = res.results[0] if res.results else (
                res.vector_results[0] if res.vector_results else 0
            )
        valid, is_store, addr_c, wdata_c, hit_c, clk = cols
        row[valid] = 1
        row[is_store] = int(d.store)
        row[addr_c] = addr & 0xFFFF
        row[wdata_c] = wdata & 0xFFFF
        row[hit_c] = int(hit)
        row[clk] = 1
        # Vector memory ops also move data through the vector unit's
        # register-file write path.
        if d.vmem:
            lanes = (
                res.vector_results
                if res.vector_results
                else (res.vector_operands[0] if res.vector_operands else ())
            )
            _drive_vec(row, self._vec_cols[0], d.op, lanes, ())
        return latency
