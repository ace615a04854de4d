"""Shared helpers for the test suite."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError, StimulusError
from repro.isa.instructions import IClass, Instruction, Opcode
from repro.isa.program import Program
from repro.isa.semantics import ArchState, ExecResult
from repro.rtl import Netlist, Op, Simulator
from repro.rtl.cells import CELL_LIBRARY, EVAL_OPS, N_FANIN
from repro.rtl.levelize import EvalGroup, LevelSchedule
from repro.rtl.netlist import NO_NET
from repro.uarch.caches import Cache
from repro.uarch.events import ActivityTrace, stimulus_schema
from repro.uarch.params import CoreParams
from repro.uarch.pipeline import PipelineStats

#: The simulator's three code paths, for
#: ``@pytest.mark.parametrize("engine", SIM_PATHS, indirect=True)`` (the
#: ``engine`` fixture in ``conftest.py`` turns each into an engine
#: name): ``"packed"`` is the packed engine with the C-kernel loader
#: patched to ``None``, so its NumPy loop runs; ``"compiled"`` is the
#: packed engine on the C kernel (skipped where none loads); ``"uint8"``
#: is the reference engine.
SIM_PATHS = ("packed", "compiled", "uint8")


def bus_value(vals: np.ndarray, bus: list[int], batch: int = 0) -> int:
    """Interpret a bus (LSB first) as an unsigned integer."""
    return int(sum(int(vals[b, batch]) << i for i, b in enumerate(bus)))


def int_to_bits(value: int, width: int) -> list[int]:
    """LSB-first bit list of ``value``."""
    return [(value >> i) & 1 for i in range(width)]


def eval_inputs(nl: Netlist, assignments: dict[int, int]) -> np.ndarray:
    """Combinationally evaluate ``nl`` with input net -> bit assignments."""
    sim = Simulator(nl)
    input_ids = list(sim.schedule.input_ids)
    bits = np.zeros(len(input_ids), dtype=np.uint8)
    for net, v in assignments.items():
        bits[input_ids.index(net)] = v & 1
    return sim.comb_eval(bits)


def assign_bus(
    assignments: dict[int, int], bus: list[int], value: int
) -> None:
    for i, net in enumerate(bus):
        assignments[net] = (value >> i) & 1


def simple_counter_design(width: int = 4, gated: bool = False):
    """A small sequential design: a counter, optionally clock-gated.

    Returns (netlist, dict) exposing the interesting nets.
    """
    from repro.rtl.datapath import (
        connect_register_bus,
        incrementer,
        register_bus_uninit,
    )

    nl = Netlist("counter")
    en_in = nl.input_bit("en") if gated else None
    dom = nl.clock_domain("main", enable=en_in)
    with nl.scope("ctr"):
        regs = register_bus_uninit(nl, width, dom, name="q")
        inc = incrementer(nl, regs)
        connect_register_bus(nl, regs, inc)
    return nl, {"dom": dom, "regs": regs, "inc": inc, "en": en_in}


def random_netlist(seed: int, n_gates: int = 50) -> Netlist:
    """Random gate soup with registers, gated domains, and consts.

    Besides inputs and consts, the gates may read both domains' CLK
    nets and two feedback registers created with ``reg_uninit`` and
    wired with ``connect_reg`` after the logic exists (their D nets can
    be any pool net, a CLK net included).  Used by the differential
    simulator tests (vectorized vs reference interpreter, packed vs
    uint8 engine) and the compile-path oracles.
    """
    rng = np.random.default_rng(seed)
    nl = Netlist("rand")
    pool = [nl.input_bit(f"i{k}") for k in range(4)]
    pool.append(nl.const(0))
    pool.append(nl.const(1))
    dom_free = nl.clock_domain("free")
    dom_gated = nl.clock_domain("gated", enable=pool[0])
    pool += [dom_free.clk_net, dom_gated.clk_net]
    feedback = [
        nl.reg_uninit(dom, init=int(rng.integers(0, 2)))
        for dom in (dom_free, dom_gated)
    ]
    pool += feedback
    gate_ops = [Op.AND, Op.OR, Op.XOR, Op.NAND, Op.NOR, Op.XNOR,
                Op.NOT, Op.BUF, Op.MUX]
    for _ in range(n_gates):
        op = gate_ops[int(rng.integers(0, len(gate_ops)))]
        picks = [pool[int(rng.integers(0, len(pool)))] for _ in range(3)]
        if op in (Op.NOT, Op.BUF):
            net = nl.gate(op, picks[0])
        elif op == Op.MUX:
            net = nl.mux(picks[0], picks[1], picks[2])
        else:
            net = nl.gate(op, picks[0], picks[1])
        r = rng.random()
        if r < 0.10:
            net = nl.reg(net, dom_free, init=int(rng.integers(0, 2)))
        elif r < 0.20:
            net = nl.reg(net, dom_gated, init=int(rng.integers(0, 2)))
        pool.append(net)
    for reg in feedback:
        nl.connect_reg(reg, pool[int(rng.integers(0, len(pool)))])
    return nl


# ---------------------------------------------------------------------- #
# Compile-path oracles: the per-net loops the array code replaced
# ---------------------------------------------------------------------- #
def levelize_oracle(netlist: Netlist) -> LevelSchedule:
    """Per-net levelization: a forward pass in id order, then buckets
    keyed by (level, op).  Oracle for :func:`repro.rtl.levelize`."""
    netlist.validate()
    n = netlist.n_nets
    ops = netlist.ops_array()
    fanin = netlist.fanin_array() if n else np.zeros((0, 3), np.int32)

    levels = np.zeros(n, dtype=np.int32)
    eval_op_set = {int(o) for o in EVAL_OPS}
    for i in range(n):
        op = ops[i]
        if op not in eval_op_set:
            continue
        lv = 0
        for k in range(N_FANIN[Op(op)]):
            f = fanin[i, k]
            if f != NO_NET:
                lv = max(lv, int(levels[f]))
        levels[i] = lv + 1

    buckets: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        if ops[i] in eval_op_set:
            buckets.setdefault((int(levels[i]), int(ops[i])), []).append(i)
    groups: list[EvalGroup] = []
    for (lv, op_i) in sorted(buckets):
        ids = np.asarray(buckets[(lv, op_i)], dtype=np.int32)
        fa = fanin[ids]
        a = fa[:, 0].copy()
        b = np.where(fa[:, 1] == NO_NET, 0, fa[:, 1]).astype(np.int32)
        c = np.where(fa[:, 2] == NO_NET, 0, fa[:, 2]).astype(np.int32)
        groups.append(EvalGroup(op=Op(op_i), out=ids, a=a, b=b, c=c))

    reg_ids = np.asarray(
        [i for i in range(n) if ops[i] == Op.REG], dtype=np.int32
    )
    reg_d = fanin[reg_ids, 0] if reg_ids.size else np.zeros(0, np.int32)
    domains = netlist.reg_domain_array()
    reg_en = np.full(reg_ids.size, NO_NET, dtype=np.int32)
    for k, rid in enumerate(reg_ids):
        dom = netlist.domains[int(domains[rid])]
        if dom.enable is not None:
            reg_en[k] = dom.enable
    reg_init = (
        netlist.reg_init_array()[reg_ids]
        if reg_ids.size
        else np.zeros(0, np.uint8)
    )
    const_ids = np.asarray(
        [i for i in range(n) if ops[i] in (Op.CONST0, Op.CONST1)],
        dtype=np.int32,
    )
    return LevelSchedule(
        groups=groups,
        levels=levels,
        reg_out=reg_ids,
        reg_d=reg_d.astype(np.int32),
        reg_en=reg_en,
        reg_init=reg_init,
        clk_out=np.asarray(
            [d.clk_net for d in netlist.domains], dtype=np.int32
        ),
        clk_en=np.asarray(
            [NO_NET if d.enable is None else d.enable
             for d in netlist.domains],
            dtype=np.int32,
        ),
        input_ids=np.asarray(
            [i for i in range(n) if ops[i] == Op.INPUT], dtype=np.int32
        ),
        const_ids=const_ids,
        const_vals=np.asarray(
            [1 if ops[i] == Op.CONST1 else 0 for i in const_ids],
            dtype=np.uint8,
        ),
        max_level=int(levels.max()) if n else 0,
    )


def packed_alias_oracle(
    netlist: Netlist, schedule: LevelSchedule
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-net polarity and alias pass of the packed compile, in id
    order.  Returns ``(pol, root, alias_ids)``: storage polarity per
    net, each net's alias root, and the alias nets in id order."""
    n = schedule.n_nets
    ops = netlist.ops_array()
    fanin = netlist.fanin_array()
    is_clk = np.zeros(n, dtype=bool)
    is_clk[schedule.clk_out] = True
    pol = np.zeros(n, dtype=np.uint8)
    root = np.arange(n, dtype=np.int32)
    alias: list[int] = []
    for i in range(n):
        op = Op(int(ops[i]))
        if op in (Op.BUF, Op.NOT):
            a = int(fanin[i, 0])
            if is_clk[root[a]]:
                continue  # a copy of a CLK net stays evaluated
            root[i] = root[a]
            pol[i] = pol[a] ^ (1 if op == Op.NOT else 0)
            alias.append(i)
        elif op in (Op.NAND, Op.OR, Op.XNOR):
            pol[i] = 1
    return pol, root, np.asarray(alias, dtype=np.int32)


def annotate_capacitance_oracle(netlist: Netlist, tech) -> np.ndarray:
    """Per-net capacitance annotation with the same order of additions
    as :func:`repro.power.analyzer.annotate_capacitance`."""
    n = netlist.n_nets
    ops = netlist.ops_array()
    cap = np.zeros(n, dtype=np.float64)
    for i in range(n):
        cap[i] = CELL_LIBRARY[Op(ops[i])].out_cap
    cap += tech.wire_cap_base
    fanin = netlist.fanin_array()
    in_caps = np.array(
        [CELL_LIBRARY[Op(op)].in_cap for op in ops], dtype=np.float64
    )
    for col in range(3):
        src = fanin[:, col]
        valid = src >= 0
        if valid.any():
            np.add.at(cap, src[valid], in_caps[valid])
    cap += tech.wire_cap_per_fanout * netlist.fanout_counts()
    domains = netlist.reg_domain_array()
    for dom in netlist.domains:
        n_regs = int(
            np.count_nonzero((domains >= 0) & (domains == dom.index))
        )
        cap[dom.clk_net] += tech.clk_pin_cap * n_regs * tech.clk_tree_factor
    return cap


def dedup_columns_oracle(X: np.ndarray) -> np.ndarray:
    """One representative column per distinct column, by a per-column
    dict of key bytes: the reference for
    :func:`repro.core.selection._dedup_columns`."""
    is_binary = X.dtype == np.uint8 or (
        X.min() >= 0 and X.max() <= 1 and np.all(X == X.astype(np.uint8))
    )
    if is_binary:
        hashable = np.packbits(X.astype(np.uint8), axis=0)
    else:
        hashable = X.astype(np.float32, copy=True)
        hashable[hashable == 0.0] = 0.0  # -0.0 -> +0.0
        hashable[np.isnan(hashable)] = np.float32("nan")
    seen: dict[bytes, int] = {}
    reps = []
    for j in range(hashable.shape[1]):
        key = np.ascontiguousarray(hashable[:, j]).tobytes()
        if key not in seen:
            seen[key] = j
            reps.append(j)
    return np.asarray(reps, dtype=np.int64)


def opm_oracle(toggles, qmodel) -> np.ndarray:
    """Per-cycle OPM integers by a whole-matrix int64 matmul: the
    reference for :func:`repro.opm.meter.opm_dot`."""
    w = np.asarray(qmodel.int_weights).astype(np.int64)
    return np.asarray(toggles).astype(np.int64) @ w + qmodel.int_intercept


def assert_schedules_identical(got: LevelSchedule, want: LevelSchedule):
    """Field-for-field equality: values, dtypes, group order and ops."""
    fields = ("levels", "reg_out", "reg_d", "reg_en", "reg_init",
              "clk_out", "clk_en", "input_ids", "const_ids", "const_vals")
    for name in fields:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        np.testing.assert_array_equal(g, w, err_msg=name)
    assert got.max_level == want.max_level
    assert len(got.groups) == len(want.groups)
    for k, (g, w) in enumerate(zip(got.groups, want.groups)):
        assert g.op is w.op, k
        for name in ("out", "a", "b", "c"):
            ga, wa = getattr(g, name), getattr(w, name)
            assert ga.dtype == wa.dtype, (k, name)
            np.testing.assert_array_equal(ga, wa, err_msg=f"{k}.{name}")


# ---------------------------------------------------------------------- #
# Pipeline oracle: the per-channel ``trace.set`` model that
# ``repro.uarch.pipeline.Pipeline`` replaced, kept verbatim (renamed
# class) together with its helpers and the per-channel stimulus encoder.
# ---------------------------------------------------------------------- #

_ALU_OPCODE_CODE = {
    Opcode.ADD: 0,
    Opcode.SUB: 1,
    Opcode.AND: 2,
    Opcode.OR: 3,
    Opcode.XOR: 4,
    Opcode.SHL: 5,
    Opcode.SHR: 6,
    Opcode.MOVI: 7,
    Opcode.BEQ: 1,  # branches compare via subtract
    Opcode.BNE: 1,
}

_VEC_OPCODE_CODE = {
    Opcode.VADD: 0,
    Opcode.VMUL: 1,
    Opcode.VMAC: 2,
    Opcode.VLD: 3,
    Opcode.VST: 3,
}


@dataclass
class _DynInst:
    """One dynamic instruction with its architectural values."""

    seq: int
    pc: int
    inst: Instruction
    result: ExecResult
    mispredicted: bool = False


class _BranchPredictor:
    """Per-PC 2-bit saturating counters (taken >= 2)."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self.table[pc % self.entries] >= 2

    def update(self, pc: int, taken: bool) -> None:
        i = pc % self.entries
        if taken:
            self.table[i] = min(3, self.table[i] + 1)
        else:
            self.table[i] = max(0, self.table[i] - 1)


@dataclass
class _IqEntry:
    di: _DynInst
    src_tags: list[str]
    dst_tag: str | None


class PipelineOracle:
    """The per-channel ``trace.set`` cycle model, kept as the reference
    for :class:`repro.uarch.pipeline.Pipeline`."""

    def __init__(self, params: CoreParams) -> None:
        self.params = params
        self.schema = stimulus_schema(params)

    # ------------------------------------------------------------------ #
    def run(self, program: Program, n_cycles: int) -> tuple[
        ActivityTrace, PipelineStats
    ]:
        """Run ``program`` (looping) for exactly ``n_cycles`` cycles."""
        if n_cycles <= 0:
            raise ReproError("n_cycles must be positive")
        p = self.params
        trace = ActivityTrace(self.schema, n_cycles)
        stats = PipelineStats()
        arch = ArchState(lanes=p.vec_lanes)
        predictor = _BranchPredictor(p.bp_entries)
        l1i = Cache(p.l1i_sets, p.l1i_assoc, p.l1i_line)
        l1d = Cache(p.l1d_sets, p.l1d_assoc, p.l1d_line)
        l2 = Cache(p.l2_sets, p.l2_assoc, p.l2_line)

        seq_counter = 0
        fetch_stall_until = 0
        fetch_queue: deque[_DynInst] = deque()
        iq: list[_IqEntry] = []
        rob: deque[list] = deque()  # [seq, done_cycle or None]
        reg_ready: dict[str, int] = {}
        outstanding_misses: list[int] = []  # completion cycles
        last_active = {u: -(10**9) for u in p.unit_names}

        def unit_active(unit: str, cycle: int) -> None:
            last_active[unit] = cycle

        for cycle in range(n_cycles):
            # ---------------- retire (in order) ---------------- #
            retired = 0
            while (
                rob
                and retired < p.retire_width
                and rob[0][1] is not None
                and rob[0][1] <= cycle
            ):
                rob.popleft()
                retired += 1
            if retired:
                stats.retired += retired
                unit_active("rob", cycle)
            trace.set("rob/retire", cycle, retired)

            # ---------------- miss completion ---------------- #
            outstanding_misses = [
                c for c in outstanding_misses if c > cycle
            ]

            # ---------------- issue (out of order) ---------------- #
            throttled = p.throttle is not None and p.throttle.active(cycle)
            issue_cap = p.issue_width
            if throttled and p.throttle.max_issue is not None:
                issue_cap = min(issue_cap, p.throttle.max_issue)
            free = {
                "alu": p.n_alu,
                "mul": p.n_mul,
                "vec": p.n_vec,
                "lsu": p.lsu_ports,
            }
            issued_entries: list[_IqEntry] = []
            n_issued = 0
            for entry in iq:
                if n_issued >= issue_cap:
                    break
                di = entry.di
                icls = di.inst.iclass
                if throttled and p.throttle.block_vector and icls in (
                    IClass.VEC, IClass.VMUL, IClass.VMEM
                ):
                    continue
                if not all(
                    reg_ready.get(t, 0) <= cycle for t in entry.src_tags
                ):
                    continue
                pool, latency = self._unit_for(icls)
                if pool is not None and free[pool] <= 0:
                    continue
                if icls in (IClass.MEM, IClass.VMEM):
                    if len(outstanding_misses) >= p.max_outstanding_misses:
                        continue
                    latency = self._memory_access(
                        di, cycle, l1d, l2, trace, stats,
                        port=p.lsu_ports - free["lsu"],
                        outstanding=outstanding_misses,
                        unit_active=unit_active,
                    )
                if pool is not None:
                    idx = (
                        {"alu": p.n_alu, "mul": p.n_mul,
                         "vec": p.n_vec, "lsu": p.lsu_ports}[pool]
                        - free[pool]
                    )
                    free[pool] -= 1
                    self._drive_unit_channels(
                        di, pool, idx, cycle, trace, unit_active
                    )
                done = cycle + latency
                if entry.dst_tag is not None:
                    reg_ready[entry.dst_tag] = done
                for slot in rob:
                    if slot[0] == di.seq:
                        slot[1] = done
                        break
                issued_entries.append(entry)
                n_issued += 1
            for entry in issued_entries:
                iq.remove(entry)
            # The IQ clock gates on *events* (issue or dispatch), not on
            # occupancy: a full-but-stalled queue holds state untouched.
            if n_issued:
                unit_active("issue", cycle)
            trace.set("issue/occ", cycle, len(iq))

            # ---------------- dispatch (decode -> IQ/ROB) ---------------- #
            dispatched = 0
            valid_mask = 0
            while (
                fetch_queue
                and dispatched < p.issue_width
                and len(iq) < p.iq_size
                and len(rob) < p.rob_size
            ):
                di = fetch_queue.popleft()
                entry = _IqEntry(
                    di=di,
                    src_tags=self._source_tags(di.inst),
                    dst_tag=self._dest_tag(di.inst),
                )
                iq.append(entry)
                rob.append([di.seq, None])
                valid_mask |= 1 << dispatched
                dispatched += 1
            if dispatched:
                unit_active("decode", cycle)
                unit_active("rename", cycle)
                unit_active("issue", cycle)
                unit_active("rob", cycle)
            trace.set("decode/valid", cycle, valid_mask)
            trace.set("rename/count", cycle, dispatched)
            trace.set("rob/occ", cycle, len(rob))

            # ---------------- fetch ---------------- #
            if cycle >= fetch_stall_until and len(fetch_queue) < p.fetch_buffer:
                fetched_insts: list[_DynInst] = []
                first_pc = arch.pc
                for _slot in range(p.fetch_width):
                    if len(fetch_queue) + len(fetched_insts) >= p.fetch_buffer:
                        break
                    pc = arch.pc
                    hit = l1i.access(pc)
                    if not hit:
                        miss_latency = (
                            p.l2_hit_latency
                            if self._l2_access(pc + 0x8000, cycle, l2, trace,
                                               stats, unit_active)
                            else p.mem_latency
                        )
                        fetch_stall_until = cycle + miss_latency
                        break
                    inst = program[pc]
                    result = arch.execute(inst, len(program))
                    di = _DynInst(
                        seq=seq_counter, pc=pc, inst=inst, result=result
                    )
                    seq_counter += 1
                    fetched_insts.append(di)
                    stats.fetched += 1
                    if inst.iclass == IClass.BRANCH:
                        pred = predictor.predict(pc)
                        predictor.update(pc, result.branch_taken)
                        if pred != result.branch_taken:
                            di.mispredicted = True
                            stats.mispredicts += 1
                            fetch_stall_until = (
                                cycle + p.mispredict_penalty
                            )
                        break  # redirect: stop fetching this cycle
                if fetched_insts:
                    unit_active("fetch", cycle)
                    trace.set("fetch/valid", cycle, 1)
                    trace.set("fetch/pc", cycle, first_pc & 0xFFF)
                    for k, di in enumerate(fetched_insts):
                        trace.set(
                            f"fetch/inst{k}", cycle, di.inst.encode()
                        )
                    fetch_queue.extend(fetched_insts)

            # ---------------- clock enables ---------------- #
            for unit in p.unit_names:
                en = int(cycle - last_active[unit] <= p.gate_hysteresis)
                trace.set(f"{unit}/clk_en", cycle, en)

        stats.cycles = n_cycles
        stats.l1i = l1i.stats
        stats.l1d = l1d.stats
        stats.l2 = l2.stats
        return trace, stats

    # ------------------------------------------------------------------ #
    def _unit_for(self, icls: IClass) -> tuple[str | None, int]:
        p = self.params
        if icls == IClass.ALU or icls == IClass.BRANCH:
            return "alu", p.alu_latency
        if icls == IClass.MUL:
            return "mul", p.mul_latency
        if icls == IClass.VEC:
            return "vec", p.vec_latency
        if icls == IClass.VMUL:
            return "vec", p.vmul_latency
        if icls in (IClass.MEM, IClass.VMEM):
            return "lsu", p.l1_hit_latency  # refined by _memory_access
        return None, 1  # NOP

    @staticmethod
    def _source_tags(inst: Instruction) -> list[str]:
        tags = [f"x{r}" for r in inst.reads_scalar if r != 0]
        tags += [f"v{r}" for r in inst.reads_vector]
        return tags

    @staticmethod
    def _dest_tag(inst: Instruction) -> str | None:
        if inst.writes_scalar is not None:
            return f"x{inst.writes_scalar}"
        if inst.writes_vector is not None:
            return f"v{inst.writes_vector}"
        return None

    def _l2_access(
        self,
        addr: int,
        cycle: int,
        l2: Cache,
        trace: ActivityTrace,
        stats: PipelineStats,
        unit_active,
    ) -> bool:
        hit = l2.access(addr)
        unit_active("l2ctl", cycle)
        trace.set("l2ctl/req", cycle, 1)
        trace.set("l2ctl/addr", cycle, addr & 0xFFFF)
        trace.set("l2ctl/hit", cycle, int(hit))
        return hit

    def _memory_access(
        self,
        di: _DynInst,
        cycle: int,
        l1d: Cache,
        l2: Cache,
        trace: ActivityTrace,
        stats: PipelineStats,
        port: int,
        outstanding: list[int],
        unit_active,
    ) -> int:
        p = self.params
        inst = di.inst
        res = di.result
        addr = res.addresses[0] if res.addresses else 0
        hit = l1d.access(addr)
        if hit:
            latency = p.l1_hit_latency
        else:
            l2_hit = self._l2_access(
                addr, cycle, l2, trace, stats, unit_active
            )
            latency = p.l2_hit_latency if l2_hit else p.mem_latency
            outstanding.append(cycle + latency)
        is_store = inst.opcode in (Opcode.ST, Opcode.VST)
        if is_store:
            wdata = res.operands[1] if len(res.operands) > 1 else (
                res.vector_operands[0][0] if res.vector_operands else 0
            )
        else:
            wdata = res.results[0] if res.results else (
                res.vector_results[0] if res.vector_results else 0
            )
        trace.set(f"lsu{port}/valid", cycle, 1)
        trace.set(f"lsu{port}/is_store", cycle, int(is_store))
        trace.set(f"lsu{port}/addr", cycle, addr & 0xFFFF)
        trace.set(f"lsu{port}/wdata", cycle, wdata & 0xFFFF)
        trace.set(f"lsu{port}/hit", cycle, int(hit))
        unit_active(f"lsu{port}", cycle)
        # Vector memory ops also move data through the vector unit's
        # register-file write path.
        if inst.iclass == IClass.VMEM:
            lanes = (
                res.vector_results
                if res.vector_results
                else (res.vector_operands[0] if res.vector_operands else ())
            )
            self._drive_vec_lanes(0, cycle, inst, lanes, (), trace,
                                  unit_active)
        return latency

    def _drive_unit_channels(
        self,
        di: _DynInst,
        pool: str,
        idx: int,
        cycle: int,
        trace: ActivityTrace,
        unit_active,
    ) -> None:
        inst = di.inst
        res = di.result
        if pool == "alu":
            unit = f"alu{idx}"
            a = res.operands[0] if res.operands else 0
            b = res.operands[1] if len(res.operands) > 1 else 0
            trace.set(f"{unit}/valid", cycle, 1)
            trace.set(
                f"{unit}/op", cycle, _ALU_OPCODE_CODE.get(inst.opcode, 0)
            )
            trace.set(f"{unit}/a", cycle, a & 0xFFFF)
            trace.set(f"{unit}/b", cycle, b & 0xFFFF)
            unit_active(unit, cycle)
        elif pool == "mul":
            unit = f"mul{idx}"
            a = res.operands[0] if res.operands else 0
            b = res.operands[1] if len(res.operands) > 1 else 0
            acc = res.operands[2] if len(res.operands) > 2 else 0
            trace.set(f"{unit}/valid", cycle, 1)
            trace.set(f"{unit}/a", cycle, a & 0xFFFF)
            trace.set(f"{unit}/b", cycle, b & 0xFFFF)
            trace.set(f"{unit}/acc", cycle, acc & 0xFFFF)
            unit_active(unit, cycle)
        elif pool == "vec":
            va = res.vector_operands[0] if res.vector_operands else ()
            vb = (
                res.vector_operands[1]
                if len(res.vector_operands) > 1
                else ()
            )
            self._drive_vec_lanes(idx, cycle, inst, va, vb, trace,
                                  unit_active)
        elif pool == "lsu":
            pass  # handled by _memory_access

    def _drive_vec_lanes(
        self,
        idx: int,
        cycle: int,
        inst: Instruction,
        va,
        vb,
        trace: ActivityTrace,
        unit_active,
    ) -> None:
        p = self.params
        unit = f"vec{idx}"
        trace.set(f"{unit}/valid", cycle, 1)
        trace.set(f"{unit}/op", cycle, _VEC_OPCODE_CODE.get(inst.opcode, 0))
        for lane in range(p.vec_lanes):
            a = va[lane] if lane < len(va) else 0
            b = vb[lane] if lane < len(vb) else 0
            trace.set(f"{unit}/a{lane}", cycle, a & 0xFFFF)
            trace.set(f"{unit}/b{lane}", cycle, b & 0xFFFF)
        unit_active(unit, cycle)


def encode_stimulus_oracle(trace: ActivityTrace) -> np.ndarray:
    """The per-channel loop :meth:`ActivityTrace.encode_stimulus` replaced:
    flatten to a (n_cycles, total_bits) uint8 stimulus matrix."""
    out = np.empty((trace.n_cycles, trace.total_bits), dtype=np.uint8)
    col = 0
    for name, width in trace.schema:
        vals = trace.channels[name]
        max_ok = (1 << width) - 1
        if vals.size and int(vals.max()) > max_ok:
            raise StimulusError(
                f"channel {name!r} value {int(vals.max())} exceeds "
                f"{width}-bit width"
            )
        shifts = np.arange(width, dtype=np.uint64)
        out[:, col : col + width] = (
            (vals[:, None] >> shifts) & np.uint64(1)
        ).astype(np.uint8)
        col += width
    return out
