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

Each static instruction is decoded once per run, and the cycle loop
fills one row of channel values per cycle by schema column.  The loop
runs in a C kernel (:func:`load_pipeline_kernel`) compiled by the
loader of :mod:`repro.rtl.backends.cc`, the first time a pipeline runs.
Where no kernel loads, the same loop runs in Python over small tables
built once per :class:`Pipeline`: each cycle fills one ``array("Q")``
row, a unit's activity is marked in its ``*/clk_en`` column, and after
the loop one NumPy pass turns those marks into clock enables (``cycle -
last_active <= gate_hysteresis``).  Both paths produce one (channels x
cycles) matrix whose rows are the trace's channels, with the same bits.

The kernel
----------
It repeats the Python loop statement for statement: the same ``ArchState``
semantics over a flat memory of ``_ADDR_MASK + 1`` words (an untouched word
reads :func:`~repro.isa.semantics.default_memory_value`), the same LRU
caches, predictor, issue scan and drive order, and it takes the clock
enables at the end of each cycle.  It names no opcode: Python passes
each static instruction as one int64 row (:data:`_INST_FIELDS`), and the
arithmetic of each opcode is the ``expr`` of its
:data:`~repro.isa.instructions.OPCODE_TABLE` row, pasted in as one case
of the kernel's value function.  Dynamic instructions live in a ring
indexed by fetch sequence number: everything fetched and not yet retired
is in the ROB (at most ``rob_size``) or the fetch queue (at most
``fetch_buffer``), so a ring of ``rob_size + fetch_buffer`` records never
overwrites one in flight.  Python allocates the (cycles x channels)
uint64 output; the kernel allocates its own state and frees it before
it returns.
"""

from __future__ import annotations

import ctypes
import math
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
    WORD_MASK,
    IClass,
    Instruction,
)
from repro.isa.program import Program
from repro.isa.semantics import _ADDR_MASK, ArchState, ExecResult
from repro.rtl.backends import cc
from repro.uarch.caches import Cache, CacheStats
from repro.uarch.events import ActivityTrace, stimulus_schema
from repro.uarch.params import CoreParams

__all__ = ["Pipeline", "PipelineStats", "load_pipeline_kernel"]

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

#: Operand formats of the ISA, in the order of their codes in the kernel.
_FORMATS = (
    "nop", "movi", "rrr", "mac", "vvv", "load", "store", "vload", "vstore",
    "branch",
)

#: Each opcode's format code.
_FORMAT_CODE = {
    code: _FORMATS.index(row.fmt) for code, row in OPCODE_TABLE.items()
}

#: Columns of the kernel's int64 row per static instruction.  ``srcs``
#: are the (at most three) readiness slots read, of which ``n_srcs``
#: count.
_INST_FIELDS = (
    "fmt", "opcode", "dst", "src1", "src2", "imm",
    "pool", "latency", "vector", "n_srcs", "src_a", "src_b", "src_c",
    "dst_slot", "word", "branch", "vmem", "store", "op",
)

#: The kernel's int64 scalars: the run, the core, the throttle and the
#: column of each channel no unit table holds (named by the channel).
_PAR_FIELDS = (
    "cycles", "n_prog", "n_channels", "n_units", "vec_lanes",
    "fetch_width", "issue_width", "retire_width", "fetch_buffer",
    "iq_size", "rob_size", "n_alu", "n_mul", "n_vec", "lsu_ports",
    "l1_hit_latency", "l2_hit_latency", "mem_latency",
    "mispredict_penalty", "max_outstanding_misses", "bp_entries",
    "gate_hysteresis",
    "l1i_sets", "l1i_assoc", "l1i_line", "l1d_sets", "l1d_assoc",
    "l1d_line", "l2_sets", "l2_assoc", "l2_line",
    "throttled", "max_issue", "period", "active_below", "block_vector",
    "decode/clk_en", "decode/valid", "rename/clk_en", "rename/count",
    "issue/clk_en", "issue/occ", "rob/clk_en", "rob/occ", "rob/retire",
    "fetch/clk_en", "fetch/valid", "fetch/pc",
    "l2ctl/clk_en", "l2ctl/req", "l2ctl/addr", "l2ctl/hit",
)

#: The kernel's int64 counters, in :class:`PipelineStats` order.
_STAT_FIELDS = (
    "fetched", "retired", "mispredicts", "l1i_accesses", "l1i_misses",
    "l1d_accesses", "l1d_misses", "l2_accesses", "l2_misses",
)

_PIPE_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t u64;
typedef int64_t i64;

@DEFINES@

/* ArchState: the PC, the registers and a flat memory in which an
   untouched word reads default_memory_value. */
struct arch {
    i64 pc, lanes;
    u64 x[N_XREGS];
    u64 *v;              /* N_VREGS x lanes */
    u64 *mem;            /* ADDR_MASK + 1 words, read once written */
    u64 *written;        /* ADDR_MASK + 1 flag bits */
};

/* One fetched instruction: its static row, the cycle its result is
   ready (-1 until it issues) and what its ExecResult carries. */
struct dyn {
    const i64 *si;
    i64 done, taken;
    i64 n_ops, n_res, n_addr, n_vops, n_vres;
    u64 ops[3], res, addr;
    u64 *lanes;          /* 3 x lanes: vector operands 0, 1, results */
};

/* A set-associative LRU cache: per set, its tags, most recent last. */
struct cache {
    i64 sets, assoc, line, accesses, misses;
    i64 *n, *tags;
};

/* The arithmetic of every opcode that has any, from OPCODE_TABLE. */
static u64 value(i64 opcode, u64 a, u64 b, u64 acc) {
    (void)a; (void)b; (void)acc;
    switch (opcode) {
@CASES@
    }
    return 0;
}

/* default_memory_value */
static u64 default_value(u64 addr) {
    u64 x = (addr * 2654435761ULL) & 0xFFFFFFFFULL;
    x ^= x >> 13;
    return ((x * 0x9E3779B1ULL) >> 16) & WORD_MASK;
}

static u64 read_x(const struct arch *s, i64 r) { return r ? s->x[r] : 0; }

static void write_x(struct arch *s, i64 r, u64 v) {
    if (r) s->x[r] = v & WORD_MASK;
}

static u64 read_mem(const struct arch *s, u64 a) {
    a &= ADDR_MASK;
    return (s->written[a >> 6] >> (a & 63)) & 1 ? s->mem[a]
                                                 : default_value(a);
}

static void write_mem(struct arch *s, u64 a, u64 v) {
    a &= ADDR_MASK;
    s->mem[a] = v & WORD_MASK;
    s->written[a >> 6] |= (u64)1 << (a & 63);
}

/* ArchState.execute: run si at the PC into r, advancing the PC. */
static void execute(struct arch *s, const i64 *si, i64 n_prog,
                    struct dyn *r) {
    const i64 lanes = s->lanes, imm = si[I_IMM], op = si[I_OPCODE];
    const i64 dst = si[I_DST], s1 = si[I_SRC1], s2 = si[I_SRC2];
    u64 *va = r->lanes, *vb = va + lanes, *vr = vb + lanes;
    i64 nxt = (s->pc + 1) % n_prog;
    r->si = si;
    r->done = -1;
    r->taken = 0;
    r->n_ops = r->n_res = r->n_addr = r->n_vops = r->n_vres = 0;
    switch (si[I_FMT]) {
    case F_RRR: {
        const u64 a = read_x(s, s1), b = read_x(s, s2);
        const u64 v = value(op, a, b, 0);
        r->ops[0] = a; r->ops[1] = b; r->n_ops = 2;
        r->res = v; r->n_res = 1;
        write_x(s, dst, v);
        break;
    }
    case F_LOAD: {
        const u64 addr = (read_x(s, s1) + (u64)imm) & ADDR_MASK;
        const u64 v = read_mem(s, addr);
        r->ops[0] = addr; r->n_ops = 1;
        r->res = v; r->n_res = 1;
        r->addr = addr; r->n_addr = 1;
        write_x(s, dst, v);
        break;
    }
    case F_STORE: {
        const u64 addr = (read_x(s, s1) + (u64)imm) & ADDR_MASK;
        const u64 v = read_x(s, s2);
        r->ops[0] = addr; r->ops[1] = v; r->n_ops = 2;
        r->addr = addr; r->n_addr = 1;
        write_mem(s, addr, v);
        break;
    }
    case F_MOVI: {
        const u64 v = (u64)imm & WORD_MASK;
        r->ops[0] = (u64)imm; r->n_ops = 1;
        r->res = v; r->n_res = 1;
        write_x(s, dst, v);
        break;
    }
    case F_BRANCH: {
        const u64 a = read_x(s, s1), b = read_x(s, s2);
        r->taken = value(op, a, b, 0) != 0;
        if (r->taken) {
            nxt = (s->pc + imm) % n_prog;
            if (nxt < 0) nxt += n_prog;  /* Python's floor modulo */
        }
        r->ops[0] = a; r->ops[1] = b; r->n_ops = 2;
        break;
    }
    case F_VVV: {
        const u64 *a = s->v + s1 * lanes, *b = s->v + s2 * lanes;
        u64 *d = s->v + dst * lanes;
        for (i64 i = 0; i < lanes; i++) {
            va[i] = a[i];
            vb[i] = b[i];
            vr[i] = value(op, a[i], b[i], d[i]);
        }
        memcpy(d, vr, (size_t)lanes * sizeof(u64));
        r->n_vops = 2; r->n_vres = lanes;
        break;
    }
    case F_MAC: {
        const u64 a = read_x(s, s1), b = read_x(s, s2);
        const u64 acc = read_x(s, dst), v = value(op, a, b, acc);
        r->ops[0] = a; r->ops[1] = b; r->ops[2] = acc; r->n_ops = 3;
        r->res = v; r->n_res = 1;
        write_x(s, dst, v);
        break;
    }
    case F_VLOAD: {
        const u64 base = (read_x(s, s1) + (u64)imm) & ADDR_MASK;
        for (i64 i = 0; i < lanes; i++) vr[i] = read_mem(s, base + i);
        memcpy(s->v + dst * lanes, vr, (size_t)lanes * sizeof(u64));
        r->ops[0] = base; r->n_ops = 1;
        r->addr = base; r->n_addr = lanes;
        r->n_vres = lanes;
        break;
    }
    case F_VSTORE: {
        const u64 base = (read_x(s, s1) + (u64)imm) & ADDR_MASK;
        const u64 *vals = s->v + s2 * lanes;
        for (i64 i = 0; i < lanes; i++) {
            va[i] = vals[i];
            write_mem(s, base + i, vals[i]);
        }
        r->ops[0] = base; r->n_ops = 1;
        r->addr = base; r->n_addr = lanes;
        r->n_vops = 1;
        break;
    }
    default: /* F_NOP */
        break;
    }
    s->pc = nxt;
}

/* Cache.access: true on a hit; a miss allocates, evicting the LRU way. */
static int cache_access(struct cache *c, u64 addr) {
    const u64 line = addr / (u64)c->line;
    const i64 set = (i64)(line % (u64)c->sets);
    const i64 tag = (i64)(line / (u64)c->sets);
    i64 *ways = c->tags + set * c->assoc;
    const i64 n = c->n[set];
    c->accesses++;
    for (i64 k = 0; k < n; k++)
        if (ways[k] == tag) {
            memmove(ways + k, ways + k + 1, (size_t)(n - 1 - k) * sizeof(i64));
            ways[n - 1] = tag;
            return 1;
        }
    c->misses++;
    if (n < c->assoc) {
        ways[n] = tag;
        c->n[set] = n + 1;
    } else {
        memmove(ways, ways + 1, (size_t)(n - 1) * sizeof(i64));
        ways[n - 1] = tag;
    }
    return 0;
}

/* _l2_access */
static int l2_access(struct cache *l2, u64 addr, u64 *row, const i64 *par) {
    const int hit = cache_access(l2, addr);
    row[par[P_L2CTL_CLK_EN]] = 1;
    row[par[P_L2CTL_REQ]] = 1;
    row[par[P_L2CTL_ADDR]] = addr & 0xFFFF;
    row[par[P_L2CTL_HIT]] = (u64)hit;
    return hit;
}

/* _drive_vec: vc is (valid, op, clk_en, a lanes, b lanes); lanes past
   na / nb read 0. */
static void drive_vec(u64 *row, const i64 *vc, i64 lanes, u64 op,
                      const u64 *a, i64 na, const u64 *b, i64 nb) {
    row[vc[0]] = 1;
    row[vc[1]] = op;
    row[vc[2]] = 1;
    for (i64 l = 0; l < lanes; l++)
        row[vc[3 + l]] = l < na ? a[l] & 0xFFFF : 0;
    for (i64 l = 0; l < lanes; l++)
        row[vc[3 + lanes + l]] = l < nb ? b[l] & 0xFFFF : 0;
}

static int cache_init(struct cache *c, i64 sets, i64 assoc, i64 line) {
    c->sets = sets; c->assoc = assoc; c->line = line;
    c->accesses = c->misses = 0;
    c->n = calloc((size_t)sets, sizeof(i64));
    c->tags = calloc((size_t)(sets * assoc), sizeof(i64));
    return c->n && c->tags;
}

/* Run the program for par[P_CYCLES] cycles into out, a zeroed
   (cycles x channels) matrix, and the counters into stats.  Returns 0,
   or -1 when the state cannot be allocated. */
i64 repro_pipeline_run(const i64 *par, const i64 *cols, const i64 *prog,
                       const u64 *vregs, u64 *out, i64 *stats) {
    const i64 cycles = par[P_CYCLES], n_prog = par[P_N_PROG];
    const i64 n_ch = par[P_N_CHANNELS], n_units = par[P_N_UNITS];
    const i64 lanes = par[P_VEC_LANES];
    const i64 fetch_width = par[P_FETCH_WIDTH];
    const i64 issue_width = par[P_ISSUE_WIDTH];
    const i64 retire_width = par[P_RETIRE_WIDTH];
    const i64 fetch_buffer = par[P_FETCH_BUFFER];
    const i64 iq_size = par[P_IQ_SIZE], rob_size = par[P_ROB_SIZE];
    const i64 max_misses = par[P_MAX_OUTSTANDING_MISSES];
    const i64 bp_entries = par[P_BP_ENTRIES];
    const i64 hysteresis = par[P_GATE_HYSTERESIS];
    const i64 totals[4] = {
        par[P_N_ALU], par[P_N_MUL], par[P_N_VEC], par[P_LSU_PORTS]
    };
    /* Column tables: alu (valid, op, a, b, clk_en), mul (valid, a, b,
       acc, clk_en), vec (see drive_vec), lsu (valid, is_store, addr,
       wdata, hit, clk_en), fetch/inst{k}, then every unit's clk_en. */
    const i64 vec_w = 3 + 2 * lanes;
    const i64 *alu_c = cols, *mul_c = alu_c + 5 * totals[POOL_ALU];
    const i64 *vec_c = mul_c + 5 * totals[POOL_MUL];
    const i64 *lsu_c = vec_c + vec_w * totals[POOL_VEC];
    const i64 *inst_c = lsu_c + 6 * totals[POOL_LSU];
    const i64 *clk_c = inst_c + fetch_width;
    const i64 cap = rob_size + fetch_buffer;

    struct arch s;
    struct cache l1i, l1d, l2;
    memset(&s, 0, sizeof s);
    s.lanes = lanes;
    s.v = malloc((size_t)(N_VREGS * lanes) * sizeof(u64));
    s.mem = malloc(((size_t)ADDR_MASK + 1) * sizeof(u64));
    s.written = calloc(((size_t)ADDR_MASK >> 6) + 1, sizeof(u64));
    struct dyn *recs = calloc((size_t)cap, sizeof(struct dyn));
    u64 *lanebuf = calloc((size_t)(cap * 3 * lanes), sizeof(u64));
    i64 *iq = calloc((size_t)iq_size, sizeof(i64));
    i64 *misses = calloc((size_t)max_misses, sizeof(i64));
    i64 *last = calloc((size_t)n_units, sizeof(i64));
    i64 *bp = calloc((size_t)bp_entries, sizeof(i64));
    int ok = cache_init(&l1i, par[P_L1I_SETS], par[P_L1I_ASSOC],
                        par[P_L1I_LINE]);
    ok &= cache_init(&l1d, par[P_L1D_SETS], par[P_L1D_ASSOC],
                     par[P_L1D_LINE]);
    ok &= cache_init(&l2, par[P_L2_SETS], par[P_L2_ASSOC], par[P_L2_LINE]);
    ok = ok && s.v && s.mem && s.written && recs && lanebuf && iq
         && misses && last && bp;
    if (ok) {
        memcpy(s.v, vregs, (size_t)(N_VREGS * lanes) * sizeof(u64));
        for (i64 k = 0; k < cap; k++) recs[k].lanes = lanebuf + k * 3 * lanes;
        for (i64 u = 0; u < n_units; u++) last[u] = NEVER;
        for (i64 k = 0; k < bp_entries; k++) bp[k] = 2;  /* weakly taken */
    }

    /* The ROB holds sequence numbers [rob_head, rob_tail), the fetch
       queue [rob_tail, fetch_tail); the IQ lists its own in order. */
    i64 rob_head = 0, rob_tail = 0, fetch_tail = 0, iq_len = 0, n_miss = 0;
    i64 fetch_stall_until = 0, fetched = 0, retired_total = 0;
    i64 mispredicts = 0;
    i64 ready[N_XREGS + N_VREGS] = {0};
#define REC(seq) (recs + (seq) % cap)

    for (i64 cycle = 0; ok && cycle < cycles; cycle++) {
        u64 *row = out + cycle * n_ch;
        /* ---------------- retire (in order) ---------------- */
        i64 retired = 0;
        while (rob_head < rob_tail && retired < retire_width) {
            const i64 done = REC(rob_head)->done;
            if (done < 0 || done > cycle) break;
            rob_head++;
            retired++;
        }
        if (retired) {
            retired_total += retired;
            row[par[P_ROB_CLK_EN]] = 1;
        }
        row[par[P_ROB_RETIRE]] = (u64)retired;

        /* ---------------- miss completion ---------------- */
        i64 kept = 0;
        for (i64 k = 0; k < n_miss; k++)
            if (misses[k] > cycle) misses[kept++] = misses[k];
        n_miss = kept;

        /* ---------------- issue (out of order) ---------------- */
        if (iq_len) {
            i64 issue_cap = issue_width, n_issued = 0, n_wait = 0;
            int block_vector = 0;
            if (par[P_THROTTLED] && (par[P_PERIOD] <= 1
                    || cycle % par[P_PERIOD] < par[P_ACTIVE_BELOW])) {
                if (par[P_MAX_ISSUE] >= 1 && par[P_MAX_ISSUE] < issue_cap)
                    issue_cap = par[P_MAX_ISSUE];
                block_vector = (int)par[P_BLOCK_VECTOR];
            }
            i64 free_units[4];
            memcpy(free_units, totals, sizeof totals);
            for (i64 k = 0; k < iq_len; k++) {
                const i64 seq = iq[k];
                if (n_issued >= issue_cap) {
                    iq[n_wait++] = seq;
                    continue;
                }
                struct dyn *r = REC(seq);
                const i64 *si = r->si;
                const i64 pool = si[I_POOL];
                int waits = (pool != POOL_NONE && free_units[pool] <= 0)
                    || (block_vector && si[I_VECTOR])
                    || (pool == POOL_LSU && n_miss >= max_misses);
                for (i64 j = 0; j < si[I_N_SRCS] && !waits; j++)
                    waits = ready[si[I_SRC_A + j]] > cycle;
                if (waits) {
                    iq[n_wait++] = seq;
                    continue;
                }
                i64 latency = si[I_LATENCY];
                if (pool != POOL_NONE) {
                    const i64 idx = totals[pool] - free_units[pool];
                    const u64 *va = r->lanes, *vr = va + 2 * lanes;
                    free_units[pool]--;
                    if (pool == POOL_ALU) {
                        const i64 *c = alu_c + 5 * idx;
                        row[c[0]] = 1;
                        row[c[1]] = (u64)si[I_OP];
                        row[c[2]] = r->n_ops ? r->ops[0] & 0xFFFF : 0;
                        row[c[3]] = r->n_ops > 1 ? r->ops[1] & 0xFFFF : 0;
                        row[c[4]] = 1;
                    } else if (pool == POOL_MUL) {
                        const i64 *c = mul_c + 5 * idx;
                        row[c[0]] = 1;
                        row[c[1]] = r->n_ops ? r->ops[0] & 0xFFFF : 0;
                        row[c[2]] = r->n_ops > 1 ? r->ops[1] & 0xFFFF : 0;
                        row[c[3]] = r->n_ops > 2 ? r->ops[2] & 0xFFFF : 0;
                        row[c[4]] = 1;
                    } else if (pool == POOL_VEC) {
                        drive_vec(row, vec_c + vec_w * idx, lanes,
                                  (u64)si[I_OP], va, r->n_vops ? lanes : 0,
                                  va + lanes, r->n_vops > 1 ? lanes : 0);
                    } else {
                        /* _memory_access */
                        const i64 *c = lsu_c + 6 * idx;
                        const u64 addr = r->n_addr ? r->addr : 0;
                        const int hit = cache_access(&l1d, addr);
                        u64 wdata;
                        if (hit) {
                            latency = par[P_L1_HIT_LATENCY];
                        } else {
                            latency = l2_access(&l2, addr, row, par)
                                ? par[P_L2_HIT_LATENCY] : par[P_MEM_LATENCY];
                            misses[n_miss++] = cycle + latency;
                        }
                        if (si[I_STORE])
                            wdata = r->n_ops > 1 ? r->ops[1]
                                : (r->n_vops ? va[0] : 0);
                        else
                            wdata = r->n_res ? r->res
                                : (r->n_vres ? vr[0] : 0);
                        row[c[0]] = 1;
                        row[c[1]] = (u64)si[I_STORE];
                        row[c[2]] = addr & 0xFFFF;
                        row[c[3]] = wdata & 0xFFFF;
                        row[c[4]] = (u64)hit;
                        row[c[5]] = 1;
                        /* Vector memory ops also move data through the
                           vector unit's register-file write path. */
                        if (si[I_VMEM]) {
                            if (r->n_vres)
                                drive_vec(row, vec_c, lanes, (u64)si[I_OP],
                                          vr, lanes, 0, 0);
                            else
                                drive_vec(row, vec_c, lanes, (u64)si[I_OP],
                                          va, r->n_vops ? lanes : 0, 0, 0);
                        }
                    }
                }
                const i64 done = cycle + latency;
                if (si[I_DST_SLOT] >= 0) ready[si[I_DST_SLOT]] = done;
                r->done = done;
                n_issued++;
            }
            iq_len = n_wait;
            if (n_issued) row[par[P_ISSUE_CLK_EN]] = 1;
            row[par[P_ISSUE_OCC]] = (u64)iq_len;
        }

        /* ---------------- dispatch (decode -> IQ/ROB) ---------------- */
        i64 dispatched = fetch_tail - rob_tail;
        if (issue_width < dispatched) dispatched = issue_width;
        if (iq_size - iq_len < dispatched) dispatched = iq_size - iq_len;
        if (rob_size - (rob_tail - rob_head) < dispatched)
            dispatched = rob_size - (rob_tail - rob_head);
        if (dispatched > 0) {
            for (i64 j = 0; j < dispatched; j++) iq[iq_len++] = rob_tail++;
            row[par[P_DECODE_CLK_EN]] = row[par[P_RENAME_CLK_EN]] = 1;
            row[par[P_ISSUE_CLK_EN]] = row[par[P_ROB_CLK_EN]] = 1;
            row[par[P_DECODE_VALID]] = dispatched >= 64
                ? ~(u64)0 : ((u64)1 << dispatched) - 1;
            row[par[P_RENAME_COUNT]] = (u64)dispatched;
        }
        row[par[P_ROB_OCC]] = (u64)(rob_tail - rob_head);

        /* ---------------- fetch ---------------- */
        i64 room = fetch_buffer - (fetch_tail - rob_tail);
        if (fetch_width < room) room = fetch_width;
        if (cycle >= fetch_stall_until && room > 0) {
            const i64 first_pc = s.pc;
            i64 n_fetched = 0;
            for (i64 slot = 0; slot < room; slot++) {
                const i64 pc = s.pc;
                if (!cache_access(&l1i, (u64)pc)) {
                    fetch_stall_until = cycle + (
                        l2_access(&l2, (u64)pc + 0x8000, row, par)
                        ? par[P_L2_HIT_LATENCY] : par[P_MEM_LATENCY]);
                    break;
                }
                const i64 *si = prog + pc * N_INST_FIELDS;
                struct dyn *r = REC(fetch_tail);
                fetch_tail++;
                execute(&s, si, n_prog, r);
                row[inst_c[n_fetched]] = (u64)si[I_WORD];
                n_fetched++;
                if (si[I_BRANCH]) {
                    /* _BranchPredictor.predict_update */
                    i64 *ctr = bp + pc % bp_entries;
                    const int predicted = *ctr >= 2;
                    if (r->taken) { if (*ctr < 3) (*ctr)++; }
                    else if (*ctr > 0) (*ctr)--;
                    if (predicted != (int)r->taken) {
                        mispredicts++;
                        fetch_stall_until =
                            cycle + par[P_MISPREDICT_PENALTY];
                    }
                    break;  /* redirect: stop fetching this cycle */
                }
            }
            if (n_fetched) {
                fetched += n_fetched;
                row[par[P_FETCH_CLK_EN]] = row[par[P_FETCH_VALID]] = 1;
                row[par[P_FETCH_PC]] = (u64)first_pc & 0xFFF;
            }
        }

        /* ---------------- clock enables ---------------- */
        /* A clock stays enabled while cycle - last_active <= hysteresis. */
        for (i64 u = 0; u < n_units; u++) {
            u64 *en = row + clk_c[u];
            if (*en) last[u] = cycle;
            *en = cycle - last[u] <= hysteresis;
        }
    }
#undef REC

    stats[S_FETCHED] = fetched;
    stats[S_RETIRED] = retired_total;
    stats[S_MISPREDICTS] = mispredicts;
    stats[S_L1I_ACCESSES] = l1i.accesses;
    stats[S_L1I_MISSES] = l1i.misses;
    stats[S_L1D_ACCESSES] = l1d.accesses;
    stats[S_L1D_MISSES] = l1d.misses;
    stats[S_L2_ACCESSES] = l2.accesses;
    stats[S_L2_MISSES] = l2.misses;
    free(s.v); free(s.mem); free(s.written); free(recs); free(lanebuf);
    free(iq); free(misses); free(last); free(bp);
    free(l1i.n); free(l1i.tags); free(l1d.n); free(l1d.tags);
    free(l2.n); free(l2.tags);
    return ok ? 0 : -1;
}
"""


def _pipe_source() -> str:
    """:data:`_PIPE_SOURCE` with its constants and value cases filled in
    from the Python names they mirror."""
    defines = [
        f"#define WORD_MASK ((u64){WORD_MASK:#x})",
        f"#define ADDR_MASK ((u64){_ADDR_MASK:#x})",
        f"#define N_XREGS {N_XREGS}",
        f"#define N_VREGS {N_VREGS}",
        f"#define NEVER ({_NEVER}LL)",
        f"#define POOL_NONE ({_NO_POOL})",
        f"#define N_INST_FIELDS {len(_INST_FIELDS)}",
    ]
    defines += [
        f"#define POOL_{name} {code}"
        for name, code in (("ALU", _ALU), ("MUL", _MUL), ("VEC", _VEC),
                           ("LSU", _LSU))
    ]
    for prefix, names in (("F", _FORMATS), ("I", _INST_FIELDS),
                          ("P", _PAR_FIELDS), ("S", _STAT_FIELDS)):
        defines += [
            f"#define {prefix}_{name.upper().replace('/', '_')} {i}"
            for i, name in enumerate(names)
        ]
    cases = [
        f"    case {int(row.opcode)}: return {row.expr};"
        for row in OPCODE_TABLE.values()
        if row.expr is not None
    ]
    return (_PIPE_SOURCE.replace("@DEFINES@", "\n".join(defines))
            .replace("@CASES@", "\n".join(cases)))


_PIPE_SOURCE = _pipe_source()


def load_pipeline_kernel():
    """The compiled ``repro_pipeline_run`` entry point, or ``None``."""
    return cc.load(
        _PIPE_SOURCE, "repro_pipeline_run", [ctypes.c_void_p] * 6,
        ctypes.c_int64,
    )


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

        # The kernel's inputs that depend on the core alone (nothing is
        # compiled or loaded here).
        t = p.throttle
        fixed = {
            "n_channels": len(self._names),
            "n_units": len(self._clk_cols),
            "throttled": t is not None,
            "max_issue": -1 if t is None or t.max_issue is None
            else t.max_issue,
            "period": 1 if t is None else t.period,
            # An integer k is below duty * period iff it is below the
            # ceiling: ThrottleScheme.active without a float per cycle.
            "active_below": 0 if t is None else math.ceil(t.duty * t.period),
            "block_vector": t is not None and t.block_vector,
            "cycles": 0,
            "n_prog": 0,
        }
        self._par = np.array(
            [col[n] if n in col else fixed[n] if n in fixed
             else getattr(p, n) for n in _PAR_FIELDS],
            dtype=np.int64,
        )
        self._kernel_cols = np.array(
            [c for t_ in self._alu_cols + self._mul_cols for c in t_]
            + [c for v in self._vec_cols for c in v[:3] + v[3] + v[4]]
            + [c for t_ in self._lsu_cols for c in t_]
            + list(self._fetch_cols[3]) + self._clk_cols,
            dtype=np.int64,
        )
        self._vregs0 = np.array(
            ArchState(lanes=p.vec_lanes).vregs, dtype=np.uint64
        )

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
        """Run ``program`` (looping) for exactly ``n_cycles`` cycles.

        The cycle loop runs in the C kernel where one loads and in Python
        otherwise; the trace and stats are the same either way.
        """
        if n_cycles <= 0:
            raise ReproError("n_cycles must be positive")
        decoded = [self._decode(inst) for inst in program.instructions]
        kernel = load_pipeline_kernel()
        if kernel is None:
            mat, stats = self._run_loop(decoded, n_cycles)
        else:
            mat, stats = self._run_kernel(kernel, decoded, n_cycles)
        trace = ActivityTrace(
            self.schema, n_cycles, dict(zip(self._names, mat))
        )
        return trace, stats

    def _run_kernel(self, kernel, decoded: list[_Decoded], n_cycles: int):
        """The cycle loop in C: the channel matrix and the stats."""
        prog = np.array(
            [
                (_FORMAT_CODE[d.inst.opcode], d.inst.opcode, d.inst.dst,
                 d.inst.src1, d.inst.src2, d.inst.imm,
                 d.pool, d.latency, d.vector, len(d.srcs),
                 *d.srcs, *(0,) * (3 - len(d.srcs)), d.dst, d.word,
                 d.branch, d.vmem, d.store, d.op)
                for d in decoded
            ],
            dtype=np.int64,
        )
        par = self._par.copy()
        par[_PAR_FIELDS.index("cycles")] = n_cycles
        par[_PAR_FIELDS.index("n_prog")] = len(decoded)
        out = np.zeros((n_cycles, len(self._names)), dtype=np.uint64)
        counts = np.zeros(len(_STAT_FIELDS), dtype=np.int64)
        if kernel(*[
            a.ctypes.data
            for a in (par, self._kernel_cols, prog, self._vregs0, out, counts)
        ]):
            raise MemoryError("the pipeline kernel could not allocate")
        (fetched, retired, mispredicts, l1i_acc, l1i_miss, l1d_acc,
         l1d_miss, l2_acc, l2_miss) = counts.tolist()
        stats = PipelineStats(
            cycles=n_cycles,
            fetched=fetched,
            retired=retired,
            mispredicts=mispredicts,
            l1i=CacheStats(l1i_acc, l1i_miss),
            l1d=CacheStats(l1d_acc, l1d_miss),
            l2=CacheStats(l2_acc, l2_miss),
        )
        return out.T.copy(), stats

    def _run_loop(self, decoded: list[_Decoded], n_cycles: int):
        """The cycle loop in Python: the channel matrix and the stats."""
        p = self.params
        col = self._col
        arch = ArchState(lanes=p.vec_lanes)
        predictor = _BranchPredictor(p.bp_entries)
        l1i = Cache(p.l1i_sets, p.l1i_assoc, p.l1i_line)
        l1d = Cache(p.l1d_sets, p.l1d_assoc, p.l1d_line)
        l2 = Cache(p.l2_sets, p.l2_assoc, p.l2_line)
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
        return mat, stats

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
