"""The gate-simulation kernel: the packed engine's cycle loop in C.

The packed engine (:mod:`repro.rtl.backends.packed`) lowers its
micro-program once per netlist to fused op tables
(:mod:`repro.rtl.backends.tables`); this kernel runs the whole cycle
loop over them natively — stimulus lane packing, program execution,
toggle recording, trace packing, column capture and the accumulator
reduction.  The source is compiled once per host with the system C
compiler and loaded via :mod:`ctypes`.  The shared object is cached
under ``~/.cache/repro-apollo`` keyed by a hash of the source, so the
compile cost (a fraction of a second) is paid once per machine, not per
process.  Every failure mode — no compiler, compile error, unwritable
cache — makes :func:`load_kernel` return ``None``, and the packed engine
runs its NumPy loop instead; nothing here may raise at import time.

The loader itself, :func:`load`, takes any source and symbol: the
coordinate-descent kernel of :mod:`repro.core.solvers` is built by the
same code, with the same flags, into the same cache directory.

Per cycle
---------
1. The cycle's input words are packed from the uint8 stimulus, eight
   lanes by eight inputs at a time: the values are 0 or 1
   (:meth:`~repro.rtl.simulator.Simulator.run` rejects anything else),
   so shifting lane ``b``'s eight input bytes left by ``b`` and OR-ing
   eight lanes leaves input ``k``'s lane octet in byte ``k``.
2. The parity's runs execute (see :mod:`repro.rtl.backends.tables`).
3. Toggle words are ``vals ^ prev`` in storage-row order; alias rows
   copy their source, CLK rows report the enable.
4. The nets whose toggle word is non-zero in any live lane are
   compacted, in net-id order and without a branch, into a *hot* list;
   the accumulators add only those nets.

Float exactness
---------------
The accumulator loop must reproduce ``acc_reduce`` (NumPy's strided
``sum(axis=0)``) bit for bit.  That reduction is plain sequential
accumulation in net-id order starting from ``0.0``, so each lane adds
``w[t] * bit`` for every hot net ``t`` in net-id order.  Every net left
out of the hot list, and every clear bit of a hot net, would add
``w * 0 = ±0.0``, which is the identity: the running sum starts at
``+0.0`` and can never become ``-0.0`` under round-to-nearest.  That
holds only for finite weights (``inf * 0`` is NaN), which is why
:meth:`~repro.rtl.simulator.Simulator.run` rejects non-finite ones.  The
compile disables FMA contraction, which would round ``w * bit + sum``
once instead of twice.

Layouts (all arrays flat, C-order)
----------------------------------
* ``par``: int64 scalars, in the order unpacked at the top of the C
  ``run_cycles``.
* ``arena``: ``(2 * n_rows, W)`` uint64, the two value buffers.
* ``tog`` (``(n_rows, W)`` uint64 toggle words), ``hot`` (``(n_nets,)``
  int64) and ``lane_sum`` (``W * 64`` float64) are scratch the caller
  allocates.
* ``stim``: ``(batch, cycles, n_in)`` uint8 of 0/1 values.
* ``lane_mask``: ``(W,)`` uint64, the live lanes of each word.
* ``acc_w``: ``(n_acc, n_nets)`` float64; ``acc_out``:
  ``(n_acc, batch, cycles)`` float64.
* ``trace_out``: ``(cycles, nbytes, batch)`` uint8, bits MSB-first per
  byte along the net axis (NumPy ``packbits`` convention).
* ``cols_out``: ``(batch, cycles, n_cols)`` uint8.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["compiler", "load", "load_kernel", "run_cycles"]

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef uint32_t u32;

#define INLINE static inline __attribute__((always_inline))

/* Operand o: the words of arena row o >> 1, complemented when o & 1. */
#define ROW(o) (arena + (int64_t)((o) >> 1) * W)
#define INV(o) ((u64)0 - (u64)((o) & 1))

INLINE void exec_runs(const int64_t *prog, int64_t n_runs,
                      const u32 *opnd, u64 *arena, const int64_t W) {
    for (int64_t k = 0; k < n_runs; k++) {
        const int64_t *r = prog + 4 * k;
        const int64_t code = r[0], n = r[2];
        u64 *out = arena + r[1] * W;
        const u32 *oa = opnd + r[3], *ob = oa + n, *oc = ob + n;
        switch (code) {
        case 0: /* COPY */
            for (int64_t j = 0; j < n; j++) {
                const u64 *a = ROW(oa[j]), ma = INV(oa[j]);
                for (int64_t w = 0; w < W; w++)
                    out[j * W + w] = a[w] ^ ma;
            }
            break;
        case 1: /* AND */
            for (int64_t j = 0; j < n; j++) {
                const u64 *a = ROW(oa[j]), ma = INV(oa[j]);
                const u64 *b = ROW(ob[j]), mb = INV(ob[j]);
                for (int64_t w = 0; w < W; w++)
                    out[j * W + w] = (a[w] ^ ma) & (b[w] ^ mb);
            }
            break;
        case 2: /* XOR */
            for (int64_t j = 0; j < n; j++) {
                const u64 *a = ROW(oa[j]), *b = ROW(ob[j]);
                const u64 m = INV(oa[j] ^ ob[j]);
                for (int64_t w = 0; w < W; w++)
                    out[j * W + w] = a[w] ^ b[w] ^ m;
            }
            break;
        case 3: /* HOLD: q ^ (en & (d ^ q)), a select without a branch */
            for (int64_t j = 0; j < n; j++) {
                const u64 *e = ROW(oa[j]), me = INV(oa[j]);
                const u64 *d = ROW(ob[j]), md = INV(ob[j]);
                const u64 *q = ROW(oc[j]);
                for (int64_t w = 0; w < W; w++)
                    out[j * W + w] =
                        q[w] ^ ((e[w] ^ me) & (d[w] ^ md ^ q[w]));
            }
            break;
        default: /* FILL1 */
            for (int64_t t = 0; t < n * W; t++) out[t] = ~(u64)0;
        }
    }
}

/* Cycle i's input words (n_in rows of W words at dst) from the
   (batch, cycles, n_in) 0/1 stimulus.  Bytes of lanes past the batch
   are never written, so they keep the zeros they start with. */
static void pack_inputs(const uint8_t *stim, int64_t i, int64_t cycles,
                        int64_t n_in, int64_t batch, int64_t W, u64 *dst) {
    const int64_t step = cycles * n_in;
    for (int64_t b0 = 0; b0 < batch; b0 += 8) {
        const int64_t nb = (batch - b0 < 8) ? batch - b0 : 8;
        const uint8_t *s = stim + (b0 * cycles + i) * n_in;
        uint8_t *col = (uint8_t *)(dst + (b0 >> 6)) + ((b0 & 63) >> 3);
        for (int64_t k0 = 0; k0 < n_in; k0 += 8) {
            const int64_t nk = (n_in - k0 < 8) ? n_in - k0 : 8;
            u64 y = 0;
            for (int64_t b = 0; b < nb; b++) {
                u64 x = 0;
                memcpy(&x, s + b * step + k0, (size_t)nk);
                y |= x << b;
            }
            for (int64_t k = 0; k < nk; k++)
                col[(k0 + k) * W * 8] = (uint8_t)(y >> (8 * k));
        }
    }
}

struct run {
    const int64_t *par;
    u64 *arena, *tog;
    int64_t *hot;
    const int64_t *prog0, *prog1;
    int64_t n0, n1;
    const u32 *opnd;
    const uint8_t *stim;
    const int64_t *net_rows, *alias_src;
    const u64 *lane_mask;
    const double *acc_w;
    double *acc_out, *lane_sum;
    const int64_t *col_rows;
    uint8_t *cols_out, *trace_out;
};

/* The whole cycle loop, inlined twice: with W a compile-time 1 (up to
   64 lanes) and with W read at run time. */
INLINE void run_cycles(const struct run *c, const int64_t W) {
    const int64_t *par = c->par;
    const int64_t nr = par[0], cycles = par[2];
    const int64_t batch = par[3], n_in = par[4], in_row = par[5];
    const int64_t n_nets = par[6], n_acc = par[7], has_trace = par[8];
    const int64_t nbytes = par[9], n_cols = par[10], n_alias = par[11];
    const int64_t alias_start = par[12];
    const int64_t clk_free_start = par[13], n_clk_free = par[14];
    const int64_t clk_g_start = par[15], n_clk_g = par[16];
    const int64_t need_tog = par[17];
    u64 *arena = c->arena, *tog = c->tog;
    int64_t *hot = c->hot;
    const int64_t *net_rows = c->net_rows, *alias_src = c->alias_src;
    const u64 *lane_mask = c->lane_mask;
    double *lane_sum = c->lane_sum;

    for (int64_t i = 0; i < cycles; i++) {
        const int64_t p = i & 1;
        u64 *vals = arena + p * nr * W;
        const u64 *prev = arena + (1 - p) * nr * W;
        pack_inputs(c->stim, i, cycles, n_in, batch, W, vals + in_row * W);
        if (p)
            exec_runs(c->prog1, c->n1, c->opnd, arena, W);
        else
            exec_runs(c->prog0, c->n0, c->opnd, arena, W);
        if (!need_tog)
            continue;
        for (int64_t t = 0; t < nr * W; t++) tog[t] = vals[t] ^ prev[t];
        for (int64_t j = 0; j < n_alias; j++)
            for (int64_t w = 0; w < W; w++)
                tog[(alias_start + j) * W + w] = tog[alias_src[j] * W + w];
        for (int64_t t = 0; t < n_clk_free * W; t++)
            tog[clk_free_start * W + t] = ~(u64)0;
        for (int64_t t = 0; t < n_clk_g * W; t++)
            tog[clk_g_start * W + t] = vals[clk_g_start * W + t];
        if (n_acc) {
            /* The hot list: ids of the nets whose toggle word is
               non-zero in a live lane, in net-id order. */
            int64_t nh = 0;
            for (int64_t t = 0; t < n_nets; t++) {
                const u64 *tr = tog + net_rows[t] * W;
                u64 any = 0;
                for (int64_t w = 0; w < W; w++) any |= tr[w] & lane_mask[w];
                hot[nh] = t;
                nh += any != 0;
            }
            for (int64_t a_i = 0; a_i < n_acc; a_i++) {
                memset(lane_sum, 0, (size_t)batch * sizeof(double));
                const double *w = c->acc_w + a_i * n_nets;
                for (int64_t h = 0; h < nh; h++) {
                    const int64_t t = hot[h];
                    const double wt = w[t];
                    const u64 *tr = tog + net_rows[t] * W;
                    for (int64_t wi = 0; wi < W; wi++) {
                        const u64 word = tr[wi];
                        if (!word) continue;
                        double *ls = lane_sum + wi * 64;
                        /* Branchless over the live lanes: wt * 0 adds
                           +-0.0, the identity (see the module notes). */
                        const int64_t nb =
                            (batch - wi * 64 < 64) ? batch - wi * 64 : 64;
                        for (int64_t b = 0; b < nb; b++)
                            ls[b] += wt * (double)((word >> b) & 1);
                    }
                }
                double *ao = c->acc_out + a_i * batch * cycles;
                for (int64_t b = 0; b < batch; b++)
                    ao[b * cycles + i] = lane_sum[b];
            }
        }
        if (has_trace) {
            /* Eight nets x eight lanes at a time via a 64-bit 8x8 bit
               transpose: input byte 7-k holds net 8j+k's lane octet,
               so output byte b is lane b's MSB-first packbits byte. */
            uint8_t *tb = c->trace_out + i * nbytes * batch;
            const int64_t n_oct = (batch + 7) >> 3;
            for (int64_t j = 0; j < nbytes; j++) {
                uint8_t *orow = tb + j * batch;
                const int64_t base = 8 * j;
                const int64_t kmax =
                    (n_nets - base < 8) ? n_nets - base : 8;
                for (int64_t lo = 0; lo < n_oct; lo++) {
                    const int64_t wi = lo >> 3;
                    const int sh8 = (int)((lo & 7) * 8);
                    u64 x = 0;
                    for (int64_t k = 0; k < kmax; k++)
                        x |= ((tog[net_rows[base + k] * W + wi] >> sh8)
                              & 0xFF) << (8 * (7 - k));
                    u64 t2;
                    t2 = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
                    x = x ^ t2 ^ (t2 << 7);
                    t2 = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
                    x = x ^ t2 ^ (t2 << 14);
                    t2 = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
                    x = x ^ t2 ^ (t2 << 28);
                    const int64_t bmax =
                        (batch - lo * 8 < 8) ? batch - lo * 8 : 8;
                    for (int64_t b = 0; b < bmax; b++)
                        orow[lo * 8 + b] = (uint8_t)(x >> (8 * b));
                }
            }
        }
        for (int64_t j = 0; j < n_cols; j++) {
            const u64 *tr = tog + c->col_rows[j] * W;
            for (int64_t b = 0; b < batch; b++)
                c->cols_out[(b * cycles + i) * n_cols + j] =
                    (uint8_t)((tr[b >> 6] >> (b & 63)) & 1);
        }
    }
}

void repro_run_cycles(
    const int64_t *par, u64 *arena, u64 *tog, int64_t *hot,
    const int64_t *prog0, int64_t n0,
    const int64_t *prog1, int64_t n1, const u32 *opnd,
    const uint8_t *stim, const int64_t *net_rows,
    const int64_t *alias_src, const u64 *lane_mask,
    const double *acc_w, double *acc_out, double *lane_sum,
    const int64_t *col_rows, uint8_t *cols_out, uint8_t *trace_out) {
    const struct run c = {
        par, arena, tog, hot, prog0, prog1, n0, n1, opnd, stim,
        net_rows, alias_src, lane_mask, acc_w, acc_out, lane_sum,
        col_rows, cols_out, trace_out,
    };
    if (par[1] == 1)
        run_cycles(&c, 1);
    else
        run_cycles(&c, par[1]);
}
"""

#: Loaded entry points by ``(source, symbol)``: a ctypes function, or
#: ``False`` after a failed attempt (so a host without a compiler tries
#: once per process).
_LOADED: dict[tuple[str, str], object] = {}

#: Compile flags, tried in order.  ``-ffp-contract=off`` is in every
#: entry: without it the compiler may fuse a multiply and an add into one
#: FMA (GCC's default on FMA targets such as aarch64), which rounds once
#: instead of twice and breaks bit-identity with NumPy.  A compiler that
#: rejects the flag gets no kernel, and the caller runs its NumPy path.
#: ``-march=native`` lets the lane loops vectorize; the second entry
#: serves compilers and targets that reject it.
_FLAGS = (["-march=native", "-ffp-contract=off"], ["-ffp-contract=off"])


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_CC_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-apollo"


def compiler() -> str | None:
    """Path of the C compiler kernels are built with, or ``None``.

    ``$CC`` when set (a name on ``PATH`` or a path), else the first of
    ``cc``, ``gcc`` and ``clang`` on ``PATH``.  Tests that require a
    loaded kernel skip on exactly this condition.
    """
    env = os.environ.get("CC")
    if env:
        return shutil.which(env)
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _compile(source: str, so_path: Path) -> bool:
    cc = compiler()
    if cc is None:
        return False
    try:
        so_path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=so_path.parent) as td:
            src = Path(td) / "kernel.c"
            src.write_text(source)
            tmp_so = Path(td) / "kernel.so"
            for extra in _FLAGS:
                res = subprocess.run(
                    [cc, "-O3", *extra, "-shared", "-fPIC",
                     "-o", str(tmp_so), str(src)],
                    capture_output=True,
                    timeout=120,
                )
                if res.returncode == 0:
                    os.replace(tmp_so, so_path)
                    return True
            return False
    except (OSError, subprocess.SubprocessError):
        return False


def load(source: str, symbol: str, argtypes: list, restype=None):
    """The compiled entry point ``symbol`` of C ``source``, or ``None``.

    The shared object is built once per host and cached under a hash of
    the source; the entry point is memoized per process.  Every failure
    (no compiler, a compile error, an unwritable cache, a missing
    symbol) returns ``None``; nothing here raises.
    """
    key = (source, symbol)
    fn = _LOADED.get(key)
    if fn is not None:
        return fn or None
    _LOADED[key] = False
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    so_path = _cache_dir() / f"ckernel-{digest}.so"
    if not so_path.exists() and not _compile(source, so_path):
        return None
    try:
        fn = getattr(ctypes.CDLL(str(so_path)), symbol)
    except (OSError, AttributeError):
        return None
    fn.argtypes = argtypes
    fn.restype = restype
    _LOADED[key] = fn
    return fn


def load_kernel():
    """The compiled ``repro_run_cycles`` entry point, or ``None``."""
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    return load(
        _C_SOURCE, "repro_run_cycles",
        [ptr] * 5 + [i64, ptr, i64] + [ptr] * 11,
    )


def _ptr(arr: np.ndarray):
    if arr.size == 0:
        return None  # ctypes NULL; the kernel never dereferences it
    return arr.ctypes.data_as(ctypes.c_void_p)


def run_cycles(fn, par, arena, tog, hot, prog0, prog1, operands, stim,
               net_rows, alias_src, lane_mask, acc_w, acc_out, lane_sum,
               col_rows, cols_out, trace_out) -> None:
    """Call the loaded kernel ``fn`` on NumPy arrays."""
    fn(
        _ptr(par), _ptr(arena), _ptr(tog), _ptr(hot),
        _ptr(prog0), ctypes.c_int64(prog0.shape[0]),
        _ptr(prog1), ctypes.c_int64(prog1.shape[0]),
        _ptr(operands), _ptr(stim), _ptr(net_rows), _ptr(alias_src),
        _ptr(lane_mask), _ptr(acc_w), _ptr(acc_out), _ptr(lane_sum),
        _ptr(col_rows), _ptr(cols_out), _ptr(trace_out),
    )
