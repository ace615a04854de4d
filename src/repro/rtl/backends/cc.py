"""The gate-simulation kernel: the packed engine's cycle loop in C.

The packed engine (:mod:`repro.rtl.backends.packed`) lowers its
micro-program once per netlist to flat op tables
(:mod:`repro.rtl.backends.tables`); this kernel runs the whole cycle
loop over them natively — program execution, toggle recording, trace
packing, column capture and the accumulator reduction.  The source is
compiled once per host with the system C compiler and loaded via
:mod:`ctypes`.  The shared object is cached under
``~/.cache/repro-apollo`` keyed by a hash of the source, so the compile
cost (a fraction of a second) is paid once per machine, not per
process.  Every failure mode — no compiler, compile error, unwritable
cache — makes :func:`load_kernel` return ``None``, and the packed engine
runs its NumPy loop instead; nothing here may raise at import time.

The loader itself, :func:`load`, takes any source and symbol: the
coordinate-descent kernel of :mod:`repro.core.solvers` is built by the
same code, with the same flags, into the same cache directory.

Float exactness
---------------
The accumulator loop must reproduce ``acc_reduce`` (NumPy's strided
``sum(axis=0)``) bit for bit.  That reduction is plain sequential
accumulation in net-id order starting from ``0.0``, so the kernel adds
``w[t]`` for each set toggle bit in the same order.  Skipping all-zero
words and adding ``w*0`` for clear bits is exact: the running sum
starts at ``+0.0`` and can never become ``-0.0`` under
round-to-nearest, so adding ``±0.0`` is always the identity.  The
compile disables FMA contraction for the same reason.

Layouts (all arrays flat, C-order)
----------------------------------
* ``par``: int64 scalars, in the order unpacked at the top of
  ``repro_run_cycles``.
* ``arena``: ``(arena_rows, W)`` uint64 — see
  :mod:`repro.rtl.backends.tables` for the row map.
* ``stim``: ``(cycles, n_in, W)`` uint64 lane words.
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

static void exec_prog(const int64_t *prog, int64_t n_ops, u64 *arena,
                      const int64_t *idx_pool, const u64 *mask_pool,
                      int64_t W) {
    for (int64_t k = 0; k < n_ops; k++) {
        const int64_t *op = prog + 5 * k;
        const int64_t code = op[0], n = op[4];
        u64 *out = arena + op[1] * W;
        const u64 *pa = arena + op[2] * W;
        const int64_t b = op[3];
        switch (code) {
        case 0: { /* XOR */
            const u64 *pb = arena + b * W;
            for (int64_t t = 0; t < n * W; t++) out[t] = pa[t] ^ pb[t];
            break;
        }
        case 1: { /* AND */
            const u64 *pb = arena + b * W;
            for (int64_t t = 0; t < n * W; t++) out[t] = pa[t] & pb[t];
            break;
        }
        case 2: { /* TAKE */
            const int64_t *idx = idx_pool + b;
            for (int64_t j = 0; j < n; j++)
                memcpy(out + j * W, arena + idx[j] * W, (size_t)W * 8);
            break;
        }
        case 3: /* COPY */
            memcpy(out, pa, (size_t)(n * W) * 8);
            break;
        case 4: { /* XORMASK (in place: out == a) */
            const u64 *m = mask_pool + b;
            for (int64_t j = 0; j < n; j++) {
                const u64 mm = m[j];
                for (int64_t w = 0; w < W; w++)
                    out[j * W + w] = pa[j * W + w] ^ mm;
            }
            break;
        }
        default: /* FILL1 */
            for (int64_t t = 0; t < n * W; t++) out[t] = ~(u64)0;
        }
    }
}

void repro_run_cycles(
    const int64_t *par, u64 *arena, u64 *tog,
    const int64_t *prog0, int64_t n0,
    const int64_t *prog1, int64_t n1,
    const int64_t *idx_pool, const u64 *mask_pool,
    const u64 *stim, const int64_t *net_rows, const int64_t *alias_src,
    const double *acc_w, double *acc_out, double *lane_sum,
    const int64_t *col_rows, uint8_t *cols_out, uint8_t *trace_out) {
    const int64_t nr = par[0], W = par[1], cycles = par[2];
    const int64_t batch = par[3], n_in = par[4], in_row = par[5];
    const int64_t n_nets = par[6], n_acc = par[7], has_trace = par[8];
    const int64_t nbytes = par[9], n_cols = par[10], n_alias = par[11];
    const int64_t alias_start = par[12];
    const int64_t clk_free_start = par[13], n_clk_free = par[14];
    const int64_t clk_g_start = par[15], n_clk_g = par[16];
    const int64_t need_tog = par[17];

    for (int64_t i = 0; i < cycles; i++) {
        const int64_t p = i & 1;
        u64 *vals = arena + p * nr * W;
        const u64 *prev = arena + (1 - p) * nr * W;
        if (n_in)
            memcpy(vals + in_row * W, stim + i * n_in * W,
                   (size_t)(n_in * W) * 8);
        if (p)
            exec_prog(prog1, n1, arena, idx_pool, mask_pool, W);
        else
            exec_prog(prog0, n0, arena, idx_pool, mask_pool, W);
        if (!need_tog)
            continue;
        for (int64_t t = 0; t < nr * W; t++) tog[t] = vals[t] ^ prev[t];
        for (int64_t j = 0; j < n_alias; j++)
            memcpy(tog + (alias_start + j) * W, tog + alias_src[j] * W,
                   (size_t)W * 8);
        for (int64_t t = 0; t < n_clk_free * W; t++)
            tog[clk_free_start * W + t] = ~(u64)0;
        if (n_clk_g)
            memcpy(tog + clk_g_start * W, vals + clk_g_start * W,
                   (size_t)(n_clk_g * W) * 8);
        for (int64_t a_i = 0; a_i < n_acc; a_i++) {
            for (int64_t t = 0; t < W * 64; t++) lane_sum[t] = 0.0;
            const double *w = acc_w + a_i * n_nets;
            for (int64_t t = 0; t < n_nets; t++) {
                const double wt = w[t];
                const u64 *tr = tog + net_rows[t] * W;
                for (int64_t wi = 0; wi < W; wi++) {
                    const u64 word = tr[wi];
                    if (!word) continue;
                    double *ls = lane_sum + wi * 64;
                    /* Branchless over the active lanes: wt * 0 adds
                       +-0.0, which is the identity (the running sum is
                       never -0.0), so this is the exact reference
                       accumulation order. */
                    const int64_t nb =
                        (batch - wi * 64 < 64) ? batch - wi * 64 : 64;
                    for (int64_t b = 0; b < nb; b++)
                        ls[b] += wt * (double)((word >> b) & 1);
                }
            }
            double *ao = acc_out + a_i * batch * cycles;
            for (int64_t b = 0; b < batch; b++)
                ao[b * cycles + i] = lane_sum[b];
        }
        if (has_trace) {
            /* Eight nets x eight lanes at a time via a 64-bit 8x8 bit
               transpose: input byte 7-k holds net 8j+k's lane octet,
               so output byte b is lane b's MSB-first packbits byte. */
            uint8_t *tb = trace_out + i * nbytes * batch;
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
            const u64 *tr = tog + col_rows[j] * W;
            for (int64_t b = 0; b < batch; b++)
                cols_out[(b * cycles + i) * n_cols + j] =
                    (uint8_t)((tr[b >> 6] >> (b & 63)) & 1);
        }
    }
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
        [ptr] * 4 + [i64, ptr, i64] + [ptr] * 11,
    )


def _ptr(arr: np.ndarray):
    if arr.size == 0:
        return None  # ctypes NULL; the kernel never dereferences it
    return arr.ctypes.data_as(ctypes.c_void_p)


def run_cycles(fn, par, arena, tog, prog0, prog1, idx_pool, mask_pool,
               stim, net_rows, alias_src, acc_w, acc_out, lane_sum,
               col_rows, cols_out, trace_out) -> None:
    """Call the loaded kernel ``fn`` on NumPy arrays."""
    fn(
        _ptr(par), _ptr(arena), _ptr(tog),
        _ptr(prog0), ctypes.c_int64(prog0.shape[0]),
        _ptr(prog1), ctypes.c_int64(prog1.shape[0]),
        _ptr(idx_pool), _ptr(mask_pool),
        _ptr(stim), _ptr(net_rows), _ptr(alias_src),
        _ptr(acc_w), _ptr(acc_out), _ptr(lane_sum),
        _ptr(col_rows), _ptr(cols_out), _ptr(trace_out),
    )
