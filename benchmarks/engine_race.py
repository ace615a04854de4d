"""Race the packed engine's C kernel against its NumPy fallback loop.

The packed engine runs the C kernel wherever one compiles and its NumPy
loop otherwise; this script measures what the fallback costs.  It builds
the small two-wide core (the same ``CoreParams`` as the test suite's
``small_core``) and, for each batch width and recording mode, times one
``Simulator.run`` on each path — best of ``REPEATS`` — checking that
both paths return bit-identical results.  The NumPy loop is forced the
way the tests force it: by patching the kernel loader to ``None``.

The ``nothing`` mode records nothing (``RecordSpec()``), so it times
gate evaluation alone; the other modes' differences from it are the
cost of toggle recording plus the accumulator, the trace or the
columns.  ``ns/net-cyc`` is the kernel's time over nets x cycles, which
compares cores and cycle counts.  The exit status is 1 on any MISMATCH.

Run::

    PYTHONPATH=src python benchmarks/engine_race.py
"""

from __future__ import annotations

import platform
import time

import numpy as np

from repro.design import build_core
from repro.power import PowerAnalyzer
from repro.rtl import RecordSpec, Simulator
from repro.rtl.backends import cc
from repro.uarch import CoreParams

CORE = CoreParams(
    name="race",
    fetch_width=2,
    issue_width=2,
    retire_width=2,
    n_alu=2,
    n_mul=1,
    n_vec=1,
    vec_lanes=2,
    lsu_ports=1,
    iq_size=8,
    rob_size=16,
    bp_entries=16,
)
BATCHES = (1, 16, 64, 256)
CYCLES = 200
REPEATS = 3


def _best(sim, stim, record, init) -> tuple[float, object]:
    best, res = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res = sim.run(stim, record, init_values=init)
        best = min(best, time.perf_counter() - t0)
    return best, res


def _same(a, b) -> bool:
    if (a.trace is None) != (b.trace is None):
        return False
    if a.trace is not None and not np.array_equal(
        a.trace.packed, b.trace.packed
    ):
        return False
    if a.columns is not None and not np.array_equal(a.columns, b.columns):
        return False
    return all(
        np.array_equal(a.accum[k].view(np.uint8), b.accum[k].view(np.uint8))
        for k in a.accum
    ) and np.array_equal(a.final_values, b.final_values)


def main() -> int:
    kernel = cc.load_kernel()
    if kernel is None:
        print("no C kernel loads on this host: nothing to race")
        return 1
    core = build_core(CORE)
    nl = core.netlist
    fast = Simulator(nl)
    real_loader = cc.load_kernel
    cc.load_kernel = lambda: None
    try:
        slow = Simulator(nl)
    finally:
        cc.load_kernel = real_loader
    assert fast.backend.kernel is not None and slow.backend.kernel is None

    weights = PowerAnalyzer(nl).label_weights()
    rng = np.random.default_rng(0)
    cols = np.sort(rng.choice(nl.n_nets, size=64, replace=False))
    modes = {
        "nothing": RecordSpec(),
        "accumulate": RecordSpec(accumulators={"p": weights}),
        "full trace": RecordSpec(full_trace=True),
        "columns+init": RecordSpec(columns=cols),
    }
    print(
        f"{nl.n_nets} nets, {len(nl.input_ids)} inputs, {CYCLES} cycles, "
        f"best of {REPEATS}; python {platform.python_version()}, "
        f"numpy {np.__version__}, {platform.machine()}"
    )
    print(f"{'mode':<14}{'batch':>6}{'kernel ms':>11}{'ns/net-cyc':>12}"
          f"{'numpy ms':>10}{'speedup':>9}")
    for batch in BATCHES:
        stim = rng.integers(
            0, 2, size=(batch, CYCLES, len(nl.input_ids)), dtype=np.uint8
        )
        init = fast.run(stim[:, :8], RecordSpec()).final_values
        for mode, record in modes.items():
            start = init if mode == "columns+init" else None
            t_fast, r_fast = _best(fast, stim, record, start)
            t_slow, r_slow = _best(slow, stim, record, start)
            if not _same(r_fast, r_slow):
                print(f"MISMATCH: {mode} batch {batch}")
                return 1
            ns = t_fast * 1e9 / (nl.n_nets * CYCLES)
            print(f"{mode:<14}{batch:>6}{t_fast * 1e3:>11.1f}{ns:>12.2f}"
                  f"{t_slow * 1e3:>10.1f}{t_slow / t_fast:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
