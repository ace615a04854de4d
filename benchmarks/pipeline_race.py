"""Race the pipeline model's C kernel against its Python loop.

``Pipeline.run`` runs its cycle loop in a C kernel wherever one compiles
and in Python otherwise; this script checks that the two give the same
bits on long runs and measures what the fallback costs.  For the N1,
A77 and M0 presets and the benchmark's two-wide core, under no throttle
and each throttle scheme of the test suite, it runs one random program
for ``CYCLES`` cycles on each path — best of ``REPEATS`` — and compares
every channel (values and dtype) and every ``PipelineStats`` field.  The
Python loop is forced the way the tests force it: by patching the kernel
loader to ``None``.  ``us/cycle`` is a run's time over its cycles.  The
exit status is 1 on any MISMATCH.

Run::

    PYTHONPATH=src python benchmarks/pipeline_race.py
"""

from __future__ import annotations

import platform
import time
from dataclasses import replace

import numpy as np

from repro.isa import random_program
from repro.uarch import (
    A77_LIKE,
    M0_LIKE,
    N1_LIKE,
    CoreParams,
    Pipeline,
    ThrottleScheme,
    pipeline,
)

BENCH = CoreParams(
    name="bench",
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
CORES = (N1_LIKE, A77_LIKE, M0_LIKE, BENCH)
#: No throttle, then the schemes ``tests/test_uarch_pipeline.py`` uses.
THROTTLES = (
    None,
    ThrottleScheme(max_issue=1),
    ThrottleScheme(max_issue=2, period=8, duty=0.5),
    ThrottleScheme(block_vector=True),
    ThrottleScheme(max_issue=1, period=4, duty=0.25, block_vector=True),
    ThrottleScheme(max_issue=1, period=5, duty=0.3),
)
CYCLES = 50_000
PROGRAM_LENGTH = 64
REPEATS = 3


def _best(pipe, prog) -> tuple[float, tuple]:
    best, res = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        res = pipe.run(prog, CYCLES)
        best = min(best, time.perf_counter() - t0)
    return best, res


def _same(a, b) -> bool:
    (ta, sa), (tb, sb) = a, b
    return sa == sb and list(ta.channels) == list(tb.channels) and all(
        ta.channels[n].dtype == tb.channels[n].dtype
        and np.array_equal(ta.channels[n], tb.channels[n])
        for n in ta.channels
    )


def _throttle_name(t: ThrottleScheme | None) -> str:
    if t is None:
        return "none"
    return (f"max{t.max_issue} {t.duty:g}/{t.period}"
            + (" novec" if t.block_vector else ""))


def main() -> int:
    kernel = pipeline.load_pipeline_kernel()
    if kernel is None:
        print("no pipeline kernel loads on this host: nothing to race")
        return 1
    real_loader = pipeline.load_pipeline_kernel
    prog = random_program(np.random.default_rng(0), PROGRAM_LENGTH)
    print(
        f"{CYCLES} cycles, a {PROGRAM_LENGTH}-instruction random program, "
        f"best of {REPEATS}; python {platform.python_version()}, "
        f"numpy {np.__version__}, {platform.machine()}"
    )
    print(f"{'core':<10}{'throttle':<22}{'kernel us/cyc':>14}"
          f"{'python us/cyc':>15}{'speedup':>9}")
    for core in CORES:
        for throttle in THROTTLES:
            pipe = Pipeline(replace(core, throttle=throttle))
            t_fast, r_fast = _best(pipe, prog)
            pipeline.load_pipeline_kernel = lambda: None
            try:
                t_slow, r_slow = _best(pipe, prog)
            finally:
                pipeline.load_pipeline_kernel = real_loader
            name = _throttle_name(throttle)
            if not _same(r_fast, r_slow):
                print(f"MISMATCH: {core.name} throttle {name}")
                return 1
            print(f"{core.name:<10}{name:<22}"
                  f"{t_fast * 1e6 / CYCLES:>14.3f}"
                  f"{t_slow * 1e6 / CYCLES:>15.3f}"
                  f"{t_slow / t_fast:>8.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
