"""Extension: design-time introspection across a SPEC-like suite.

§8.1 shows one long benchmark (hmmer); adoption means running a *suite*.
Each SPEC-inspired workload goes through the emulator-assisted proxy flow;
reported per workload: mean power, phase dynamic range, pipeline
signature (IPC, miss rate, mispredicts), and APOLLO-vs-signoff accuracy
on a reference slice.
"""

from __future__ import annotations

import numpy as np

from repro.core import nrmse, r2_score
from repro.experiments.context import ExperimentContext
from repro.experiments.report import format_table
from repro.experiments.runner import ExperimentResult
from repro.flow import DesignTimeFlow, EmulatorFlow
from repro.genbench.workloads import workload_suite
from repro.parallel.tasks import pipeline_for

__all__ = ["run"]


def run(
    ctx: ExperimentContext | None = None, cycles: int | None = None
) -> ExperimentResult:
    ctx = ctx or ExperimentContext()
    cycles = cycles or max(4000, ctx.scale.train_cycles // 2)
    model = ctx.apollo(ctx.default_q())
    emu = EmulatorFlow(ctx.core, model)
    dt = DesignTimeFlow(ctx.core, model)
    ref_cycles = min(2000, cycles)

    rows = []
    for name, prog in workload_suite().items():
        _activity, stats = pipeline_for(ctx.params).run(prog, cycles)
        run_ = emu.trace(prog, cycles=cycles)
        win = max(64, cycles // 64)
        n = (run_.power.size // win) * win
        phases = run_.power[:n].reshape(-1, win).mean(axis=1)
        est = dt.estimate(prog, ref_cycles, with_reference=True)
        rows.append(
            {
                "workload": name,
                "mean_power_mw": float(run_.power.mean()),
                "phase_range": float(
                    phases.max() / max(1e-9, phases.min())
                ),
                "ipc": stats.ipc,
                "l1d_miss": stats.l1d.miss_rate,
                "mispredicts": stats.mispredicts,
                "r2_vs_signoff": r2_score(est.label, est.power),
                "nrmse_vs_signoff": nrmse(est.label, est.power),
            }
        )
    text = format_table(
        rows,
        title=f"Extension: SPEC-like suite introspection ({cycles} cycles)",
    )
    powers = [r["mean_power_mw"] for r in rows]
    worst_r2 = min(r["r2_vs_signoff"] for r in rows)
    return ExperimentResult(
        id="ext_workloads",
        title="Long-trace power introspection across a workload suite",
        paper_claim=(
            "§8.1: the emulator-assisted flow makes whole-workload "
            "power introspection routine, not a one-off"
        ),
        text=text,
        rows=rows,
        summary={
            "n_workloads": len(rows),
            "power_span": round(max(powers) / min(powers), 2),
            "worst_r2_vs_signoff": round(worst_r2, 4),
        },
    )
