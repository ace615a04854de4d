"""Experiment registry and result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments.context import ExperimentContext

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
]


@dataclass
class ExperimentResult:
    """One regenerated table/figure: data + rendering + paper reference."""

    id: str
    title: str
    paper_claim: str
    text: str
    summary: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"== {self.id}: {self.title} ==",
            f"paper: {self.paper_claim}",
            "",
            self.text,
        ]
        if self.summary:
            lines.append("")
            lines.append(
                "summary: "
                + ", ".join(f"{k}={v}" for k, v in self.summary.items())
            )
        return "\n".join(lines)


def _lazy(module: str, func: str = "run") -> Callable:
    def call(ctx: ExperimentContext | None = None, **kw):
        import importlib

        mod = importlib.import_module(f"repro.experiments.{module}")
        return getattr(mod, func)(ctx, **kw)

    return call


#: id -> (callable(ctx, **kw) -> ExperimentResult, default design)
EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "table1": (_lazy("exp_tables", "run_table1"), "n1"),
    "table3": (_lazy("exp_tables", "run_table3"), "n1"),
    "table4": (_lazy("exp_tables", "run_table4"), "n1"),
    "table5": (_lazy("exp_tables", "run_table5"), "n1"),
    "fig03": (_lazy("exp_fig03"), "n1"),
    "fig09": (_lazy("exp_fig09"), "n1"),
    "fig10": (_lazy("exp_fig10"), "n1"),
    "fig11": (_lazy("exp_fig11"), "n1"),
    "fig12": (_lazy("exp_fig10"), "a77"),
    "fig13": (_lazy("exp_fig13", "run_fig13"), "n1"),
    "fig14": (_lazy("exp_fig13", "run_fig14"), "n1"),
    "fig15a": (_lazy("exp_fig15", "run_fig15a"), "n1"),
    "fig15b": (_lazy("exp_fig15", "run_fig15b"), "n1"),
    "fig16": (_lazy("exp_fig16"), "n1"),
    "fig17": (_lazy("exp_fig17"), "n1"),
    "sec7_5": (_lazy("exp_sections", "run_sec75"), "n1"),
    "sec8_1": (_lazy("exp_sections", "run_sec81"), "n1"),
    "ablations": (_lazy("ablations"), "n1"),
    # Extensions beyond the paper's evaluation (its §9 future work and
    # the §1 DVFS use case).
    "ext_highlevel": (_lazy("exp_extensions", "run_highlevel"), "n1"),
    "ext_dvfs": (_lazy("exp_extensions", "run_dvfs"), "n1"),
    "ext_counters": (_lazy("exp_extensions", "run_counters"), "n1"),
    "ext_didt": (_lazy("exp_extensions", "run_didt"), "n1"),
    "ext_multicore": (_lazy("exp_extensions", "run_multicore"), "n1"),
    "ext_workloads": (_lazy("exp_workloads"), "n1"),
    "ext_littlecore": (_lazy("exp_littlecore"), "m0"),
}


def run_experiment(
    exp_id: str,
    ctx: ExperimentContext | None = None,
    scale: str | None = None,
    **kw,
) -> ExperimentResult:
    """Run one experiment by id, building a default context if needed."""
    if exp_id not in EXPERIMENTS:
        raise ExperimentError(
            f"unknown experiment {exp_id!r}; choose from "
            f"{sorted(EXPERIMENTS)}"
        )
    fn, design = EXPERIMENTS[exp_id]
    if ctx is None:
        ctx = ExperimentContext(design=design, scale=scale)
    result = fn(ctx, **kw)
    if exp_id == "fig12" and result.id == "fig10":
        result.id = "fig12"
        result.title = result.title.replace("(n1", "(a77")
    return result
