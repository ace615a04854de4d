"""Design-time APOLLO-assisted power analysis (Fig. 7b).

The conventional flow simulates all signals and runs a slow power
calculation; the APOLLO flow traces only the Q proxies and replaces power
calculation with a Q-term dot product.  ``DesignTimeFlow`` runs both paths
over the same workload so experiments can report accuracy *and* the
measured speed/storage ratios, plus the §8.1 inference-throughput
extrapolations (minutes per billion cycles for APOLLO vs days/months for
the all-signal baselines).

Stage timing goes through :mod:`repro.obs.trace` spans instead of ad-hoc
``perf_counter`` triples: ``estimate`` always runs its stages under a
``flow.estimate`` span tree (an internal tracer if the caller did not
supply one), and :class:`FlowEstimate` carries the resulting per-stage
seconds on the result object.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.obs.trace import Tracer
from repro.parallel.tasks import (
    label_weights_for,
    pipeline_for,
    simulator_for,
)
from repro.rtl.simulator import RecordSpec

__all__ = ["FlowEstimate", "DesignTimeFlow", "inference_seconds_per_1e9"]


@dataclass
class FlowEstimate:
    """Result of one APOLLO-flow power estimation run.

    ``stage_seconds`` maps stage name (``"uarch"``, ``"rtl"``,
    ``"inference"``) to wall seconds, extracted from the run's span tree;
    the legacy per-stage properties read from it.
    """

    name: str
    power: np.ndarray  # per-cycle predicted power (mW)
    proxy_bytes: int
    stage_seconds: dict[str, float] = field(default_factory=dict)
    label: np.ndarray | None = None  # ground truth if requested

    @property
    def uarch_seconds(self) -> float:
        return self.stage_seconds.get("uarch", 0.0)

    @property
    def rtl_seconds(self) -> float:
        return self.stage_seconds.get("rtl", 0.0)

    @property
    def inference_seconds(self) -> float:
        return self.stage_seconds.get("inference", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    @property
    def n_cycles(self) -> int:
        return int(self.power.size)


class DesignTimeFlow:
    """APOLLO-based per-cycle power estimation for one core + model."""

    def __init__(
        self, core, model, engine: str = "packed", tracer=None
    ) -> None:
        self.core = core
        self.model = model
        self.tracer = tracer
        self._sim = simulator_for(core.netlist, engine)

    def estimate(
        self,
        program,
        cycles: int,
        with_reference: bool = False,
        throttle=None,
        tracer=None,
    ) -> FlowEstimate:
        """Per-cycle power for ``program`` over ``cycles`` cycles.

        ``with_reference`` additionally runs the signoff accumulator (the
        "commercial flow" stand-in) for accuracy comparison — on the same
        simulation pass, so the comparison is apples-to-apples.

        ``tracer`` (or the constructor's) collects the ``flow.estimate``
        span tree; without one, a private tracer still measures the
        stages so :class:`FlowEstimate` always reports its timings.
        """
        if cycles <= 0:
            raise ReproError("cycles must be positive")
        tracer = tracer or self.tracer
        if tracer is None or not tracer.enabled:
            tracer = Tracer()  # timings must exist even untraced
        params = self.core.params.with_throttle(throttle)

        with tracer.span(
            "flow.estimate",
            workload=getattr(program, "name", "workload"),
            cycles=cycles,
            engine=self._sim.engine,
            q=self.model.q,
        ) as root:
            with tracer.span("flow.uarch"):
                activity, _stats = pipeline_for(params).run(program, cycles)
                stim = self.core.stimulus_for(activity)

            accum = {}
            if with_reference:
                accum["label"] = label_weights_for(self.core.netlist)
            with tracer.span("flow.rtl"):
                res = self._sim.run(
                    stim,
                    RecordSpec(
                        columns=self.model.proxies, accumulators=accum
                    ),
                    tracer=tracer,
                )

            with tracer.span("flow.inference"):
                toggles = res.columns[0].astype(np.float64)
                power = self.model.predict(toggles)

        stage_seconds = {
            c.name.split(".", 1)[1]: c.duration for c in root.children
        }
        return FlowEstimate(
            name=getattr(program, "name", "workload"),
            power=power,
            proxy_bytes=(self.model.q * cycles + 7) // 8,
            stage_seconds=stage_seconds,
            label=res.accum.get("label", [None])[0]
            if with_reference
            else None,
        )


def inference_seconds_per_1e9(
    predict_fn, n_features: int, sample_cycles: int = 20000, seed: int = 0
) -> float:
    """Measure a model's inference rate and extrapolate to 10^9 cycles.

    The §8.1 comparison: APOLLO's Q-term linear model infers a billion
    cycles in about a minute; CNN/PCA models over all signals take days to
    months.  ``predict_fn`` maps an (N, n_features) float matrix to (N,)
    predictions.
    """
    rng = np.random.default_rng(seed)
    X = (rng.random((sample_cycles, n_features)) < 0.3).astype(np.float64)
    # Warm-up (JIT-free NumPy, but page in the buffers).
    predict_fn(X[:256])
    t0 = time.perf_counter()
    predict_fn(X)
    elapsed = time.perf_counter() - t0
    return elapsed * (1e9 / sample_cycles)
