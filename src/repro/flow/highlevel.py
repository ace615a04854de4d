"""High-abstraction power model (the paper's §9 future work).

"Secondly, we will focus on translating the APOLLO design-time model into
higher abstraction models (C/C++ instead of RTL), thereby integrating
performance simulation with power-tracing."

This module implements that direction on the reproduction's substrate:
a per-cycle power model trained directly on *microarchitectural activity*
(the pipeline model's channels — unit enables, occupancies, operand
hamming activity) with no gate-level simulation at inference time.  Power
tracing then runs at performance-simulator speed: one pipeline-model pass
instead of pipeline + RTL simulation.

Features per activity channel:

* 1-bit channels (valids, clock enables, hit bits) enter as-is;
* multi-bit channels contribute their population count and the hamming
  distance to the previous cycle's value (a datapath-switching proxy).

The model is ridge-regressed against the same ground-truth labels APOLLO
trains on, so the experiment can quantify exactly what abstraction costs:
accuracy (R^2/NRMSE gap vs RTL-proxy APOLLO) versus speed (no RTL
simulation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PowerModelError, ReproError
from repro.core.solvers import ridge_fit
from repro.parallel.tasks import pipeline_for
from repro.uarch.events import ActivityTrace

__all__ = [
    "activity_features",
    "ActivityPowerModel",
    "train_activity_model",
    "dataset_activities",
]


def _popcount(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values, dtype=np.uint64)
    v = values.copy()
    while np.any(v):
        out += v & np.uint64(1)
        v >>= np.uint64(1)
    return out


def activity_features(
    trace: ActivityTrace,
) -> tuple[np.ndarray, list[str]]:
    """Per-cycle feature matrix from an activity trace.

    Returns (features, names) where ``features`` is float64 of shape
    (cycles, n_features).
    """
    cols: list[np.ndarray] = []
    names: list[str] = []
    for name, width in trace.schema:
        vals = trace.channels[name].astype(np.uint64)
        if width == 1:
            cols.append(vals.astype(np.float64))
            names.append(name)
        else:
            pc = _popcount(vals).astype(np.float64)
            prev = np.concatenate([[0], vals[:-1]]).astype(np.uint64)
            ham = _popcount(vals ^ prev).astype(np.float64)
            cols.append(pc)
            names.append(f"{name}:popcount")
            cols.append(ham)
            names.append(f"{name}:hamming")
    return np.column_stack(cols), names


@dataclass
class ActivityPowerModel:
    """Linear per-cycle power model over microarchitectural activity."""

    feature_names: list[str]
    weights: np.ndarray
    intercept: float

    @property
    def n_features(self) -> int:
        return int(self.weights.size)

    def predict_from_features(self, features: np.ndarray) -> np.ndarray:
        F = np.asarray(features, dtype=np.float64)
        if F.ndim != 2 or F.shape[1] != self.n_features:
            raise PowerModelError(
                f"expected (N, {self.n_features}) features, got {F.shape}"
            )
        return F @ self.weights + self.intercept

    def predict(self, trace: ActivityTrace) -> np.ndarray:
        """Per-cycle power directly from an activity trace."""
        F, names = activity_features(trace)
        if names != self.feature_names:
            raise PowerModelError(
                "activity schema does not match the trained model"
            )
        return self.predict_from_features(F)

    def trace_program(
        self, params, program, cycles: int
    ) -> tuple[np.ndarray, float]:
        """Power-trace a program with *only* the performance model.

        Returns (per-cycle power, elapsed seconds) — the §9 scenario:
        performance simulation with integrated power tracing.
        """
        t0 = time.perf_counter()
        activity, _stats = pipeline_for(params).run(program, cycles)
        power = self.predict(activity)
        return power, time.perf_counter() - t0

    def top_contributors(self, k: int = 10) -> list[tuple[str, float]]:
        """Largest |weight| features — which activity drives power."""
        order = np.argsort(-np.abs(self.weights))[:k]
        return [
            (self.feature_names[int(i)], float(self.weights[int(i)]))
            for i in order
        ]


def dataset_activities(
    core, dataset, programs_by_name: dict
) -> ActivityTrace:
    """Reconstruct the concatenated activity trace behind a dataset.

    ``programs_by_name`` maps segment names to (program, throttle)
    pairs; segments are re-run through the pipeline model in order.  The
    pipeline is deterministic, so the rebuilt activity aligns cycle-wise
    with the dataset's stored labels.
    """
    from repro.uarch.events import stimulus_schema

    schema = stimulus_schema(core.params)
    merged = ActivityTrace(schema, dataset.n_cycles)
    for name, start, end in dataset.segments:
        if name not in programs_by_name:
            raise ReproError(f"no program registered for segment {name!r}")
        program, throttle = programs_by_name[name]
        params = core.params.with_throttle(throttle)
        activity, _stats = pipeline_for(params).run(program, end - start)
        for ch, vals in activity.channels.items():
            merged.channels[ch][start:end] = vals
    return merged


def train_activity_model(
    activity: ActivityTrace,
    labels: np.ndarray,
    ridge_lam: float = 1e-2,
) -> ActivityPowerModel:
    """Fit the high-level model on activity features vs power labels."""
    F, names = activity_features(activity)
    y = np.asarray(labels, dtype=np.float64)
    if F.shape[0] != y.shape[0]:
        raise PowerModelError("activity/labels cycle mismatch")
    w, b = ridge_fit(F, y, lam=ridge_lam)
    return ActivityPowerModel(
        feature_names=names, weights=w, intercept=b
    )
