"""Dataset assembly: features (toggle traces) + labels (power) per §4.2.

``build_training_dataset`` replays a power-diverse subset of GA-generated
micro-benchmarks through the gate-level simulator, recording full packed
toggle traces and ground-truth per-cycle power; ``build_testing_dataset``
does the same for the handcrafted Table-4 suite, recording per-benchmark
segment boundaries so Fig. 9(b)'s per-benchmark metrics can be computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import DatasetError, SimulationError
from repro.resilience.atomic import NPZ_DECODE_ERRORS, atomic_save_npz
from repro.genbench.ga import GaIndividual, GaResult
from repro.genbench.handcrafted import testing_suite
from repro.parallel.cache import (
    EvalCache,
    array_fingerprint,
    make_key,
    program_fingerprint,
    throttle_fingerprint,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import core_state, simulate_group, state_key_for
from repro.rtl.trace import ToggleTrace

__all__ = [
    "PowerDataset",
    "select_uniform_power",
    "build_training_dataset",
    "build_testing_dataset",
    "DATASET_VERSION",
]

#: Bump when benchmark/dataset generators change semantics, so cached
#: datasets (keyed on this) regenerate.  v4: batch-width-independent
#: float64 accumulator reduction in the simulator (labels shift at
#: float32 rounding level relative to v3).
DATASET_VERSION = 4


@dataclass
class PowerDataset:
    """Per-cycle toggle features + power labels for one design.

    ``trace`` holds every net's toggles (batch 1, cycles N);
    ``candidate_ids`` are the monitorable net ids (the selection search
    space); ``segments`` maps benchmark names to [start, end) cycle ranges.
    """

    trace: ToggleTrace
    labels: np.ndarray
    candidate_ids: np.ndarray
    segments: list[tuple[str, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.trace.batch != 1:
            raise DatasetError("dataset traces must have batch == 1")
        if self.labels.shape != (self.trace.n_cycles,):
            raise DatasetError(
                f"labels {self.labels.shape} vs trace cycles "
                f"{self.trace.n_cycles}"
            )
        if not np.isfinite(self.labels).all():
            raise DatasetError("labels must be finite (no NaN or inf)")
        ids = self.candidate_ids
        if ids.ndim != 1 or ids.dtype.kind not in "iu" or (
            ids.size and (ids.min() < 0 or ids.max() >= self.trace.n_nets)
        ):
            raise DatasetError(
                f"candidate_ids ({ids.dtype}, shape {ids.shape}) are not "
                f"net ids of a {self.trace.n_nets}-net trace"
            )

    @property
    def n_cycles(self) -> int:
        return self.trace.n_cycles

    def features(self, cols: np.ndarray | None = None) -> np.ndarray:
        """Dense (N, k) uint8 toggle matrix for the given net ids.

        Defaults to all candidate nets.
        """
        cols = self.candidate_ids if cols is None else np.asarray(cols)
        return self.trace.dense(cols)[0]

    def segment(self, name: str) -> tuple[int, int]:
        for seg_name, start, end in self.segments:
            if seg_name == name:
                return start, end
        raise DatasetError(f"no segment named {name!r}")

    def split(self, val_frac: float, seed: int = 0) -> tuple[
        np.ndarray, np.ndarray
    ]:
        """Random train/validation cycle-index split."""
        if not (0 < val_frac < 1):
            raise DatasetError("val_frac must be in (0, 1)")
        rng = np.random.default_rng(seed)
        idx = rng.permutation(self.n_cycles)
        n_val = int(self.n_cycles * val_frac)
        return np.sort(idx[n_val:]), np.sort(idx[:n_val])

    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        path = Path(path)
        names = np.array([s[0] for s in self.segments])
        bounds = np.array(
            [[s[1], s[2]] for s in self.segments], dtype=np.int64
        ).reshape(-1, 2)
        # Atomic publish: concurrent experiment fan-out must never
        # observe a partially-written artifact.
        atomic_save_npz(
            path,
            {
                "packed": self.trace.packed,
                "n_nets": np.int64(self.trace.n_nets),
                "labels": self.labels,
                "candidate_ids": self.candidate_ids,
                "seg_names": names,
                "seg_bounds": bounds,
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "PowerDataset":
        """Load a saved dataset.  A torn, corrupt or foreign archive (not
        a zip, a bad member, a missing key, pickled objects, a field of
        the wrong shape or dtype) raises :class:`DatasetError`; I/O
        errors such as a missing file pass through unchanged."""
        try:
            with np.load(path, allow_pickle=False) as data:
                names, bounds = data["seg_names"], data["seg_bounds"]
                if names.ndim != 1 or bounds.shape != (names.size, 2):
                    raise DatasetError(
                        f"segment names {names.shape} vs bounds "
                        f"{bounds.shape}"
                    )
                return cls(
                    trace=ToggleTrace(
                        packed=data["packed"], n_nets=int(data["n_nets"])
                    ),
                    labels=data["labels"],
                    candidate_ids=data["candidate_ids"],
                    segments=[
                        (str(n), int(b[0]), int(b[1]))
                        for n, b in zip(names, bounds)
                    ],
                )
        except (*NPZ_DECODE_ERRORS, SimulationError) as exc:
            raise DatasetError(
                f"{path} is not a readable PowerDataset archive: {exc}"
            ) from exc


def select_uniform_power(
    individuals: list[GaIndividual],
    count: int,
    n_bins: int = 12,
    seed: int = 0,
) -> list[GaIndividual]:
    """Pick ``count`` individuals with near-uniform power coverage.

    Mirrors §7.1: "around 300 micro-benchmarks are selected to form the
    training set with a uniform power distribution."  Bins span the
    observed power range; picks round-robin across bins.
    """
    if not individuals:
        raise DatasetError("no individuals to select from")
    count = min(count, len(individuals))
    powers = np.array([i.power for i in individuals])
    lo, hi = powers.min(), powers.max()
    if hi <= lo:
        return individuals[:count]
    edges = np.linspace(lo, hi, n_bins + 1)
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for idx, p in enumerate(powers):
        b = min(n_bins - 1, int((p - lo) / (hi - lo) * n_bins))
        bins[b].append(idx)
    rng = np.random.default_rng(seed)
    for b in bins:
        rng.shuffle(b)
    chosen: list[int] = []
    round_i = 0
    while len(chosen) < count:
        progressed = False
        for b in bins:
            if round_i < len(b):
                chosen.append(b[round_i])
                progressed = True
                if len(chosen) >= count:
                    break
        if not progressed:
            break
        round_i += 1
    return [individuals[i] for i in sorted(chosen)]


def _simulate_benchmarks(
    core,
    runs: list[tuple[str, object, int, object]],
    batch_group: int = 8,
    engine: str = "packed",
    workers: int = 1,
    cache: EvalCache | None = None,
    stage: str = "dataset",
    faults=None,
) -> tuple[ToggleTrace, np.ndarray, list[tuple[str, int, int]]]:
    """Simulate (name, program, cycles, throttle) runs; concat results.

    Runs with identical (cycles, throttle) are batched together; cached
    runs are skipped and the remaining groups fan out across ``workers``
    processes.  Output is bit-identical for any worker count and cache
    state — per-benchmark results depend only on the benchmark itself,
    never on its batch-mates (width-independent accumulator reduction).

    The cache is also how an interrupted build resumes.  Runs are cached
    when the map that simulated them returns: one map for all groups,
    or, under a fault plan, one per wave of ``workers`` groups, each
    cached before the ``{stage}.wave`` fault site fires.  So a build
    re-entered after that interrupt gets every run finished before it
    back as a hit and simulates only the rest.  Re-grouping the
    survivors changes batch-mates but (by the contract above) not a
    single output bit.
    """
    weights = core_state(core, engine).label_weights
    state_key = state_key_for(core, engine)

    n = len(runs)
    results: list[dict[str, np.ndarray] | None] = [None] * n
    keys: list[str | None] = [None] * n
    if cache is not None:
        netlist_fp = core.netlist.fingerprint()
        weights_fp = array_fingerprint(weights)
        # No engine in the key: backends are bit-identical by contract,
        # so cached runs are shared (and resumed) across them.
        for i, (_name, prog, cycles, throttle) in enumerate(runs):
            keys[i] = make_key(
                "dataset-run",
                netlist_fp,
                cycles,
                throttle_fingerprint(throttle),
                program_fingerprint(prog),
                weights_fp,
            )
            results[i] = cache.get(keys[i])

    # Group consecutive misses by (cycles, throttle identity).
    miss = [i for i in range(n) if results[i] is None]
    groups: list[tuple[list[int], int, object]] = []
    j = 0
    while j < len(miss):
        cycles, throttle = runs[miss[j]][2], runs[miss[j]][3]
        group = [miss[j]]
        while (
            len(group) < batch_group
            and j + len(group) < len(miss)
            and runs[miss[j + len(group)]][2] == cycles
            and runs[miss[j + len(group)]][3] is throttle
        ):
            group.append(miss[j + len(group)])
        j += len(group)
        groups.append((group, cycles, throttle))

    if groups:
        pool = WorkerPool(
            workers,
            initializer=core_state,
            initargs=(core, engine),
            faults=faults,
        )
        # Waves of ``workers`` groups only where a fault plan can
        # interrupt a build that the cache can resume: each wave is
        # cached before the wave site fires.  Every other build sends
        # all groups in one map, which keeps the pool's load balance
        # (a wave shorter than the pool runs serially in this process).
        waves = cache is not None and faults is not None
        wave = max(1, pool.workers) if waves else len(groups)
        try:
            for w0 in range(0, len(groups), wave):
                wave_groups = groups[w0:w0 + wave]
                outs = pool.map(
                    simulate_group,
                    [
                        (
                            state_key,
                            cycles,
                            throttle,
                            [runs[i][1] for i in group],
                        )
                        for group, cycles, throttle in wave_groups
                    ],
                    label="dataset.sim",
                )
                for (group, _cyc, _thr), payloads in zip(wave_groups, outs):
                    for i, payload in zip(group, payloads):
                        results[i] = payload
                        if keys[i] is not None:
                            cache.put(keys[i], payload)
                if faults is not None:
                    faults.raise_if(f"{stage}.wave")
        finally:
            pool.close()

    traces: list[ToggleTrace] = []
    labels: list[np.ndarray] = []
    segments: list[tuple[str, int, int]] = []
    cursor = 0
    for (name, _prog, cycles, _thr), payload in zip(runs, results):
        traces.append(
            ToggleTrace(
                packed=payload["packed"][None],
                n_nets=core.netlist.n_nets,
            )
        )
        labels.append(payload["label"])
        segments.append((name, cursor, cursor + cycles))
        cursor += cycles

    trace = ToggleTrace.concat_cycles(traces)
    return trace, np.concatenate(labels), segments


def build_training_dataset(
    core,
    ga_result: GaResult,
    target_cycles: int,
    replay_cycles: int = 300,
    seed: int = 0,
    engine: str = "packed",
    workers: int = 1,
    cache: EvalCache | None = None,
    faults=None,
) -> PowerDataset:
    """Replay a uniform-power GA subset to collect ``target_cycles``.

    Each selected micro-benchmark contributes ``replay_cycles`` cycles.
    With a ``cache``, a build interrupted at the ``dataset.train.wave``
    fault site resumes when called again: finished benchmarks come back
    as cache hits (across processes only with a disk tier), and the
    output is bit-identical either way.
    """
    if target_cycles < replay_cycles:
        raise DatasetError("target_cycles smaller than one replay")
    n_benchmarks = int(np.ceil(target_cycles / replay_cycles))
    chosen = select_uniform_power(
        ga_result.individuals, n_benchmarks, seed=seed
    )
    runs = [
        (ind.program.name, ind.program, replay_cycles, None)
        for ind in chosen
    ]
    trace, labels, segments = _simulate_benchmarks(
        core, runs, engine=engine, workers=workers, cache=cache,
        stage="dataset.train", faults=faults,
    )
    return PowerDataset(
        trace=trace,
        labels=labels,
        candidate_ids=core.monitorable_nets(),
        segments=segments,
    )


def build_testing_dataset(
    core,
    cycle_scale: float = 1.0,
    engine: str = "packed",
    workers: int = 1,
    cache: EvalCache | None = None,
    faults=None,
) -> PowerDataset:
    """Simulate the 12 handcrafted Table-4 benchmarks.

    Resumes from ``cache`` like :func:`build_training_dataset`, with
    the ``dataset.test.wave`` fault site.
    """
    suite = testing_suite(cycle_scale)
    runs = [(b.name, b.program, b.cycles, b.throttle) for b in suite]
    trace, labels, segments = _simulate_benchmarks(
        core, runs, engine=engine, workers=workers, cache=cache,
        stage="dataset.test", faults=faults,
    )
    return PowerDataset(
        trace=trace,
        labels=labels,
        candidate_ids=core.monitorable_nets(),
        segments=segments,
    )
