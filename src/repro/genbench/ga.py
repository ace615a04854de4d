"""GA-based micro-benchmark generation (GeST-style, §4.1 / Fig. 3).

Individuals are fixed-length instruction sequences.  Fitness is average
power measured by the reproduction's signoff flow (pipeline model + gate
simulation + capacitance-weighted toggles); the highest-power individuals
become parents (truncation selection), produce children via single-point
crossover, and mutate by instruction replacement.  Every evaluated
individual is kept: the union across generations spans low to high power
(>5x in the paper, asserted in the Fig. 3 experiment).

Power evaluation is the expensive step; a whole generation is evaluated in
*one batched* gate-level simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError, DatasetError
from repro.obs.trace import NULL_TRACER
from repro.resilience.checkpoint import (
    CheckpointStore,
    programs_from_arrays,
    programs_to_arrays,
    restore_rng_state,
    rng_state_meta,
)
from repro.parallel.cache import (
    EvalCache,
    array_fingerprint,
    make_key,
    program_fingerprint,
)
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import core_state, eval_power_shard, state_key_for
from repro.isa.instructions import Instruction
from repro.isa.program import (
    DEFAULT_MIX,
    InstructionMix,
    Program,
    random_instruction,
    random_program,
)
from repro.isa.instructions import IClass, Opcode

__all__ = ["GaConfig", "GaIndividual", "GaResult", "BenchmarkEvolver"]


@dataclass(frozen=True)
class GaConfig:
    """Genetic-algorithm budget and operator rates.

    ``fitness`` selects the optimization target: ``"power"`` evolves a
    power virus (the paper's training-data generator, §4.1); ``"didt"``
    evolves an Ldi/dt stressmark — the worst current *ramp* over a short
    window — the §8.2 voltage-droop scenario (GeST [28] supports the
    same two stressmark families).
    """

    population: int = 16
    generations: int = 14
    program_length: int = 48
    eval_cycles: int = 300
    elite: int = 2
    parent_frac: float = 0.5
    mutation_rate: float = 0.08
    seed: int = 7
    fitness: str = "power"
    didt_window: int = 4

    def __post_init__(self) -> None:
        if self.population < 4:
            raise DatasetError("population must be >= 4")
        if not (0 < self.parent_frac <= 1):
            raise DatasetError("parent_frac must be in (0, 1]")
        if self.elite >= self.population:
            raise DatasetError("elite must be smaller than population")
        if self.fitness not in ("power", "didt"):
            raise DatasetError(
                f"fitness must be 'power' or 'didt', got {self.fitness!r}"
            )
        if self.didt_window < 1:
            raise DatasetError("didt_window must be >= 1")
        if self.program_length < 2:
            raise DatasetError(
                "program_length must be >= 2 (single-point crossover "
                "needs an interior cut)"
            )
        if self.elite < 0:
            raise DatasetError("elite must be >= 0")
        if not (0 <= self.mutation_rate <= 1):
            raise DatasetError("mutation_rate must be in [0, 1]")


@dataclass
class GaIndividual:
    """One evaluated micro-benchmark.

    ``power`` is always the average switching power; ``fitness`` is the
    selection objective (equal to ``power`` for power-virus runs, the
    worst current ramp for dI/dt runs).
    """

    program: Program
    power: float
    generation: int
    fitness: float | None = None

    def __post_init__(self) -> None:
        if self.fitness is None:
            self.fitness = self.power


@dataclass
class GaResult:
    """All evaluated individuals plus per-generation statistics."""

    individuals: list[GaIndividual]
    generations: int

    @property
    def best(self) -> GaIndividual:
        return max(self.individuals, key=lambda i: i.power)

    @property
    def best_by_fitness(self) -> GaIndividual:
        """Top individual under the configured objective (power or didt)."""
        return max(self.individuals, key=lambda i: i.fitness)

    @property
    def power_range(self) -> tuple[float, float]:
        powers = [i.power for i in self.individuals]
        return min(powers), max(powers)

    @property
    def max_min_ratio(self) -> float:
        lo, hi = self.power_range
        return hi / lo if lo > 0 else float("inf")

    def generation_stats(self) -> list[tuple[int, float, float, float]]:
        """(generation, min, mean, max) power rows — Fig. 3(b)'s data."""
        out = []
        for g in range(self.generations):
            powers = [
                i.power for i in self.individuals if i.generation == g
            ]
            if powers:
                out.append(
                    (g, min(powers), float(np.mean(powers)), max(powers))
                )
        return out

    def scatter_points(self) -> list[tuple[int, float]]:
        """(generation, power) pairs, one per individual (Fig. 3b)."""
        return [(i.generation, i.power) for i in self.individuals]


class BenchmarkEvolver:
    """Evolves power-virus micro-benchmarks for one core design.

    Parameters beyond PR 1's:

    workers:
        Process count for fitness evaluation.  Each generation's
        pipeline walks + batched simulation are sharded across workers;
        results are bit-identical to ``workers=1`` for any count (the
        simulator's accumulator reduction is batch-width independent).
    cache:
        Optional :class:`repro.parallel.EvalCache`; per-program power
        traces are memoized by content hash, so re-encountered programs
        (duplicate children, cross-run repeats via a disk tier) skip
        simulation entirely.  Elites never need it: their measured
        traces carry into the next generation.
    checkpoints:
        Optional :class:`~repro.resilience.CheckpointStore`.  When set,
        the full GA state (population, RNG bit-generator state, every
        evaluated individual, elite traces) is checkpointed under stage
        ``"ga"`` at the top of each generation, and ``run(resume=True)``
        continues an interrupted run **bit-identically** to an
        uninterrupted one.
    faults:
        Optional :class:`~repro.resilience.FaultInjector`, forwarded to
        the worker pool (``pool.map`` site) and fired at the
        ``ga.generation`` site just after each checkpoint is saved — a
        scheduled ``interrupt`` there models a crash at the stage
        boundary that a later ``run(resume=True)`` recovers from.
    """

    def __init__(
        self,
        core,
        config: GaConfig | None = None,
        engine: str = "packed",
        tracer=None,
        workers: int = 1,
        cache: EvalCache | None = None,
        checkpoints: CheckpointStore | None = None,
        faults=None,
    ) -> None:
        self.core = core
        self.config = config or GaConfig()
        self.tracer = tracer or NULL_TRACER
        # The process's shared objects, built here (once per process)
        # so that workers forked later inherit them.
        state = core_state(core, engine)
        self.simulator = state.simulator
        weights = state.label_weights
        self._rng = np.random.default_rng(self.config.seed)
        self.cache = cache
        self._netlist_fp = core.netlist.fingerprint()
        self._weights_fp = (
            array_fingerprint(weights) if cache is not None else ""
        )
        self._state_key = state_key_for(core, engine)
        self.checkpoints = checkpoints
        self.faults = faults
        #: Individuals packed for this run's checkpoints so far:
        #: (count, arrays, names).
        self._ind_packed: tuple = (0, None, [])
        self.pool = WorkerPool(
            workers,
            initializer=core_state,
            initargs=(core, engine),
            tracer=self.tracer,
            faults=faults,
        )
        #: Work counters (cumulative over this evolver's lifetime).
        self.n_simulated = 0
        self.n_cache_hits = 0
        self.n_elite_reuses = 0

    def close(self) -> None:
        """Release worker processes (idempotent)."""
        self.pool.close()

    def __enter__(self) -> "BenchmarkEvolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _power_traces(
        self,
        programs: list[Program],
        known: dict[int, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Per-cycle power of each program, batched: (B, cycles).

        ``known`` maps positions to already-measured traces (elite
        carry-over).  Remaining programs are looked up in the cache,
        and the misses simulated in up to ``workers`` shards; every
        path yields the same bits as one monolithic serial batch.
        """
        cycles = self.config.eval_cycles
        n = len(programs)
        out = np.empty((n, cycles), dtype=np.float64)
        keys: list[str | None] = [None] * n
        miss: list[int] = []
        for i, prog in enumerate(programs):
            if known is not None and i in known:
                out[i] = known[i]
                self.n_elite_reuses += 1
                continue
            if self.cache is not None:
                # No engine in the key: every backend is bit-identical
                # by contract, so cached traces are shared across them.
                keys[i] = make_key(
                    "ga-power",
                    self._netlist_fp,
                    cycles,
                    program_fingerprint(prog),
                    self._weights_fp,
                )
                hit = self.cache.get(keys[i])
                if hit is not None:
                    out[i] = hit["power"]
                    self.n_cache_hits += 1
                    continue
            miss.append(i)
        if miss:
            # Cross-individual batching: the whole generation's misses
            # compile into packed runs.  Shard only when the pool will
            # actually fan out (mirroring WorkerPool.map's own serial
            # criterion); otherwise one monolithic batch beats many
            # small ones.  Either plan yields the same bits — the
            # accumulator reduction is batch-width independent.
            if self.pool.parallel and len(miss) >= self.pool.workers:
                slices = self.pool.shard(len(miss))
            else:
                slices = [slice(0, len(miss))]
            shards = [
                (
                    self._state_key,
                    cycles,
                    [programs[i] for i in miss[sl]],
                )
                for sl in slices
            ]
            rows = np.concatenate(
                self.pool.map(eval_power_shard, shards, label="ga.eval"),
                axis=0,
            )
            self.n_simulated += len(miss)
            for j, i in enumerate(miss):
                out[i] = rows[j]
                if keys[i] is not None:
                    self.cache.put(keys[i], {"power": rows[j]})
        return out

    def measure_power(self, programs: list[Program]) -> np.ndarray:
        """Average switching power (mW) of each program, batched."""
        if not programs:
            return np.zeros(0)
        return self._power_traces(programs).mean(axis=1)

    def measure_didt(self, traces: np.ndarray) -> np.ndarray:
        """Worst positive current ramp per trace (mA over the window).

        The ramp is the difference between the mean current of the next
        ``didt_window`` cycles and the previous ``didt_window`` cycles —
        the quantity that excites Ldi/dt droops (§8.2).  Computed for
        the whole batch at once via sliding-window sums (one pass, no
        per-trace Python loop).
        """
        w = self.config.didt_window
        cur = np.asarray(traces, dtype=np.float64) / 0.75  # mA at vdd
        if cur.shape[1] < 2 * w:
            raise DatasetError("eval_cycles too short for didt_window")
        # sw[:, t] = sum(cur[:, t:t+w]); the ramp at t compares the
        # window starting at t+w against the one starting at t.
        sw = np.lib.stride_tricks.sliding_window_view(
            cur, w, axis=1
        ).sum(axis=2)
        ramps = (sw[:, w:] - sw[:, :-w]) / w
        return ramps.max(axis=1)

    def _measure_didt_loop(self, traces: np.ndarray) -> np.ndarray:
        """Reference per-trace convolution (kept for property tests)."""
        w = self.config.didt_window
        cur = traces / 0.75
        if cur.shape[1] < 2 * w:
            raise DatasetError("eval_cycles too short for didt_window")
        kernel = np.concatenate(
            [-np.ones(w) / w, np.ones(w) / w]
        )
        out = np.empty(cur.shape[0])
        for b in range(cur.shape[0]):
            ramps = np.convolve(cur[b], kernel[::-1], mode="valid")
            out[b] = float(ramps.max())
        return out

    # ------------------------------------------------------------------ #
    def _initial_population(self) -> list[Program]:
        """Random programs with randomized instruction mixes (diversity).

        A few deterministic low-activity prototypes (serial dependence
        chains, branch storms) seed the low end of the power range so the
        accumulated training set spans idle-ish to virus (Fig. 3b's >5x
        max/min spread).
        """
        from repro.isa.assembler import assemble

        pop: list[Program] = []
        length = self.config.program_length
        serial = ["movi x1, 3"] + ["mul x1, x1, x1"] * (length - 1)
        chase = ["movi x1, 0"] + ["ld x1, 1777(x1)"] * (length - 1)
        storm = ["movi x2, 1"]
        while len(storm) < length:
            storm += ["xor x1, x1, x2", "bne x1, x0, 2", "nop", "nop"]
        for name, src in (
            ("ga_seed_serial", serial),
            ("ga_seed_chase", chase),
            ("ga_seed_branchy", storm[:length]),
        ):
            pop.append(
                Program(name, tuple(assemble("\n".join(src))))
            )
        for k in range(self.config.population - len(pop)):
            weights = {
                c: float(self._rng.uniform(0.1, 4.0)) for c in IClass
            }
            mix = InstructionMix(
                weights=weights,
                mem_stride=int(self._rng.choice((1, 2, 8, 64))),
                mem_region_words=int(self._rng.choice((64, 512, 4096))),
            )
            pop.append(
                random_program(
                    self._rng,
                    self.config.program_length,
                    mix,
                    name=f"ga_g0_i{k}",
                )
            )
        return pop

    def _crossover(
        self, a: Program, b: Program, name: str
    ) -> Program:
        if len(a) < 2:  # no interior cut exists
            return Program(name, a.instructions)
        cut = int(self._rng.integers(1, len(a)))
        child = a.instructions[:cut] + b.instructions[cut:]
        return Program(name, child)

    def _mutate(self, prog: Program, name: str) -> Program:
        insts: list[Instruction] = []
        for inst in prog.instructions:
            if self._rng.random() < self.config.mutation_rate:
                op = Opcode(int(self._rng.integers(0, len(Opcode))))
                insts.append(
                    random_instruction(
                        self._rng, op, DEFAULT_MIX,
                        mem_offset=int(self._rng.integers(0, 512)),
                    )
                )
            else:
                insts.append(inst)
        return Program(name, tuple(insts))

    # ------------------------------------------------------------------ #
    def _ckpt_identity(self) -> dict:
        """What a checkpoint must match to be resumable by this evolver."""
        cfg = self.config
        return {
            "population": cfg.population,
            "generations": cfg.generations,
            "program_length": cfg.program_length,
            "eval_cycles": cfg.eval_cycles,
            "elite": cfg.elite,
            "parent_frac": cfg.parent_frac,
            "mutation_rate": cfg.mutation_rate,
            "seed": cfg.seed,
            "fitness": cfg.fitness,
            "didt_window": cfg.didt_window,
            # Deliberately no engine field: backends are bit-identical,
            # so a checkpoint written under one resumes under any other
            # with the same results.  (Checkpoints from the era when the
            # engine was part of the identity are refused, determinis-
            # tically, by the dict mismatch.)
            "netlist": self._netlist_fp,
        }

    def _individual_arrays(
        self, all_individuals: list[GaIndividual]
    ) -> tuple[dict[str, np.ndarray], list[str]]:
        """Checkpoint arrays of ``all_individuals``, packing only the
        ones added since the run's previous save.

        ``all_individuals`` only grows during a run, so each save packs
        one generation, not the whole history.
        """
        done, arrays, names = self._ind_packed
        new = all_individuals[done:]
        if arrays is not None and not new:
            return arrays, names
        arrs, new_names = programs_to_arrays([ind.program for ind in new])
        part = {
            "ind_fields": arrs["prog_fields"],
            "ind_offsets": arrs["prog_offsets"],
            "ind_power": np.asarray(
                [ind.power for ind in new], dtype=np.float64
            ),
            "ind_fitness": np.asarray(
                [ind.fitness for ind in new], dtype=np.float64
            ),
            "ind_generation": np.asarray(
                [ind.generation for ind in new], dtype=np.int64
            ),
        }
        if arrays is not None:
            # Offsets continue from the packed rows' end.
            part["ind_offsets"] = (
                part["ind_offsets"][1:] + arrays["ind_offsets"][-1]
            )
            part = {
                k: np.concatenate([arrays[k], v]) for k, v in part.items()
            }
        self._ind_packed = (len(all_individuals), part, names + new_names)
        return part, names + new_names

    def _save_generation(
        self,
        gen: int,
        population: list[Program],
        all_individuals: list[GaIndividual],
        known: dict[int, np.ndarray] | None,
    ) -> None:
        """Checkpoint the exact state the top of generation ``gen`` sees."""
        pop_arrs, pop_names = programs_to_arrays(population)
        ind_arrays, ind_names = self._individual_arrays(all_individuals)
        arrays = {
            "pop_fields": pop_arrs["prog_fields"],
            "pop_offsets": pop_arrs["prog_offsets"],
            **ind_arrays,
        }
        if known:
            positions = sorted(known)
            arrays["known_positions"] = np.asarray(positions, dtype=np.int64)
            arrays["known_traces"] = np.stack(
                [np.asarray(known[p], dtype=np.float64) for p in positions]
            )
        meta = {
            "rng_state": rng_state_meta(self._rng),
            "pop_names": pop_names,
            "ind_names": ind_names,
            "identity": self._ckpt_identity(),
            "counters": {
                "n_simulated": self.n_simulated,
                "n_cache_hits": self.n_cache_hits,
                "n_elite_reuses": self.n_elite_reuses,
            },
        }
        self.checkpoints.save("ga", gen, arrays, meta)

    def _restore_generation(self, ck) -> tuple[
        int, list[Program], list[GaIndividual], dict[int, np.ndarray] | None
    ]:
        """Inverse of :meth:`_save_generation` (validates identity)."""
        identity = ck.meta.get("identity")
        if identity != self._ckpt_identity():
            raise CheckpointError(
                "GA checkpoint belongs to a different run configuration "
                f"(checkpoint {identity!r} vs current "
                f"{self._ckpt_identity()!r})"
            )
        population = programs_from_arrays(
            {
                "prog_fields": ck.arrays["pop_fields"],
                "prog_offsets": ck.arrays["pop_offsets"],
            },
            ck.meta["pop_names"],
        )
        ind_programs = programs_from_arrays(
            {
                "prog_fields": ck.arrays["ind_fields"],
                "prog_offsets": ck.arrays["ind_offsets"],
            },
            ck.meta["ind_names"],
        )
        all_individuals = [
            GaIndividual(
                program=p,
                power=float(pw),
                generation=int(g),
                fitness=float(fit),
            )
            for p, pw, fit, g in zip(
                ind_programs,
                ck.arrays["ind_power"],
                ck.arrays["ind_fitness"],
                ck.arrays["ind_generation"],
            )
        ]
        known: dict[int, np.ndarray] | None = None
        if "known_positions" in ck.arrays:
            known = {
                int(pos): ck.arrays["known_traces"][j]
                for j, pos in enumerate(ck.arrays["known_positions"])
            }
        restore_rng_state(self._rng, ck.meta["rng_state"])
        return ck.step, population, all_individuals, known

    def run(self, resume: bool = False) -> GaResult:
        """Run the full GA; returns every evaluated individual.

        With a checkpoint store attached, ``resume=True`` continues from
        the newest verifying ``"ga"`` checkpoint (falling back to a
        fresh start when none exists); the resumed run's result is
        bit-identical to an uninterrupted run of the same configuration.
        """
        cfg = self.config
        with self.tracer.span(
            "ga.run",
            population=cfg.population,
            generations=cfg.generations,
            fitness=cfg.fitness,
            engine=self.simulator.engine,
            seed=cfg.seed,
        ) as root:
            start_gen = 0
            population: list[Program] | None = None
            all_individuals: list[GaIndividual] = []
            # A resumed run packs its restored history once, at its
            # first save.
            self._ind_packed = (0, None, [])
            known: dict[int, np.ndarray] | None = None
            if resume and self.checkpoints is not None:
                ck = self.checkpoints.latest("ga")
                if ck is not None:
                    (
                        start_gen,
                        population,
                        all_individuals,
                        known,
                    ) = self._restore_generation(ck)
                    if root:
                        root.set(resumed_from=start_gen)
            if population is None:
                population = self._initial_population()
            sim0, hit0, reuse0 = (
                self.n_simulated, self.n_cache_hits, self.n_elite_reuses
            )

            for gen in range(start_gen, cfg.generations):
                if self.checkpoints is not None:
                    with self.tracer.span("ga.checkpoint", generation=gen):
                        self._save_generation(
                            gen, population, all_individuals, known
                        )
                if self.faults is not None:
                    # A scheduled "interrupt" models a crash right after
                    # the checkpoint: run(resume=True) re-enters here.
                    self.faults.raise_if("ga.generation")
                with self.tracer.span(
                    "ga.generation", generation=gen
                ) as sp:
                    traces = self._power_traces(population, known=known)
                    powers = traces.mean(axis=1)
                    if cfg.fitness == "didt":
                        fitness = self.measure_didt(traces)
                    else:
                        fitness = powers
                    scored = sorted(
                        zip(population, powers, fitness,
                            range(len(population))),
                        key=lambda t: -t[2],
                    )
                    all_individuals.extend(
                        GaIndividual(
                            program=p,
                            power=float(pw),
                            generation=gen,
                            fitness=float(fit),
                        )
                        for p, pw, fit, _i in scored
                    )
                    if sp:
                        sp.set(
                            min_power=float(powers.min()),
                            mean_power=float(np.mean(powers)),
                            max_power=float(powers.max()),
                            best_fitness=float(np.max(fitness)),
                            n_simulated=self.n_simulated - sim0,
                        )
                    if gen == cfg.generations - 1:
                        break
                    n_parents = max(
                        2, int(cfg.parent_frac * cfg.population)
                    )
                    parents = [
                        p for p, _pw, _fit, _i in scored[:n_parents]
                    ]
                    nxt: list[Program] = [
                        p for p, _pw, _fit, _i in scored[: cfg.elite]
                    ]
                    # Elites keep their measured traces: positions
                    # 0..elite-1 of the next population need no
                    # re-simulation (bit-identical to re-simulating — the
                    # accumulator reduction is batch-width independent).
                    known = {
                        pos: traces[i]
                        for pos, (_p, _pw, _fit, i) in enumerate(
                            scored[: cfg.elite]
                        )
                    }
                    k = 0
                    while len(nxt) < cfg.population:
                        pa, pb = self._rng.choice(
                            len(parents), size=2, replace=False
                        )
                        child = self._crossover(
                            parents[int(pa)],
                            parents[int(pb)],
                            name=f"ga_g{gen + 1}_i{k}",
                        )
                        nxt.append(self._mutate(child, child.name))
                        k += 1
                    population = nxt

            result = GaResult(
                individuals=all_individuals, generations=cfg.generations
            )
            if root:
                root.set(
                    n_individuals=len(all_individuals),
                    max_min_ratio=float(result.max_min_ratio),
                    best_power=float(result.best.power),
                    n_simulated=self.n_simulated - sim0,
                    n_cache_hits=self.n_cache_hits - hit0,
                    n_elite_reuses=self.n_elite_reuses - reuse0,
                )
        return result
