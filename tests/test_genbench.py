"""Tests for GA benchmark generation and dataset assembly."""

import numpy as np
import pytest

from repro.design import build_core
from repro.errors import DatasetError
from repro.genbench import (
    BenchmarkEvolver,
    GaConfig,
    GaIndividual,
    PAPER_TEST_CYCLES,
    build_testing_dataset,
    build_training_dataset,
    select_uniform_power,
)
from repro.genbench import testing_suite as make_testing_suite
from repro.isa import Program, random_program
from repro.uarch import CoreParams


@pytest.fixture(scope="module")
def tiny_core():
    """A cut-down core to keep GA tests fast."""
    params = CoreParams(
        name="tiny",
        fetch_width=2,
        issue_width=2,
        retire_width=2,
        n_alu=1,
        n_mul=1,
        n_vec=1,
        vec_lanes=2,
        lsu_ports=1,
        iq_size=8,
        rob_size=16,
        bp_entries=16,
    )
    return build_core(params)


@pytest.fixture(scope="module")
def tiny_ga(tiny_core):
    cfg = GaConfig(population=6, generations=3, eval_cycles=80,
                   program_length=24)
    return BenchmarkEvolver(tiny_core, cfg).run()


def test_ga_config_validation():
    with pytest.raises(DatasetError):
        GaConfig(population=2)
    with pytest.raises(DatasetError):
        GaConfig(parent_frac=0.0)
    with pytest.raises(DatasetError):
        GaConfig(elite=16, population=8)
    with pytest.raises(DatasetError):
        GaConfig(program_length=1)  # crossover needs an interior cut
    with pytest.raises(DatasetError):
        GaConfig(elite=-1)
    with pytest.raises(DatasetError):
        GaConfig(mutation_rate=1.5)
    with pytest.raises(DatasetError):
        GaConfig(mutation_rate=-0.1)
    GaConfig(program_length=2, elite=0, mutation_rate=0.0)
    GaConfig(mutation_rate=1.0)


def test_ga_crossover_single_instruction_programs(tiny_core):
    """Length-1 parents can't crash crossover (rng.integers(1, 1))."""
    ev = BenchmarkEvolver(tiny_core, GaConfig(population=4))
    a4 = random_program(np.random.default_rng(0), 4, name="a4")
    b4 = random_program(np.random.default_rng(1), 4, name="b4")
    a = Program("a", a4.instructions[:1])
    b = Program("b", b4.instructions[:1])
    child = ev._crossover(a, b, "child")
    assert len(child) == 1
    assert child.instructions == a.instructions


def test_ga_runs_all_generations(tiny_ga):
    assert tiny_ga.generations == 3
    gens = {i.generation for i in tiny_ga.individuals}
    assert gens == {0, 1, 2}
    assert len(tiny_ga.individuals) == 18


def test_ga_power_positive_and_diverse(tiny_ga):
    lo, hi = tiny_ga.power_range
    assert lo > 0
    assert tiny_ga.max_min_ratio > 1.5


def test_ga_best_is_maximum(tiny_ga):
    assert tiny_ga.best.power == max(i.power for i in tiny_ga.individuals)


def test_ga_generation_stats_shape(tiny_ga):
    stats = tiny_ga.generation_stats()
    assert len(stats) == 3
    for gen, lo, mean, hi in stats:
        assert lo <= mean <= hi


def test_ga_scatter_points(tiny_ga):
    pts = tiny_ga.scatter_points()
    assert len(pts) == len(tiny_ga.individuals)


def test_measure_power_batch_matches_lengths(tiny_core):
    ev = BenchmarkEvolver(
        tiny_core, GaConfig(population=4, generations=2, eval_cycles=60)
    )
    progs = [
        random_program(np.random.default_rng(s), 20) for s in range(3)
    ]
    powers = ev.measure_power(progs)
    assert powers.shape == (3,)
    assert np.all(powers > 0)
    assert ev.measure_power([]).shape == (0,)


# --------------------------------------------------------------------- #
# handcrafted suite
# --------------------------------------------------------------------- #
def test_testing_suite_matches_table4():
    suite = make_testing_suite(1.0)
    assert [b.name for b in suite] == list(PAPER_TEST_CYCLES)
    for b in suite:
        assert b.cycles == PAPER_TEST_CYCLES[b.name]
    throttled = [b for b in suite if b.throttle is not None]
    assert {b.name for b in throttled} == {
        "throttling_1", "throttling_2", "throttling_3"
    }


def test_testing_suite_scaling_and_floor():
    suite = make_testing_suite(0.1)
    for b in suite:
        assert b.cycles >= 60
    with pytest.raises(DatasetError):
        make_testing_suite(0.0)


def test_icache_miss_program_is_long():
    suite = {b.name: b for b in make_testing_suite()}
    assert len(suite["icache_miss"].program) > 256  # exceeds L1I capacity


# --------------------------------------------------------------------- #
# uniform power selection
# --------------------------------------------------------------------- #
def _fake_individuals(powers):
    rng = np.random.default_rng(0)
    return [
        GaIndividual(
            program=random_program(rng, 8, name=f"p{k}"),
            power=float(p),
            generation=0,
        )
        for k, p in enumerate(powers)
    ]


def test_select_uniform_power_covers_range():
    # 90 low-power and 10 spread high-power individuals
    powers = [1.0 + 0.001 * k for k in range(90)] + [
        5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0
    ]
    chosen = select_uniform_power(_fake_individuals(powers), count=20)
    got = [i.power for i in chosen]
    assert len(got) == 20
    # high-power bins must be represented despite being rare
    assert sum(1 for p in got if p >= 5.0) >= 8


def test_select_uniform_power_degenerate_cases():
    with pytest.raises(DatasetError):
        select_uniform_power([], 5)
    same = _fake_individuals([3.0] * 10)
    assert len(select_uniform_power(same, 4)) == 4
    few = _fake_individuals([1.0, 2.0])
    assert len(select_uniform_power(few, 10)) == 2


# --------------------------------------------------------------------- #
# dataset assembly
# --------------------------------------------------------------------- #
def test_training_dataset_build(tiny_core, tiny_ga):
    ds = build_training_dataset(
        tiny_core, tiny_ga, target_cycles=400, replay_cycles=100
    )
    assert ds.n_cycles == 400
    assert ds.labels.shape == (400,)
    assert np.all(ds.labels > 0)
    assert len(ds.segments) == 4
    X = ds.features(ds.candidate_ids[:10])
    assert X.shape == (400, 10)


def test_testing_dataset_build_and_segments(tiny_core):
    ds = build_testing_dataset(tiny_core, cycle_scale=0.15)
    assert len(ds.segments) == 12
    start, end = ds.segment("maxpwr_cpu")
    assert end > start

    def steady(name):
        """Mean power over the second half of a segment (past the
        cold-start ramp, which dominates very short traces)."""
        s, e = ds.segment(name)
        return ds.labels[(s + e) // 2 : e].mean()

    assert steady("maxpwr_cpu") > steady("dcache_miss")
    with pytest.raises(DatasetError):
        ds.segment("nope")


def test_dataset_split(tiny_core, tiny_ga):
    ds = build_training_dataset(
        tiny_core, tiny_ga, target_cycles=300, replay_cycles=100
    )
    tr, va = ds.split(0.2, seed=1)
    assert len(tr) + len(va) == 300
    assert len(np.intersect1d(tr, va)) == 0
    with pytest.raises(DatasetError):
        ds.split(1.5)


def test_dataset_save_load_roundtrip(tiny_core, tiny_ga, tmp_path):
    from repro.genbench import PowerDataset

    ds = build_training_dataset(
        tiny_core, tiny_ga, target_cycles=200, replay_cycles=100
    )
    path = tmp_path / "ds.npz"
    ds.save(path)
    loaded = PowerDataset.load(path)
    np.testing.assert_allclose(loaded.labels, ds.labels)
    assert loaded.segments == ds.segments
    np.testing.assert_array_equal(
        loaded.features(ds.candidate_ids[:5]),
        ds.features(ds.candidate_ids[:5]),
    )


# --------------------------------------------------------------------- #
# dataset artifacts: checked where they are loaded
# --------------------------------------------------------------------- #
def _small_dataset(n_nets=20, cycles=16):
    from repro.genbench import PowerDataset
    from repro.rtl.trace import ToggleTrace

    rng = np.random.default_rng(4)
    dense = rng.integers(0, 2, size=(1, cycles, n_nets), dtype=np.uint8)
    return PowerDataset(
        trace=ToggleTrace.from_dense(dense),
        labels=rng.uniform(1.0, 2.0, size=cycles),
        candidate_ids=np.arange(2, n_nets, dtype=np.int64),
        segments=[("a", 0, 8), ("b", 8, cycles)],
    )


def _dataset_fields(ds) -> dict:
    return {
        "packed": ds.trace.packed,
        "n_nets": np.int64(ds.trace.n_nets),
        "labels": ds.labels,
        "candidate_ids": ds.candidate_ids,
        "seg_names": np.array([s[0] for s in ds.segments]),
        "seg_bounds": np.array([[s[1], s[2]] for s in ds.segments]),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_labels(bad):
    from repro.genbench import PowerDataset

    ds = _small_dataset()
    labels = ds.labels.copy()
    labels[3] = bad
    with pytest.raises(DatasetError, match="finite"):
        PowerDataset(
            trace=ds.trace, labels=labels, candidate_ids=ds.candidate_ids
        )


def test_torn_dataset_archive_raises_dataset_error(tmp_path):
    from repro.genbench import PowerDataset
    from repro.resilience.faults import truncate_file

    path = tmp_path / "ds.npz"
    _small_dataset().save(path)
    whole = path.read_bytes()
    for keep in np.linspace(0.0, 0.999, 64):
        path.write_bytes(whole)
        truncate_file(path, keep)
        with pytest.raises(DatasetError):
            PowerDataset.load(path)


def test_saved_dataset_fields_load(tmp_path):
    from repro.genbench import PowerDataset

    ds = _small_dataset()
    path = tmp_path / "ds.npz"
    np.savez(path, **_dataset_fields(ds))
    loaded = PowerDataset.load(path)
    assert loaded.segments == ds.segments
    np.testing.assert_array_equal(loaded.trace.packed, ds.trace.packed)
    np.testing.assert_array_equal(loaded.candidate_ids, ds.candidate_ids)


#: One foreign or corrupt field set per case, from the good fields.
_BAD_DATASET_FIELDS = {
    "missing key": lambda f: {k: v for k, v in f.items() if k != "labels"},
    "pickled member": lambda f: {**f, "seg_names": np.array([{}, {}])},
    "2-D trace": lambda f: {**f, "packed": f["packed"][0]},
    "uint16 trace": lambda f: {**f, "packed": f["packed"].astype(np.uint16)},
    "trace width": lambda f: {**f, "n_nets": np.int64(200)},
    "array n_nets": lambda f: {**f, "n_nets": np.arange(3)},
    "short labels": lambda f: {**f, "labels": f["labels"][:-1]},
    "NaN labels": lambda f: {**f, "labels": f["labels"] * np.nan},
    "2-D candidates": lambda f: {**f, "candidate_ids": np.ones((2, 2), int)},
    "float candidates": lambda f: {**f, "candidate_ids": np.ones(3)},
    "candidate range": lambda f: {**f, "candidate_ids": np.arange(40)},
    "segment bounds": lambda f: {**f, "seg_bounds": np.ones((2, 3), int)},
}


@pytest.mark.parametrize("case", sorted(_BAD_DATASET_FIELDS))
def test_foreign_dataset_archive_raises_dataset_error(tmp_path, case):
    from repro.genbench import PowerDataset

    path = tmp_path / "ds.npz"
    fields = _dataset_fields(_small_dataset())
    np.savez(path, **_BAD_DATASET_FIELDS[case](fields))
    with pytest.raises(DatasetError):
        PowerDataset.load(path)


def test_unreadable_dataset_file(tmp_path):
    from repro.genbench import PowerDataset

    path = tmp_path / "ds.npz"
    path.write_bytes(b"not an archive")
    with pytest.raises(DatasetError):
        PowerDataset.load(path)
    # A missing file is an I/O error, not a bad artifact.
    with pytest.raises(FileNotFoundError):
        PowerDataset.load(tmp_path / "missing.npz")
