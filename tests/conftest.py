"""Shared fixtures: a small core with a trained APOLLO model, and the
``engine`` fixture that runs a test on each simulator code path.

Building a core, generating training data, and fitting a model is the
expensive common setup for flow/experiment tests; it happens once per
session here at a deliberately small scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ProxySelector, train_apollo
from repro.design import build_core
from repro.genbench import (
    BenchmarkEvolver,
    GaConfig,
    build_testing_dataset,
    build_training_dataset,
)
from repro.parallel import tasks
from repro.rtl.backends import cc
from repro.uarch import CoreParams


@pytest.fixture
def engine(request, monkeypatch) -> str:
    """Engine name for one of ``helpers.SIM_PATHS`` (indirect param),
    with the packed engine's kernel state set to match.

    The test also gets an empty per-process state, so it neither reuses
    a simulator compiled under another kernel state nor leaves its own
    behind for later tests."""
    monkeypatch.setattr(tasks, "_STATE", {})
    path = request.param
    if path == "packed":
        monkeypatch.setattr(cc, "load_kernel", lambda: None)
    elif path == "compiled":
        if cc.load_kernel() is None:
            pytest.skip("no C kernel loads on this host")
        return "packed"
    return path


@pytest.fixture(scope="session")
def small_core():
    params = CoreParams(
        name="small-shared",
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
    return build_core(params)


@pytest.fixture(scope="session")
def small_ga(small_core):
    cfg = GaConfig(
        population=8, generations=4, eval_cycles=150, program_length=32
    )
    return BenchmarkEvolver(small_core, cfg).run()


@pytest.fixture(scope="session")
def small_train(small_core, small_ga):
    return build_training_dataset(
        small_core, small_ga, target_cycles=1500, replay_cycles=150
    )


@pytest.fixture(scope="session")
def small_test(small_core):
    return build_testing_dataset(small_core, cycle_scale=0.12)


@pytest.fixture(scope="session")
def small_model(small_core, small_train):
    X = small_train.features()
    return train_apollo(
        X,
        small_train.labels,
        q=30,
        candidate_ids=small_train.candidate_ids,
        selector=ProxySelector(screen_width=500),
    )
