"""The public API surface: everything advertised exists and is importable."""

import importlib

import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


@pytest.mark.parametrize(
    "module",
    [
        "repro.rtl",
        "repro.rtl.datapath",
        "repro.rtl.optimize",
        "repro.rtl.reference",
        "repro.rtl.vcd",
        "repro.rtl.verilog",
        "repro.power",
        "repro.power.thermal",
        "repro.isa",
        "repro.uarch",
        "repro.design",
        "repro.genbench",
        "repro.genbench.workloads",
        "repro.core",
        "repro.core.tuning",
        "repro.core.interpret",
        "repro.baselines",
        "repro.opm",
        "repro.flow",
        "repro.flow.multicore",
        "repro.experiments",
        "repro.parallel",
        "repro.parallel.pool",
        "repro.parallel.cache",
        "repro.parallel.tasks",
        "repro.obs",
        "repro.obs.trace",
        "repro.obs.metrics",
        "repro.obs.provenance",
        "repro.resilience",
        "repro.resilience.atomic",
        "repro.resilience.checkpoint",
        "repro.resilience.faults",
        "repro.resilience.retry",
        "repro.resilience.chaos",
        "repro.cli",
    ],
)
def test_module_all_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name} missing"


@pytest.mark.parametrize(
    "module",
    [
        "repro.rtl", "repro.power", "repro.isa", "repro.uarch",
        "repro.design", "repro.genbench", "repro.core",
        "repro.baselines", "repro.opm", "repro.flow",
        "repro.experiments", "repro.obs", "repro.parallel",
        "repro.resilience",
    ],
)
def test_packages_have_docstrings(module):
    mod = importlib.import_module(module)
    assert mod.__doc__ and len(mod.__doc__.strip()) > 40


def test_quickstart_snippet_names_exist():
    """The README snippet's imports must stay valid."""
    from repro.design import build_core  # noqa: F401
    from repro.uarch import N1_LIKE  # noqa: F401
    from repro.genbench import (  # noqa: F401
        BenchmarkEvolver,
        GaConfig,
        build_testing_dataset,
        build_training_dataset,
    )
    from repro.core import train_apollo, r2_score  # noqa: F401
