"""Resilience layer: fault injection, retries, atomic writes.

The pipeline survives interrupts without giving up its bit-exact
determinism contract, and without a store of its own: finished work
lives in :class:`~repro.parallel.EvalCache`.  The GA and the dataset
builds are pure functions of their configuration, so an interrupted one
resumes by being called again with its cache, and gets every finished
run back as a hit (across processes only with a disk tier).  The
layer itself has two pieces:

- :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection (:class:`FaultPlan` / :class:`FaultInjector`) so every
  recovery path is exercised by reproducible chaos tests and the
  ``apollo-repro chaos`` subcommand, not discovered in production.
- :mod:`repro.resilience.retry` — bounded deterministic-backoff
  retries (:class:`RetryPolicy`) and the shared ``ok -> degraded ->
  failed`` :class:`HealthState` machine used by the worker pool and
  stream session.

:mod:`repro.resilience.atomic` provides the single audited
write-tmp/fsync/rename implementation every artifact save goes through.
"""

from repro.resilience.atomic import (
    atomic_save_npz,
    atomic_write,
    atomic_write_bytes,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultySource,
    truncate_file,
)
from repro.resilience.retry import Health, HealthState, RetryPolicy

# chaos imports pipeline modules that themselves depend on the layers
# above, so it must come last.
from repro.resilience.chaos import (
    CHAOS_SITES,
    SERVE_CHAOS_SITES,
    ChaosReport,
    ServeChaosReport,
    run_chaos,
    run_chaos_serve,
)

__all__ = [
    "atomic_write",
    "atomic_write_bytes",
    "atomic_save_npz",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "FaultySource",
    "truncate_file",
    "RetryPolicy",
    "Health",
    "HealthState",
    "CHAOS_SITES",
    "SERVE_CHAOS_SITES",
    "ChaosReport",
    "ServeChaosReport",
    "run_chaos",
    "run_chaos_serve",
]
