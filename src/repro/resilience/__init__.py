"""Resilience layer: checkpoint/resume, fault injection, retries.

Three cooperating pieces make the pipeline survivable without giving up
its bit-exact determinism contract:

- :mod:`repro.resilience.checkpoint` — schema-versioned, hash-verified
  checkpoints (:class:`CheckpointStore`) that let the GA resume an
  interrupted run *bit-identically* to an uninterrupted one.  The GA's
  population, RNG state and elite traces are state, not content; the
  finished runs of a dataset build are content, so an interrupted build
  resumes from :class:`~repro.parallel.EvalCache` instead (across
  processes only with a disk tier).
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
from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    Checkpoint,
    CheckpointStore,
    programs_from_arrays,
    programs_to_arrays,
    restore_rng_state,
    rng_state_meta,
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
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "rng_state_meta",
    "restore_rng_state",
    "programs_to_arrays",
    "programs_from_arrays",
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
