"""Parallel execution layer + content-addressed evaluation cache.

The training pipeline's hot paths — GA fitness evaluation, dataset
collection, hyper-parameter grids, experiment fan-out — all reduce to
"map a deterministic task over items".  :class:`WorkerPool` runs that
map across processes with an order-preserving reduce and a serial
fallback; :class:`EvalCache` memoizes per-program simulation results by
content hash so repeated evaluations (GA elites, shared workloads,
tuning folds) are simulated once.

Determinism guarantee: with fixed seeds, any worker count, and any
cache state, results are bit-identical to the single-process serial
path on every simulation engine.  This rests on the simulator's
batch-width-independent accumulator reduction (see
``repro.rtl.backends.base.acc_reduce``) and on lane purity, which is
also what lets :func:`repro.parallel.sharding.run_sharded` split one
large simulation's batch across workers without changing a bit.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    EvalCache,
    array_fingerprint,
    make_key,
    program_fingerprint,
    throttle_fingerprint,
)
from repro.parallel.pool import WorkerPool, default_workers
from repro.parallel.sharding import lane_shards, run_sharded
from repro.parallel.shm import (
    ShmArena,
    ShmDataPlane,
    ShmError,
    ShmRef,
    attach_view,
)
from repro.parallel.tasks import CoreState, seed_state, state_key_for

__all__ = [
    "WorkerPool",
    "EvalCache",
    "CoreState",
    "default_workers",
    "ShmArena",
    "ShmDataPlane",
    "ShmError",
    "ShmRef",
    "attach_view",
    "lane_shards",
    "run_sharded",
    "seed_state",
    "state_key_for",
    "make_key",
    "CACHE_SCHEMA",
    "array_fingerprint",
    "program_fingerprint",
    "throttle_fingerprint",
]
