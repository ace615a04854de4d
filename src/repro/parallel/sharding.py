"""Lane-sharding: spread one large simulation across pool workers.

One batched simulation with hundreds of stimulus lanes is a single
serial cycle loop — even the packed engine processes its 64-lane words
one micro-op at a time in one process.  :func:`run_sharded` splits the
*batch axis* into contiguous shards on 64-lane word boundaries, maps
them over a :class:`~repro.parallel.pool.WorkerPool`, and concatenates
the shard results back into one :class:`~repro.rtl.simulator.SimResult`.

Bit-identity is inherited, not hoped for: every engine's recorded
artifacts are lane-pure (lane ``b`` depends only on stimulus lane
``b``; the accumulator reduction is batch-width independent by the
:func:`~repro.rtl.backends.base.acc_reduce` contract), so any shard
plan — including the serial one-shard plan — produces the exact bytes
of the monolithic run.  The shard plan therefore only affects load
balance, never results.
"""

from __future__ import annotations

import numpy as np

from repro.rtl.simulator import RecordSpec, SimResult
from repro.rtl.trace import ToggleTrace
from repro.parallel.pool import WorkerPool
from repro.parallel.tasks import simulate_lane_shard

__all__ = ["lane_shards", "run_sharded"]


def lane_shards(batch: int, workers: int) -> list[slice]:
    """Contiguous batch slices aligned to 64-lane word boundaries.

    At most ``workers`` shards; a batch spanning fewer than two lane
    words is never split (there is nothing to parallelize below word
    granularity for the packed engines).
    """
    words = (batch + 63) // 64
    n = max(1, min(workers, words))
    if n <= 1:
        return [slice(0, batch)]
    bounds = [min(round(k * words / n) * 64, batch) for k in range(n + 1)]
    bounds[-1] = batch
    return [
        slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]


def run_sharded(
    netlist,
    stimulus: np.ndarray,
    record: RecordSpec,
    pool: WorkerPool,
    engine: str = "packed",
    init_values: np.ndarray | None = None,
) -> SimResult:
    """Simulate ``stimulus`` with its batch sharded across ``pool``.

    Parameters mirror :meth:`repro.rtl.simulator.Simulator.run`.  Every
    shard runs on its process's shared simulator for ``netlist``
    (:func:`repro.parallel.tasks.simulator_for`): the serial path uses
    the parent's, and a forked worker inherits one the parent had
    already built.  Returns a merged :class:`SimResult` bit-identical
    to the monolithic run on any worker count.
    """
    stim = np.asarray(stimulus, dtype=np.uint8)
    if stim.ndim == 2:
        stim = stim[None]
    batch = stim.shape[0]
    shards = lane_shards(batch, pool.workers) if pool.parallel else [
        slice(0, batch)
    ]
    tasks = [
        (
            netlist, engine, stim[sl], record,
            None if init_values is None else init_values[:, sl],
        )
        for sl in shards
    ]
    parts = pool.map(simulate_lane_shard, tasks, label="lane-shard")
    if len(parts) == 1:
        return parts[0]
    trace = None
    if parts[0].trace is not None:
        trace = ToggleTrace(
            packed=np.concatenate([p.trace.packed for p in parts], axis=0),
            n_nets=parts[0].trace.n_nets,
        )
    columns = None
    if parts[0].columns is not None:
        columns = np.concatenate([p.columns for p in parts], axis=0)
    accum = {
        name: np.concatenate([p.accum[name] for p in parts], axis=0)
        for name in parts[0].accum
    }
    final_values = None
    if parts[0].final_values is not None:
        final_values = np.concatenate(
            [p.final_values for p in parts], axis=1
        )
    return SimResult(
        n_cycles=parts[0].n_cycles,
        batch=batch,
        trace=trace,
        columns=columns,
        accum=accum,
        elapsed=sum(p.elapsed for p in parts),
        final_values=final_values,
    )
