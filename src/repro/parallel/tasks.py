"""Per-process worker state and the module-level task functions.

Process pools can only ship *picklable* callables, and a core's
compiled :class:`~repro.rtl.simulator.Simulator`, label weights and
:class:`~repro.uarch.pipeline.Pipeline` are too expensive to rebuild
per task or per caller — so every process keeps them in one
module-global registry, each built at most once and keyed by exactly
what it derives from:

* :func:`simulator_for` — ``("simulator", netlist fingerprint, engine)``;
* :func:`label_weights_for` — ``("label_weights", netlist fingerprint)``;
* :func:`pipeline_for` — ``("pipeline", params)``.

Library code gets these objects only through those three functions,
so the GA, dataset builds, lane shards and the design-time, emulator,
multicore and streaming flows of one process share them.  Entries live
for the process.  A forked pool worker inherits the parent's registry
and the pool initializer (:func:`core_state`) only adds what is
missing, so forked workers reuse what the parent already built and
spawned ones build on first use.  The serial path (and the degraded
fallback) runs the identical task functions against the parent's
objects: one code path, two execution modes, bit-identical results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParallelError

__all__ = [
    "CoreState",
    "core_state",
    "seed_state",
    "drop_state",
    "get_state",
    "state_setdefault",
    "simulator_for",
    "label_weights_for",
    "pipeline_for",
    "state_key_for",
    "eval_power_shard",
    "simulate_group",
    "simulate_lane_shard",
]

#: key -> arbitrary per-process state (survives for the process's life).
_STATE: dict = {}


def seed_state(key, value) -> None:
    """Register state in *this* process (also usable as a pool
    initializer that installs an already-built, pickled value)."""
    _STATE[key] = value


def drop_state(key) -> None:
    """Remove state (parent-side cleanup after a map)."""
    _STATE.pop(key, None)


def get_state(key):
    """Fetch state registered by an initializer or :func:`seed_state`."""
    try:
        return _STATE[key]
    except KeyError:
        raise ParallelError(
            f"no worker state under key {key!r}; the pool initializer "
            "and the task disagree, or the parent never registered it"
        ) from None


def state_setdefault(key, factory):
    """Get state under ``key``, building it with ``factory()`` on miss.

    First caller in a process pays the build, every later one reuses
    it — identically on the serial path, where "the process" is the
    parent.
    """
    st = _STATE.get(key)
    if st is None:
        st = _STATE[key] = factory()
    return st


def simulator_for(netlist, engine: str = "packed"):
    """This process's compiled simulator for ``netlist`` on ``engine``."""
    from repro.rtl.simulator import Simulator

    return state_setdefault(
        ("simulator", netlist.fingerprint(), engine),
        lambda: Simulator(netlist, engine=engine),
    )


def label_weights_for(netlist) -> np.ndarray:
    """This process's per-net label-power weights for ``netlist``.

    Read-only: every caller in the process shares the one array.
    """
    from repro.power.analyzer import PowerAnalyzer

    def build() -> np.ndarray:
        weights = PowerAnalyzer(netlist).label_weights()
        weights.setflags(write=False)
        return weights

    return state_setdefault(("label_weights", netlist.fingerprint()), build)


def pipeline_for(params):
    """This process's pipeline model for ``params``."""
    from repro.uarch.pipeline import Pipeline

    return state_setdefault(("pipeline", params), lambda: Pipeline(params))


class CoreState:
    """One core design's simulation objects, as seen by task functions.

    A view over ``(core, engine)``: its simulator, pipeline and label
    weights come from the per-process registry, so every view of the
    same design shares them with each other and with every flow.
    """

    def __init__(self, core, engine: str) -> None:
        self.core = core
        self.engine = engine

    @property
    def simulator(self):
        return simulator_for(self.core.netlist, self.engine)

    @property
    def pipeline(self):
        return pipeline_for(self.core.params)

    @property
    def label_weights(self) -> np.ndarray:
        return label_weights_for(self.core.netlist)


def state_key_for(core, engine: str) -> tuple:
    """Registry key of a (core, engine) :class:`CoreState`.

    Both the netlist content and the params: cores that differ only in
    pipeline params (a throttle scheme) share one netlist fingerprint.
    """
    return ("core", core.netlist.fingerprint(), core.params, engine)


def core_state(core, engine: str) -> CoreState:
    """This process's :class:`CoreState` under :func:`state_key_for`.

    Also the pool initializer of core tasks: a forked worker keeps the
    view (and the objects) it inherited, a spawned one registers it.
    """
    return state_setdefault(
        state_key_for(core, engine), lambda: CoreState(core, engine)
    )


# ---------------------------------------------------------------------- #
# task functions (module-level: picklable)
# ---------------------------------------------------------------------- #
def eval_power_shard(args) -> np.ndarray:
    """GA fitness shard: per-cycle label power of a program batch.

    ``args = (state_key, cycles, programs)``; returns ``(B, cycles)``
    float64.  Bit-identical for any sharding of the same programs (the
    simulator's accumulator reduction is batch-width independent).
    """
    key, cycles, programs = args
    st = get_state(key)
    from repro.rtl.simulator import RecordSpec

    pipeline = st.pipeline
    stims = [
        st.core.stimulus_for(pipeline.run(prog, cycles)[0])
        for prog in programs
    ]
    res = st.simulator.run(
        np.stack(stims),
        RecordSpec(accumulators={"label": st.label_weights}),
    )
    return res.accum["label"]


def simulate_lane_shard(args):
    """Lane shard: simulate one contiguous batch slice of a larger run.

    ``args = (netlist, engine, stim, record, init_values)``; returns the
    shard's :class:`~repro.rtl.simulator.SimResult`.  ``netlist`` rides
    along so no initializer is required: the process's simulator for it
    is built on first use (or inherited, or already the parent's own on
    the serial path).

    Bit-identity for any shard plan rests on the engines' lane purity:
    every recorded artifact of lane ``b`` is a pure function of stimulus
    lane ``b``, so concatenating shard results along the batch axis
    reproduces the monolithic run exactly.
    """
    netlist, engine, stim, record, init_values = args
    return simulator_for(netlist, engine).run(
        stim, record, init_values=init_values
    )


def simulate_group(args) -> list[dict[str, np.ndarray]]:
    """Dataset group: full traces + labels for a (throttled) batch.

    ``args = (state_key, cycles, throttle, programs)``; returns one
    ``{"packed": (cycles, words) uint8, "label": (cycles,) float64}``
    dict per program — the exact payload an :class:`EvalCache` entry
    stores.
    """
    key, cycles, throttle, programs = args
    st = get_state(key)
    from repro.rtl.simulator import RecordSpec

    pipeline = pipeline_for(st.core.params.with_throttle(throttle))
    stims = [
        st.core.stimulus_for(pipeline.run(prog, cycles)[0])
        for prog in programs
    ]
    res = st.simulator.run(
        np.stack(stims),
        RecordSpec(
            full_trace=True,
            accumulators={"label": st.label_weights},
        ),
    )
    return [
        {
            "packed": res.trace.packed[k],
            "label": res.accum["label"][k],
        }
        for k in range(len(programs))
    ]
