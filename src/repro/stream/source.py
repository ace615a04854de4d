"""Chunked proxy-toggle sources for the streaming pipeline.

A *source* is any iterable of :class:`ProxyBlock` — fixed-size chunks of
the Q proxy columns, in cycle order, with an explicit ``last`` marker.
The two built-in adapters cover the repo's existing producers:

* :class:`SimulatorSource` drives the gate-level :class:`Simulator` in
  proxy-capture mode chunk by chunk, carrying the register state between
  chunks via ``init_values`` / ``final_values`` — so the concatenation of
  its blocks is bit-identical to one whole-trace run, on either engine;
* :class:`TraceSource` replays a pre-recorded :class:`ToggleTrace`
  (an emulator dump), unpacking only the selected columns of one chunk
  at a time.

Neither source ever materializes the full all-nets toggle trace: peak
memory is one chunk of Q columns (plus the simulator's value vectors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import StreamError
from repro.obs.trace import NULL_TRACER
from repro.parallel.tasks import pipeline_for, simulator_for
from repro.rtl.simulator import RecordSpec, Simulator
from repro.rtl.trace import ToggleTrace

__all__ = ["ProxyBlock", "SimulatorSource", "TraceSource"]


@dataclass(frozen=True)
class ProxyBlock:
    """One chunk of proxy toggles: ``(n_cycles, Q)`` uint8."""

    start_cycle: int
    toggles: np.ndarray
    last: bool = False

    @property
    def n_cycles(self) -> int:
        return int(self.toggles.shape[0])


def _check_chunk(chunk_cycles: int) -> None:
    if chunk_cycles < 1:
        raise StreamError(f"chunk_cycles must be >= 1, got {chunk_cycles}")


class SimulatorSource:
    """Chunked gate-level simulation of one workload's proxy columns.

    Parameters
    ----------
    netlist:
        Design to simulate.
    proxies:
        Net ids of the Q proxy columns to capture.
    stimulus:
        uint8 array of shape ``(cycles, n_inputs)``.
    chunk_cycles:
        Cycles per emitted block (the final block may be shorter).
    engine:
        Simulator engine; any name in
        :data:`repro.rtl.simulator.ENGINES` (``"packed"``, the default,
        or the ``"uint8"`` reference).
    simulator:
        A compiled :class:`Simulator` to run instead of the process's
        shared one for ``(netlist, engine)``
        (:func:`repro.parallel.tasks.simulator_for`), which every
        source of the same design already shares by default.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`: each emitted chunk
        becomes a ``stream.chunk`` span (start cycle, cycles).
    """

    def __init__(
        self,
        netlist,
        proxies: np.ndarray,
        stimulus: np.ndarray,
        chunk_cycles: int = 256,
        engine: str = "packed",
        simulator: Simulator | None = None,
        tracer=None,
    ) -> None:
        _check_chunk(chunk_cycles)
        stim = np.asarray(stimulus, dtype=np.uint8)
        if stim.ndim != 2:
            raise StreamError(
                f"stimulus must be (cycles, n_inputs), got {stim.shape}"
            )
        if stim.shape[0] == 0:
            raise StreamError("stimulus must cover at least one cycle")
        self.proxies = np.asarray(proxies, dtype=np.int64)
        self.stimulus = stim
        self.chunk_cycles = int(chunk_cycles)
        self.sim = simulator or simulator_for(netlist, engine)
        self.record = RecordSpec(columns=self.proxies)
        self.tracer = tracer or NULL_TRACER

    @classmethod
    def from_program(
        cls,
        core,
        proxies: np.ndarray,
        program,
        cycles: int,
        chunk_cycles: int = 256,
        engine: str = "packed",
        simulator: Simulator | None = None,
        tracer=None,
    ) -> "SimulatorSource":
        """Build the stimulus from a pipeline-model workload run.

        Mirrors :class:`~repro.flow.multicore.MulticoreSimulator`'s
        per-core path: pipeline activity -> design stimulus.
        """
        if cycles <= 0:
            raise StreamError("cycles must be positive")
        activity, _stats = pipeline_for(core.params).run(program, cycles)
        return cls(
            core.netlist,
            proxies,
            core.stimulus_for(activity),
            chunk_cycles=chunk_cycles,
            engine=engine,
            simulator=simulator,
            tracer=tracer,
        )

    @property
    def n_cycles(self) -> int:
        return int(self.stimulus.shape[0])

    def __iter__(self):
        state = None
        n = self.n_cycles
        for start in range(0, n, self.chunk_cycles):
            stop = min(start + self.chunk_cycles, n)
            with self.tracer.span(
                "stream.chunk", start_cycle=start, n_cycles=stop - start
            ):
                res = self.sim.run(
                    self.stimulus[start:stop],
                    self.record,
                    init_values=state,
                )
            state = res.final_values
            yield ProxyBlock(
                start_cycle=start,
                toggles=res.columns[0],
                last=stop == n,
            )


class TraceSource:
    """Replay the proxy columns of a pre-recorded toggle trace."""

    def __init__(
        self,
        trace: ToggleTrace,
        proxies: np.ndarray,
        chunk_cycles: int = 256,
        batch_index: int = 0,
    ) -> None:
        _check_chunk(chunk_cycles)
        if trace.n_cycles == 0:
            raise StreamError("trace has no cycles to stream")
        self.trace = trace
        self.proxies = np.asarray(proxies, dtype=np.int64)
        self.chunk_cycles = int(chunk_cycles)
        self.batch_index = int(batch_index)

    @property
    def n_cycles(self) -> int:
        return self.trace.n_cycles

    def __iter__(self):
        n = self.trace.n_cycles
        it = self.trace.iter_chunks(
            self.chunk_cycles, cols=self.proxies,
            batch_index=self.batch_index,
        )
        for start, block in it:
            yield ProxyBlock(
                start_cycle=start,
                toggles=block,
                last=start + block.shape[0] == n,
            )
