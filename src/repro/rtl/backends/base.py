"""Backend interface and registry for the cycle-accurate simulator.

A :class:`Backend` owns the two halves of a simulation engine:

* a *compile* step, run once per netlist in the constructor (levelized
  schedules, packed layouts, op tables — whatever the engine needs);
* the *hot loop* :meth:`Backend.run`, called per stimulus batch with
  preallocated output buffers.

Backends register themselves with :func:`register_backend`;
:data:`repro.rtl.simulator.ENGINES` is derived from the registry, so a
new engine becomes visible to the ``engine=`` flag everywhere
(``Simulator``, CLI, flows, workers) by virtue of registering.

The hard contract shared by every backend is *bit-identity*: all
recorded artifacts — packed traces, column bits, accumulator floats,
final values — must equal the uint8 reference engine's, bit for bit.
:func:`acc_reduce` is the canonical accumulator reduction every backend
must reproduce exactly.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.rtl.cells import Op
from repro.rtl.levelize import LevelSchedule
from repro.rtl.netlist import NO_NET, Netlist

__all__ = [
    "Backend",
    "acc_reduce",
    "backend_names",
    "eval_comb",
    "get_backend",
    "initial_values",
    "register_backend",
]

WORD_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def acc_reduce(w64: np.ndarray, toggles: np.ndarray) -> np.ndarray:
    """Weighted per-lane toggle sum, independent of the batch width.

    For two or more lanes, ``sum(axis=0)`` over the C-contiguous
    ``(n_nets, batch)`` product reduces along a *strided* axis, which
    NumPy implements as plain sequential accumulation in net-id order —
    so lane ``b`` of the result is a pure function of ``toggles[:, b]``
    and never of how many other lanes share the call.  That is what
    makes sharded, cached, and elite-reusing evaluation paths
    (:mod:`repro.parallel`) bit-identical to one monolithic batched
    call.  A float32 BLAS GEMV (``w @ toggles``) lacks this property:
    its reduction order changes with the batch width.

    The one-lane case needs care: a ``(n, 1)`` product column is
    contiguous, which flips NumPy onto its *pairwise* reduction kernel
    and (for ``n > 8``) a different summation order than every other
    width — a real contract violation observed as last-ulp divergence
    between ``batch=1`` runs and the same lane inside a wider batch.
    Padding the product with a zero column forces the strided
    sequential kernel for every width.
    """
    prod = w64[:, None] * toggles
    if prod.shape[1] == 1:
        padded = np.zeros((prod.shape[0], 2), dtype=prod.dtype)
        padded[:, :1] = prod
        return padded.sum(axis=0)[:1]
    return prod.sum(axis=0)


def eval_comb(schedule: LevelSchedule, vals: np.ndarray) -> None:
    """Evaluate combinational groups of ``schedule`` in place on uint8
    values of shape ``(n_nets, batch)``."""
    for g in schedule.groups:
        a = vals[g.a]
        op = g.op
        if op == Op.BUF:
            vals[g.out] = a
        elif op == Op.NOT:
            vals[g.out] = a ^ 1
        elif op == Op.AND:
            vals[g.out] = a & vals[g.b]
        elif op == Op.OR:
            vals[g.out] = a | vals[g.b]
        elif op == Op.XOR:
            vals[g.out] = a ^ vals[g.b]
        elif op == Op.NAND:
            vals[g.out] = (a & vals[g.b]) ^ 1
        elif op == Op.NOR:
            vals[g.out] = (a | vals[g.b]) ^ 1
        elif op == Op.XNOR:
            vals[g.out] = (a ^ vals[g.b]) ^ 1
        elif op == Op.MUX:
            s = a
            vals[g.out] = (s & vals[g.b]) | ((s ^ 1) & vals[g.c])
        else:  # pragma: no cover - schedule only contains EVAL_OPS
            raise SimulationError(f"unexpected op {op!r} in schedule")


def initial_values(schedule: LevelSchedule, batch: int) -> np.ndarray:
    """State after reset: registers at init, everything else evaluated
    with all-zero inputs."""
    vals = np.zeros((schedule.n_nets, batch), dtype=np.uint8)
    if schedule.const_ids.size:
        vals[schedule.const_ids] = schedule.const_vals[:, None]
    if schedule.reg_out.size:
        vals[schedule.reg_out] = schedule.reg_init[:, None]
    eval_comb(schedule, vals)
    # CLK values at reset: enabled domains show their enable, always-on
    # domains show 1.
    for k in range(schedule.clk_out.size):
        en = schedule.clk_en[k]
        vals[schedule.clk_out[k]] = 1 if en == NO_NET else vals[en]
    return vals


class Backend:
    """One simulation engine: compile step plus the per-run hot loop.

    Subclasses set :attr:`name`, register with :func:`register_backend`,
    do their compile work in ``__init__``, and implement :meth:`run`.
    """

    #: Registry key; also the public ``engine=`` flag value.
    name: str = ""
    #: Engines that reinterpret lane words need a little-endian host;
    #: the simulator falls back to ``"uint8"`` otherwise.
    requires_little_endian: bool = False

    def __init__(self, netlist: Netlist, schedule: LevelSchedule) -> None:
        self.netlist = netlist
        self.schedule = schedule
        #: Set by packed-layout backends; ``None`` for byte-wise ones.
        self.packed_schedule = None
        self._reset: np.ndarray | None = None

    def initial_values(self, batch: int) -> np.ndarray:
        """:func:`initial_values` for ``batch`` lanes, as a fresh array.

        Every lane of the reset state is the same, so one lane is
        evaluated on first use (not at compile time) and repeated.
        """
        if self._reset is None:
            self._reset = initial_values(self.schedule, 1)
        return np.repeat(self._reset, batch, axis=1)

    def run(
        self,
        stim: np.ndarray,
        cols: np.ndarray | None,
        acc_weights: dict[str, np.ndarray],
        packed_out: np.ndarray | None,
        cols_out: np.ndarray | None,
        acc_out: dict[str, np.ndarray],
        init_values: np.ndarray | None,
    ) -> np.ndarray:
        """Simulate ``stim`` (batch, cycles, n_in), filling the provided
        output buffers; returns the final value vector (n_nets, batch)."""
        raise NotImplementedError


_REGISTRY: dict[str, type[Backend]] = {}


def register_backend(cls: type[Backend]) -> type[Backend]:
    """Class decorator: make ``cls`` selectable via its :attr:`name`."""
    if not cls.name:  # pragma: no cover - developer error
        raise ValueError(f"backend {cls!r} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> tuple[str, ...]:
    """Registered engine names, in registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> type[Backend]:
    """Look up a backend class; raise :class:`SimulationError` listing
    the available engines on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SimulationError(
            f"unknown engine {name!r}; expected one of {backend_names()}"
        ) from None
