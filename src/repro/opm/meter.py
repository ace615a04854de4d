"""Bit-exact behavioural model of the OPM datapath (Fig. 8).

Models exactly what the hardware computes: integer weights conditionally
accumulated on per-cycle toggle bits, a constant intercept term added each
cycle, a T-cycle integer accumulator, and division by T realized by
dropping the low ``log2(T)`` bits (T restricted to powers of two, §4.5).
Useful both for the Fig. 15(b) accuracy/area sweep (fast) and as the
reference the gate-level OPM netlist is verified against.

This module is the only code that turns proxy toggles into OPM
integers: :func:`binary_toggles` (the 0/1 check, shared with the
simulator's stimulus check in :mod:`repro.rtl.trace`), :func:`opm_dot`
(the per-cycle dot product) and :meth:`OpmStream.push_per_cycle` (the
T-window sum).  Streams and the serve tick call them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro.errors import OpmError
from repro.opm.quantize import QuantizedModel
from repro.rtl.trace import binary_toggles

__all__ = ["OpmMeter", "OpmStream", "binary_toggles", "opm_dot"]


def _is_pow2(t: int) -> bool:
    return t >= 1 and (t & (t - 1)) == 0


def opm_dot(toggles, int_weights, int_intercept: int) -> np.ndarray:
    """Per-cycle OPM integers: ``toggles . int_weights + int_intercept``.

    With ``(cycles, Q)`` 0/1 toggles and int64 weights every partial
    sum is an exact int64, whatever the summation order.  ``einsum``
    widens the toggles in buffered tiles, not as a whole int64 copy.
    """
    return np.einsum("ij,j->i", toggles, int_weights) + int_intercept


@dataclass
class OpmMeter:
    """Behavioural OPM for one quantized model and window size T."""

    qmodel: QuantizedModel
    t: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.t, bool) or not isinstance(self.t, Integral):
            raise OpmError(f"T must be an int, got {self.t!r:.80}")
        self.t = int(self.t)
        if not _is_pow2(self.t):
            raise OpmError(
                f"T must be a power of two for bit-drop division, got "
                f"{self.t}"
            )

    @property
    def latency_cycles(self) -> int:
        """Input registration + output registration (§7.5: 2 cycles)."""
        return 2

    def per_cycle(self, x_proxies: np.ndarray) -> np.ndarray:
        """Per-cycle integer accumulator inputs (before T-windowing).

        These are the values entering the Fig. 8 accumulator each cycle:
        ``weights . toggles + intercept`` in int64 arithmetic.  Accepts
        any real array of 0/1 values (:func:`binary_toggles`) and an
        empty ``(0, Q)`` chunk (returns an empty array), so streaming
        callers can pass short or empty final chunks through unchanged.
        """
        X = binary_toggles(x_proxies, OpmError, "OPM toggles")
        if X.ndim != 2 or X.shape[1] != self.qmodel.q:
            raise OpmError(
                f"expected (N, {self.qmodel.q}) proxy toggles, got {X.shape}"
            )
        return opm_dot(
            X, self.qmodel.int_weights, self.qmodel.int_intercept
        )

    def accumulate(self, x_proxies: np.ndarray) -> np.ndarray:
        """Raw integer OPM outputs, one per complete T-cycle window.

        The returned integers are what the ``out`` register of Fig. 8
        holds after the bit-drop division.
        """
        per_cycle = self.per_cycle(x_proxies)
        if per_cycle.size < self.t:
            raise OpmError(
                f"trace of {per_cycle.size} cycles shorter than T={self.t}"
            )
        return OpmStream(self).push_per_cycle(per_cycle)

    def read(self, x_proxies: np.ndarray) -> np.ndarray:
        """Windowed power estimates in mW (integer outputs x step)."""
        return self.accumulate(x_proxies).astype(np.float64) * (
            self.qmodel.step
        )

    def stream(self) -> "OpmStream":
        """A stateful chunk-by-chunk view of this meter.

        The returned :class:`OpmStream` carries the open T-cycle window
        across chunk boundaries, so feeding a trace in arbitrary chunks
        produces bit-identical window outputs to :meth:`accumulate` on
        the whole trace.
        """
        return OpmStream(self)

    def max_abs_accumulator(self, x_proxies: np.ndarray) -> int:
        """Largest |value| seen in the T-cycle accumulator — must fit in
        :meth:`QuantizedModel.accumulator_bits`, asserted in tests."""
        per_cycle = self.per_cycle(x_proxies)
        n = (per_cycle.size // self.t) * self.t
        sums = np.cumsum(per_cycle[:n].reshape(-1, self.t), axis=1)
        return int(np.abs(sums).max(initial=0))


class OpmStream:
    """Incremental T-cycle windowing over per-cycle OPM values.

    Mirrors the hardware exactly: the accumulator register persists
    between chunks, so chunk boundaries are invisible.  ``push`` accepts
    raw proxy-toggle chunks; ``push_per_cycle`` accepts precomputed
    per-cycle integers (the batched-inference path, where one GEMV serves
    many streams).  A trailing partial window is held pending — never
    emitted — matching :meth:`OpmMeter.accumulate`'s drop of incomplete
    windows.
    """

    def __init__(self, meter: OpmMeter) -> None:
        self.meter = meter
        self._open = np.empty(0, dtype=np.int64)  # the open window's cycles
        self.cycles_in = 0
        self.windows_out = 0

    @property
    def pending_cycles(self) -> int:
        """Cycles buffered in the open (incomplete) window."""
        return int(self._open.size)

    def push(self, x_proxies: np.ndarray) -> np.ndarray:
        """Feed one toggle chunk; return completed raw window outputs."""
        return self.push_per_cycle(self.meter.per_cycle(x_proxies))

    def push_per_cycle(self, per_cycle: np.ndarray) -> np.ndarray:
        """Feed precomputed per-cycle integers; return window outputs.

        Each complete window's int64 sum is divided by T by dropping
        ``log2(T)`` bits (an arithmetic shift, so it floors).
        """
        vals = np.asarray(per_cycle, dtype=np.int64).ravel()
        self.cycles_in += int(vals.size)
        if self._open.size:
            vals = np.concatenate([self._open, vals])
        t = self.meter.t
        n_full = vals.size - vals.size % t
        # A copy: ``vals`` may view a buffer the caller reuses.
        self._open = vals[n_full:].copy()
        windows = vals[:n_full].reshape(-1, t).sum(axis=1) >> int(np.log2(t))
        self.windows_out += int(windows.size)
        return windows

    def read_per_cycle(self, per_cycle: np.ndarray) -> np.ndarray:
        """Convert per-cycle integers to mW (same scale as ``read``)."""
        return np.asarray(per_cycle, dtype=np.float64) * self.meter.qmodel.step

    def read_windows(self, windows: np.ndarray) -> np.ndarray:
        """Convert raw window outputs to mW (same scale as ``read``)."""
        return np.asarray(windows, dtype=np.float64) * self.meter.qmodel.step
