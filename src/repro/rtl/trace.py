"""Packed per-cycle toggle traces.

A :class:`ToggleTrace` stores one toggle bit per net per cycle (per batch
element) with bit-packing along the net axis — the Python analogue of the
VCD/FSDB dumps in the paper's flow, but 8x denser than a byte per bit.
Column extraction is done without unpacking the full matrix, so selecting
the Q proxy columns out of tens of thousands of nets stays cheap.

:func:`binary_toggles` is the one 0/1 check for bit arrays that cross
into the program: simulator stimulus and ``init_values``, and the OPM's
proxy toggles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import SimulationError

__all__ = ["ToggleTrace", "binary_toggles", "pack_lanes", "unpack_lanes"]


def binary_toggles(bits, error: type[Exception], what: str) -> np.ndarray:
    """``bits`` as a uint8 array of 0/1 values, or ``error``.

    Any real dtype but uint8 and bool must compare equal to 0 or 1
    before the cast (a bare cast wraps 256 to 0 and -1 to 255).  The
    message names ``what``.
    """
    X = np.asarray(bits)
    if X.dtype == np.uint8:
        # Guarded ``max()``: ``max(initial=0)`` costs ~1 µs more a chunk.
        if X.size and X.max() > 1:
            raise error(f"{what} must be 0 or 1")
        return X
    if X.dtype == np.bool_:
        return X.view(np.uint8)
    if X.dtype.kind not in "iuf" or ((X != 0) & (X != 1)).any():
        raise error(f"{what} must be 0 or 1")
    return X.astype(np.uint8)


# ---------------------------------------------------------------------- #
# Lane-word packing (bit-parallel simulation engine)
# ---------------------------------------------------------------------- #
# The packed simulator stores 64 batch lanes per uint64 word: lane ``l``
# lives in bit ``l`` of word ``l // 64``.  Packing along the last axis via
# little-endian ``packbits`` plus a uint64 reinterpretation keeps every
# conversion on the contiguous fast path; the reinterpretation assumes a
# little-endian host (checked at call time).


def _require_little_endian() -> None:
    if not np.little_endian:  # pragma: no cover - no BE host to test on
        raise SimulationError(
            "lane-word packing requires a little-endian host; "
            "use Simulator(engine='uint8') on this platform"
        )


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into uint64 lane words.

    ``bits`` has shape ``(..., lanes)`` (uint8, values 0/1); the result has
    shape ``(..., ceil(lanes / 64))`` with lane ``l`` in bit ``l`` of word
    ``l // 64``.  Lanes beyond the input are zero-padded.
    """
    _require_little_endian()
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    lanes = bits.shape[-1]
    n_words = (lanes + 63) // 64
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (n_words * 8,), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view(np.uint64)


def unpack_lanes(words: np.ndarray, lanes: int) -> np.ndarray:
    """Inverse of :func:`pack_lanes`: the first ``lanes`` bits as uint8.

    ``words`` must be C-contiguous along its last axis; the result is a
    fresh C-contiguous array of shape ``(..., lanes)``.
    """
    _require_little_endian()
    if not words.flags.c_contiguous:
        words = np.ascontiguousarray(words)
    return np.unpackbits(
        words.view(np.uint8), axis=-1, count=lanes, bitorder="little"
    )


@dataclass
class ToggleTrace:
    """Bit-packed toggle activity for ``n_nets`` nets over ``n_cycles``.

    ``packed`` has shape ``(batch, n_cycles, ceil(n_nets / 8))`` with bits
    packed MSB-first along the last axis (NumPy ``packbits`` convention).
    """

    packed: np.ndarray
    n_nets: int

    def __post_init__(self) -> None:
        if self.packed.ndim != 3:
            raise SimulationError(
                f"packed trace must be 3-D, got shape {self.packed.shape}"
            )
        need = (self.n_nets + 7) // 8
        if self.packed.shape[2] != need:
            raise SimulationError(
                f"packed width {self.packed.shape[2]} != ceil({self.n_nets}/8)"
            )
        if self.packed.dtype != np.uint8:
            raise SimulationError("packed trace must be uint8")

    # ------------------------------------------------------------------ #
    @property
    def batch(self) -> int:
        return int(self.packed.shape[0])

    @property
    def n_cycles(self) -> int:
        return int(self.packed.shape[1])

    @property
    def nbytes(self) -> int:
        """Storage footprint of the packed trace in bytes."""
        return int(self.packed.nbytes)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "ToggleTrace":
        """Pack a dense uint8 array of shape (batch, cycles, n_nets)."""
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim == 2:
            dense = dense[None]
        packed = np.packbits(dense, axis=2)
        return cls(packed=packed, n_nets=int(dense.shape[2]))

    def dense(self, cols: np.ndarray | None = None) -> np.ndarray:
        """Extract toggle bits as uint8.

        Parameters
        ----------
        cols:
            Net ids to extract; ``None`` extracts every net.

        Returns
        -------
        numpy.ndarray
            Shape ``(batch, n_cycles, len(cols))``.
        """
        if cols is None:
            full = np.unpackbits(self.packed, axis=2, count=self.n_nets)
            return full
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size and (cols.min() < 0 or cols.max() >= self.n_nets):
            raise SimulationError("column ids out of range")
        byte_idx = cols // 8
        shift = (7 - (cols % 8)).astype(np.uint8)
        gathered = self.packed[:, :, byte_idx]
        return (gathered >> shift) & np.uint8(1)

    def column(self, net: int) -> np.ndarray:
        """One net's toggle bits, shape (batch, n_cycles)."""
        return self.dense(np.asarray([net]))[:, :, 0]

    def toggle_counts(self) -> np.ndarray:
        """Total toggles per net summed over batch and cycles (int64)."""
        full = self.dense()
        return full.sum(axis=(0, 1), dtype=np.int64)

    def flatten_batch(self) -> "ToggleTrace":
        """Concatenate batch elements along the cycle axis (batch -> 1)."""
        b, c, w = self.packed.shape
        return ToggleTrace(
            packed=self.packed.reshape(1, b * c, w), n_nets=self.n_nets
        )

    def slice_cycles(self, start: int, stop: int) -> "ToggleTrace":
        return ToggleTrace(
            packed=self.packed[:, start:stop], n_nets=self.n_nets
        )

    def iter_chunks(
        self,
        chunk_cycles: int,
        cols: np.ndarray | None = None,
        batch_index: int = 0,
    ):
        """Yield ``(start_cycle, dense_block)`` over fixed-size chunks.

        Each block is the dense uint8 toggle matrix of one batch element
        for ``cols`` (or all nets), shape ``(chunk, len(cols))``; the
        final block may be shorter.  Only one chunk's selected columns
        are ever unpacked at a time, so iterating a long trace stays
        bounded-memory regardless of its length.
        """
        if chunk_cycles < 1:
            raise SimulationError("chunk_cycles must be >= 1")
        if not (0 <= batch_index < self.batch):
            raise SimulationError(
                f"batch index {batch_index} out of range "
                f"[0, {self.batch})"
            )
        for start in range(0, self.n_cycles, chunk_cycles):
            stop = min(start + chunk_cycles, self.n_cycles)
            block = self.slice_cycles(start, stop).dense(cols)[batch_index]
            yield start, block

    @classmethod
    def concat_cycles(cls, traces: list["ToggleTrace"]) -> "ToggleTrace":
        """Concatenate traces (equal batch and n_nets) along cycles."""
        if not traces:
            raise SimulationError("cannot concat zero traces")
        n = traces[0].n_nets
        b = traces[0].batch
        for t in traces[1:]:
            if t.n_nets != n or t.batch != b:
                raise SimulationError("trace shapes do not match for concat")
        return cls(
            packed=np.concatenate([t.packed for t in traces], axis=1),
            n_nets=n,
        )

    # ------------------------------------------------------------------ #
    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            path, packed=self.packed, n_nets=np.int64(self.n_nets)
        )

    @classmethod
    def load(cls, path: str | Path) -> "ToggleTrace":
        with np.load(path) as data:
            return cls(
                packed=data["packed"], n_nets=int(data["n_nets"])
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ToggleTrace(batch={self.batch}, cycles={self.n_cycles}, "
            f"nets={self.n_nets}, {self.nbytes / 1e6:.1f} MB)"
        )
