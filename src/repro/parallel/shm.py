"""Zero-copy shared-memory data plane for the serve gateway's pool.

Pickling a serve tick's stacked toggle matrices through the
``ProcessPoolExecutor`` pipes makes per-tick IPC grow with the fleet
while the GEMV it ships stays cheap.  This module ships small
descriptors instead, over two parent-owned arenas of anonymous shared
memory:

* a request :class:`ShmArena` — ring-buffer slabs the parent writes
  payloads (stacked toggles) into.  Each slab carries a tiny header (a
  generation counter); a :class:`ShmRef` descriptor names the slab by
  its key, the offset, dtype, shape, and the generation it was written
  under, so a stale descriptor (reused slab) fails loudly instead of
  reading torn data.  Workers map payloads with ``np.frombuffer`` — no
  copy, no pickle.
* a result :class:`ShmArena`: the parent pre-allocates each task's
  output region (the GEMV result shape is known up front), the worker
  writes straight into the mapped view, and only the descriptor rides
  the pipe.

Every slab is an anonymous ``MAP_SHARED`` mapping (``mmap.mmap(-1,
n)``) registered under an integer key in this module's ``_SLABS``.
:class:`~repro.parallel.pool.WorkerPool` maps its plane at construction,
before any worker forks, so every worker — the first ones and every
respawn — inherits the same mappings and finds each slab by key.  There
are no segment names: nothing to attach, unlink or sweep, and the memory
goes away with the last process that maps it, however that process
ends.  A start method without fork cannot inherit a mapping, so such a
pool has no plane and the gateway serves inline.
"""

from __future__ import annotations

import itertools
import mmap
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelError

__all__ = [
    "ShmError",
    "ShmRef",
    "ShmArena",
    "ShmDataPlane",
    "attach_view",
]


class ShmError(ParallelError):
    """Raised when a shared-memory descriptor cannot be honored."""


#: Slab layout: one little-endian uint64 generation counter, then data.
_HEADER = struct.Struct("<Q")
_ALIGN = 64  # cache-line alignment for every allocation

#: key -> mapping of every open slab in this process.  Forked workers
#: inherit the parent's entries (and the mappings behind them).
_SLABS: dict[int, mmap.mmap] = {}
_KEYS = itertools.count(1)  # never reused, so a closed slab's key stays dead


# --------------------------------------------------------------------- #
# Descriptors (tiny, picklable — these are what cross the pipe)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShmRef:
    """Descriptor of an array living in an arena slab."""

    slab: int
    offset: int
    dtype: str
    shape: tuple
    generation: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


def _view(buf, offset: int, shape: tuple, dtype) -> np.ndarray:
    arr = np.frombuffer(
        buf, dtype=np.dtype(dtype), count=int(np.prod(shape)), offset=offset
    )
    return arr.reshape(shape)


def attach_view(ref: ShmRef) -> np.ndarray:
    """Map a descriptor to a zero-copy ndarray view (any process).

    The slab must be mapped in this process (the parent mapped it before
    this worker forked) and its header generation must match the
    descriptor's: a mismatch means the ring has moved on and the data
    under ``ref`` was (or may be) overwritten — a caller bug, surfaced
    as :class:`ShmError` rather than silently-wrong numbers.
    """
    buf = _SLABS.get(ref.slab)
    if buf is None:
        raise ShmError(
            f"slab {ref.slab} is not mapped in this process (its plane is "
            "closed, or was mapped after this process forked)"
        )
    (gen,) = _HEADER.unpack_from(buf, 0)
    if gen != ref.generation:
        raise ShmError(
            f"stale descriptor into slab {ref.slab}: written at "
            f"generation {ref.generation}, slab is at {gen}"
        )
    return _view(buf, ref.offset, ref.shape, ref.dtype)


# --------------------------------------------------------------------- #
# Parent-owned structures
# --------------------------------------------------------------------- #
class _Slab:
    """One anonymous shared mapping: [generation header | ring data]."""

    def __init__(self, nbytes: int) -> None:
        self.key = next(_KEYS)
        self.buf = mmap.mmap(-1, _HEADER.size + nbytes)
        _SLABS[self.key] = self.buf
        self.capacity = nbytes
        self.cursor = 0
        self.generation = 1
        _HEADER.pack_into(self.buf, 0, self.generation)

    def new_generation(self) -> None:
        self.cursor = 0
        self.generation += 1
        _HEADER.pack_into(self.buf, 0, self.generation)

    def alloc(self, nbytes: int) -> int | None:
        """Reserve ``nbytes`` (aligned); None when the slab is full."""
        start = -(-self.cursor // _ALIGN) * _ALIGN
        if start + nbytes > self.capacity:
            return None
        self.cursor = start + nbytes
        return _HEADER.size + start

    def close(self) -> None:
        # Dropping the mapping's last reference unmaps it; a numpy view
        # still alive keeps it mapped until that view is collected.
        _SLABS.pop(self.key, None)


class ShmArena:
    """Per-lane ring-buffer slabs the parent writes payloads into.

    A *tick* (one :meth:`begin_tick`) resets every lane's cursor and
    bumps its generation — by contract the caller has consumed every
    result of the previous tick before starting the next, so the ring
    is a bump allocator with a generation fence rather than a free
    list.  Allocation round-robins lanes and falls through to any lane
    with room; a full arena returns ``None`` and the caller runs that
    payload without the plane.
    """

    def __init__(self, lanes: int = 2, slab_bytes: int = 8 << 20) -> None:
        if lanes < 1 or slab_bytes < _ALIGN:
            raise ShmError(
                f"arena needs >= 1 lane and >= {_ALIGN} bytes per slab"
            )
        self.slabs = [_Slab(slab_bytes) for _ in range(lanes)]
        self._next_lane = 0
        self.ticks = 0

    # ------------------------------------------------------------ #
    def begin_tick(self) -> None:
        """Start a new generation: all prior descriptors go stale."""
        for slab in self.slabs:
            slab.new_generation()
        self.ticks += 1

    def alloc(self, shape: tuple, dtype) -> tuple[ShmRef, np.ndarray] | None:
        """Reserve an array region; ``(descriptor, parent view)``.

        ``None`` when no lane has room — the caller's cue to run this
        payload without the plane.
        """
        dt = np.dtype(dtype)
        nbytes = int(dt.itemsize * int(np.prod(shape)))
        n = len(self.slabs)
        for k in range(n):
            slab = self.slabs[(self._next_lane + k) % n]
            offset = slab.alloc(nbytes)
            if offset is not None:
                self._next_lane = (self._next_lane + k + 1) % n
                ref = ShmRef(
                    slab.key, offset, dt.str, tuple(shape), slab.generation
                )
                return ref, _view(slab.buf, offset, tuple(shape), dt)
        return None

    def write(self, arr: np.ndarray) -> ShmRef | None:
        """Copy one array into a slab (the single memcpy of the path)."""
        arr = np.asarray(arr)
        got = self.alloc(arr.shape, arr.dtype)
        if got is None:
            return None
        ref, view = got
        view[...] = arr
        return ref

    def write_concat(self, mats: list) -> ShmRef | None:
        """Stack row-blocks straight into one contiguous slab region.

        This is ``np.concatenate(mats, out=<slab view>)`` — the serve
        gather path lands its stacked toggles in shared memory without
        an intermediate private copy.
        """
        rows = sum(int(m.shape[0]) for m in mats)
        got = self.alloc((rows, int(mats[0].shape[1])), mats[0].dtype)
        if got is None:
            return None
        ref, view = got
        r = 0
        for m in mats:
            view[r:r + m.shape[0]] = m
            r += m.shape[0]
        return ref

    # ------------------------------------------------------------ #
    @property
    def capacity_bytes(self) -> int:
        return sum(s.capacity for s in self.slabs)

    @property
    def used_bytes(self) -> int:
        return sum(s.cursor for s in self.slabs)

    @property
    def occupancy(self) -> float:
        """Fraction of the arena used this tick (0..1)."""
        cap = self.capacity_bytes
        return self.used_bytes / cap if cap else 0.0

    def close(self) -> None:
        """Unregister every slab (idempotent); descriptors go dead."""
        for slab in self.slabs:
            slab.close()
        self.slabs = []


# --------------------------------------------------------------------- #
# The plane: what a WorkerPool owns when transport="shm"
# --------------------------------------------------------------------- #
class ShmDataPlane:
    """Request arena + result arena, one lifecycle.

    ``requests`` holds parent-written payloads (stacked toggles) and
    ``results`` holds parent-allocated, worker-written outputs.
    ``begin_tick`` fences both arenas; ``close`` unregisters every slab
    (idempotent).  Workers forked while the plane is open keep their
    inherited mappings until they exit.
    """

    def __init__(self, lanes: int = 2, slab_bytes: int = 8 << 20) -> None:
        self.requests = ShmArena(lanes, slab_bytes)
        self.results = ShmArena(lanes, max(slab_bytes // 4, _ALIGN))
        self.fallbacks = 0  # payloads that could not be staged
        self._closed = False

    def begin_tick(self) -> None:
        self.requests.begin_tick()
        self.results.begin_tick()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True
        self.requests.close()
        self.results.close()

    def __enter__(self) -> "ShmDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
