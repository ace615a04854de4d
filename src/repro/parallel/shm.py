"""Zero-copy shared-memory data plane for process-pool hot paths.

Pickling a serve tick's stacked toggle matrices *and* the model's
integer weights through the ``ProcessPoolExecutor`` pipes makes
per-tick IPC grow with the fleet while the GEMV it ships stays cheap.
This module ships ~100-byte descriptors instead, over three
parent-owned shared-memory structures:

* :class:`ShmArena` — ring-buffer slabs (``multiprocessing.shared_memory``)
  the parent writes request payloads into.  Each slab carries a tiny
  header (a generation counter); a :class:`ShmRef` descriptor names the
  segment, offset, dtype, shape, and the generation it was written
  under, so a stale descriptor (reused slab) fails loudly instead of
  reading torn data.  Workers map payloads with ``np.frombuffer`` —
  no copy, no pickle.
* a second :class:`ShmArena` for **results**: the parent pre-allocates
  each task's output region (the GEMV result shape is known up front),
  the worker writes straight into the mapped view, and only the
  descriptor rides the pipe back.
* :class:`WeightVault` — per-digest weight residency.  Model weights
  are content-hashed (:func:`weights_digest`); each digest is published
  to its own immutable segment exactly once, workers map and cache it
  by digest (:func:`resident_weights`), and a hot model swap simply
  retires digests no live session references.  Weights stop crossing
  the pipe every tick.

Everything here is **parent-owned**: workers only ever *attach*, and a
worker's death — even SIGKILL — cannot unlink or leak a segment,
because workers never own or unlink anything.  Cleanup is
therefore a parent-side concern with three layers: explicit
``close()`` (wired into :meth:`WorkerPool.close`), a module ``atexit``
hook over every live plane, and :func:`install_signal_cleanup` for
SIGTERM.  :func:`leaked_segments` lets tests assert the invariant.

When ``multiprocessing.shared_memory`` is unavailable (``HAVE_SHM`` is
False) the serve gateway infers inline; when a slab runs out of room
it runs that payload inline — the data plane degrades, it never
breaks.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import signal
import struct
import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelError

try:  # pragma: no cover - import guard exercised via HAVE_SHM paths
    from multiprocessing import resource_tracker, shared_memory

    HAVE_SHM = True
except ImportError:  # pragma: no cover - no shm on this platform
    resource_tracker = None
    shared_memory = None
    HAVE_SHM = False

__all__ = [
    "HAVE_SHM",
    "ShmError",
    "ShmRef",
    "WeightRef",
    "ShmArena",
    "WeightVault",
    "ShmDataPlane",
    "weights_digest",
    "qmodel_digest",
    "attach_view",
    "resident_weights",
    "leaked_segments",
    "install_signal_cleanup",
]


class ShmError(ParallelError):
    """Raised when a shared-memory descriptor cannot be honored."""


#: Slab layout: one little-endian uint64 generation counter, then data.
_HEADER = struct.Struct("<Q")
_ALIGN = 64  # cache-line alignment for every allocation

#: Monotonic per-process counter so recreated planes never reuse names.
_SEG_SEQ = 0


def _segment_name(kind: str) -> str:
    global _SEG_SEQ
    _SEG_SEQ += 1
    return f"apollo{os.getpid()}{kind}{_SEG_SEQ}"


# Resource-tracker note: Python 3.11 registers segments on *attach* as
# well as create (gh-82300), but pool workers — fork and spawn alike —
# inherit the parent's tracker fd, so those registrations land in one
# shared set (idempotent) and the parent's ``unlink()`` removes the
# entry exactly once.  Leaving registration in place is deliberate: if
# the parent dies without running cleanup, the tracker unlinks the
# segments as a last-resort hygiene backstop.


# --------------------------------------------------------------------- #
# Descriptors (tiny, picklable — these are what cross the pipe)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShmRef:
    """~100-byte descriptor of an array living in an arena slab."""

    seg: str
    offset: int
    dtype: str
    shape: tuple
    generation: int

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape)))


@dataclass(frozen=True)
class WeightRef:
    """Descriptor of one published weight digest (immutable segment)."""

    digest: str
    seg: str
    dtype: str
    shape: tuple
    int_intercept: int


def qmodel_digest(qm) -> str:
    """:func:`weights_digest` of a quantized model, cached on the model.

    Hashing weights every tick would defeat the point; the digest is
    computed once per model object and memoized (integer weights are
    fixed at quantization time, so the cache can never go stale).
    """
    d = getattr(qm, "_weights_digest", None)
    if d is None:
        d = weights_digest(qm.int_weights, qm.int_intercept)
        try:
            qm._weights_digest = d
        except AttributeError:  # pragma: no cover - slotted models
            pass
    return d


def weights_digest(int_weights: np.ndarray, int_intercept: int) -> str:
    """Content hash of a model's integer parameters.

    Two versions with identical integer weights share a digest — and
    therefore a resident segment and a fused GEMV — by construction.
    """
    w = np.ascontiguousarray(int_weights)
    h = hashlib.sha256()
    h.update(str(w.dtype).encode())
    h.update(struct.pack("<q", w.size))
    h.update(w.tobytes())
    h.update(struct.pack("<q", int(int_intercept)))
    return h.hexdigest()


# --------------------------------------------------------------------- #
# Attach-side (worker) machinery
# --------------------------------------------------------------------- #
#: name -> attached SharedMemory (per process; forked workers start empty
#: because the parent populates it only for its own created segments).
_ATTACHED: dict = {}


def _attach(name: str):
    shm = _ATTACHED.get(name)
    if shm is None:
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            raise ShmError(
                f"shared-memory segment {name!r} is gone (plane closed "
                "or descriptor outlived its arena)"
            ) from None
        _ATTACHED[name] = shm
    return shm


def _release(shm, unlink: bool) -> None:
    """Unlink (owner side) then close, tolerating live numpy views.

    ``unlink`` removes the ``/dev/shm`` name immediately — that is the
    hygiene invariant.  ``close`` can raise ``BufferError`` while
    ``np.frombuffer`` views are still alive; the mapping is freed when
    the last view is garbage-collected, so that error is benign here.
    """
    if unlink:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass
    try:
        shm.close()
    except (BufferError, OSError):
        # Defuse the destructor: it would retry close() and spam
        # "Exception ignored in __del__" until the views die.
        shm.close = lambda: None


def _drop_attachment(name: str) -> None:
    shm = _ATTACHED.pop(name, None)
    if shm is not None:
        _release(shm, unlink=False)


def attach_view(ref: ShmRef, check_generation: bool = True) -> np.ndarray:
    """Map a descriptor to a zero-copy ndarray view (any process).

    The slab's header generation must match the descriptor's: a
    mismatch means the ring has moved on and the data under ``ref`` was
    (or may be) overwritten — that is a caller bug, surfaced as
    :class:`ShmError` rather than silently-wrong numbers.
    """
    shm = _attach(ref.seg)
    if check_generation:
        (gen,) = _HEADER.unpack_from(shm.buf, 0)
        if gen != ref.generation:
            raise ShmError(
                f"stale descriptor into {ref.seg!r}: written at "
                f"generation {ref.generation}, slab is at {gen}"
            )
    arr = np.frombuffer(
        shm.buf,
        dtype=np.dtype(ref.dtype),
        count=int(np.prod(ref.shape)),
        offset=ref.offset,
    )
    return arr.reshape(ref.shape)


#: digest -> weights array (worker-resident, LRU-bounded).
_WEIGHTS: dict = {}
_WEIGHT_CACHE_CAP = 64


def resident_weights(wref: WeightRef) -> tuple[np.ndarray, int, bool]:
    """``(int_weights, int_intercept, cache_hit)`` for one digest.

    First use in a process attaches the digest's segment and keeps a
    zero-copy view resident; every later task with the same digest is a
    dictionary lookup.  The cache is LRU-bounded so a long-lived worker
    serving many model generations cannot grow without bound.
    """
    w = _WEIGHTS.pop(wref.digest, None)
    hit = w is not None
    if not hit:
        view = attach_view(
            ShmRef(wref.seg, _HEADER.size, wref.dtype, wref.shape, 0),
            check_generation=False,
        )
        view.flags.writeable = False
        w = view
        while len(_WEIGHTS) >= _WEIGHT_CACHE_CAP:
            del _WEIGHTS[next(iter(_WEIGHTS))]  # dicts keep insert order
    _WEIGHTS[wref.digest] = w  # re-insert == most recently used
    return w, int(wref.int_intercept), hit


# --------------------------------------------------------------------- #
# Parent-owned structures
# --------------------------------------------------------------------- #
class _Slab:
    """One shared segment: [generation header | ring data]."""

    def __init__(self, nbytes: int, kind: str) -> None:
        self.name = _segment_name(kind)
        self.shm = shared_memory.SharedMemory(
            create=True, name=self.name, size=_HEADER.size + nbytes
        )
        self.capacity = nbytes
        self.cursor = 0
        self.generation = 1
        self._write_header()

    def _write_header(self) -> None:
        _HEADER.pack_into(self.shm.buf, 0, self.generation)

    def new_generation(self) -> None:
        self.cursor = 0
        self.generation += 1
        self._write_header()

    def alloc(self, nbytes: int) -> int | None:
        """Reserve ``nbytes`` (aligned); None when the slab is full."""
        start = -(-self.cursor // _ALIGN) * _ALIGN
        if start + nbytes > self.capacity:
            return None
        self.cursor = start + nbytes
        return _HEADER.size + start

    def view(self, offset: int, shape: tuple, dtype) -> np.ndarray:
        arr = np.frombuffer(
            self.shm.buf,
            dtype=np.dtype(dtype),
            count=int(np.prod(shape)),
            offset=offset,
        )
        return arr.reshape(shape)

    def close(self) -> None:
        _release(self.shm, unlink=True)


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

    def __init__(
        self, lanes: int = 2, slab_bytes: int = 8 << 20, kind: str = "a"
    ) -> None:
        if not HAVE_SHM:
            raise ShmError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform"
            )
        if lanes < 1 or slab_bytes < _ALIGN:
            raise ShmError(
                f"arena needs >= 1 lane and >= {_ALIGN} bytes per slab"
            )
        self.slabs = [_Slab(slab_bytes, kind) for _ in range(lanes)]
        self._next_lane = 0
        self.ticks = 0
        self._closed = False

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
                    slab.name, offset, dt.str, tuple(shape),
                    slab.generation,
                )
                return ref, slab.view(offset, tuple(shape), dt)
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

    def view(self, ref: ShmRef) -> np.ndarray:
        """Parent-side view of a descriptor (no re-attach)."""
        for slab in self.slabs:
            if slab.name == ref.seg:
                if ref.generation != slab.generation:
                    raise ShmError(
                        f"stale descriptor into {ref.seg!r} "
                        f"(generation {ref.generation} vs "
                        f"{slab.generation})"
                    )
                return slab.view(ref.offset, ref.shape, ref.dtype)
        raise ShmError(f"descriptor names foreign segment {ref.seg!r}")

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

    def segment_names(self) -> list[str]:
        return [s.name for s in self.slabs]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slab in self.slabs:
            _drop_attachment(slab.name)
            slab.close()


class WeightVault:
    """Digest-addressed, publish-once weight segments.

    ``ensure`` is idempotent per digest: the first call copies the
    integer weights into a fresh immutable segment; every later call
    returns the cached :class:`WeightRef`.  ``retire`` unlinks digests
    that no live session references (hot-swap invalidation) — workers
    holding a mapped view are unaffected (POSIX keeps the mapping alive)
    and simply re-publish under the new digest on the next model.
    """

    def __init__(self) -> None:
        if not HAVE_SHM:
            raise ShmError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform"
            )
        self._segments: dict[str, tuple] = {}  # digest -> (shm, WeightRef)
        self.published = 0
        self.retired = 0
        self._closed = False

    def ensure(
        self, digest: str, int_weights: np.ndarray, int_intercept: int
    ) -> WeightRef:
        got = self._segments.get(digest)
        if got is not None:
            return got[1]
        w = np.ascontiguousarray(int_weights)
        name = _segment_name("w")
        shm = shared_memory.SharedMemory(
            create=True, name=name, size=_HEADER.size + w.nbytes
        )
        buf = np.frombuffer(
            shm.buf, dtype=w.dtype, count=w.size, offset=_HEADER.size
        )
        buf[...] = w.ravel()
        ref = WeightRef(
            digest, name, w.dtype.str, tuple(w.shape), int(int_intercept)
        )
        self._segments[digest] = (shm, ref)
        self.published += 1
        return ref

    def __contains__(self, digest: str) -> bool:
        return digest in self._segments

    def digests(self) -> set[str]:
        return set(self._segments)

    def retire(self, digest: str) -> bool:
        got = self._segments.pop(digest, None)
        if got is None:
            return False
        shm, ref = got
        _drop_attachment(ref.seg)
        _release(shm, unlink=True)
        self.retired += 1
        return True

    def segment_names(self) -> list[str]:
        return [ref.seg for _shm, ref in self._segments.values()]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for digest in list(self._segments):
            self.retire(digest)


# --------------------------------------------------------------------- #
# The plane: what a WorkerPool owns when transport="shm"
# --------------------------------------------------------------------- #
#: Every live plane, so atexit / SIGTERM can sweep without ownership.
#: Strong references on purpose: a plane dropped without ``close()``
#: must stay reachable until the sweep unlinks its segments (a WeakSet
#: would let the GC erase it first and leak the /dev/shm entries).
_LIVE_PLANES: set = set()


class ShmDataPlane:
    """Request arena + result arena + weight vault, one lifecycle.

    ``requests`` holds parent-written payloads (stacked toggles),
    ``results`` holds parent-allocated, worker-written outputs, and
    ``vault`` holds the per-digest resident weights.  ``begin_tick``
    fences both arenas; ``close`` unlinks every segment (idempotent,
    also run by atexit and — via :func:`install_signal_cleanup` — on
    SIGTERM), so no ``/dev/shm`` entry outlives the parent however it
    goes down.
    """

    def __init__(self, lanes: int = 2, slab_bytes: int = 8 << 20) -> None:
        self.requests = ShmArena(lanes, slab_bytes, kind="q")
        self.results = ShmArena(
            lanes, max(slab_bytes // 4, _ALIGN), kind="r"
        )
        self.vault = WeightVault()
        self.fallbacks = 0  # payloads that could not be staged
        self._closed = False
        _LIVE_PLANES.add(self)

    def begin_tick(self) -> None:
        self.requests.begin_tick()
        self.results.begin_tick()

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> list[str]:
        return (
            self.requests.segment_names()
            + self.results.segment_names()
            + self.vault.segment_names()
        )

    def stats(self) -> dict:
        return {
            "request_occupancy": self.requests.occupancy,
            "result_occupancy": self.results.occupancy,
            "request_bytes": self.requests.used_bytes,
            "result_bytes": self.results.used_bytes,
            "weights_published": self.vault.published,
            "weights_retired": self.vault.retired,
            "fallbacks": self.fallbacks,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _LIVE_PLANES.discard(self)
        self.requests.close()
        self.results.close()
        self.vault.close()

    def __enter__(self) -> "ShmDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _close_live_planes() -> None:
    for plane in list(_LIVE_PLANES):
        plane.close()


atexit.register(_close_live_planes)


def install_signal_cleanup(signum: int = signal.SIGTERM) -> None:
    """Make ``signum`` close every live plane before exiting.

    Chains to any previously installed handler; the default action
    (terminate) is reproduced via ``sys.exit`` so atexit hooks — and
    therefore the plane sweep — still run.  The serve CLI installs this
    so a SIGTERM'd fleet leaves ``/dev/shm`` clean.
    """
    previous = signal.getsignal(signum)

    def _handler(sig, frame):
        _close_live_planes()
        if callable(previous) and previous not in (
            signal.SIG_IGN, signal.SIG_DFL
        ):
            previous(sig, frame)
        else:
            sys.exit(128 + sig)

    signal.signal(signum, _handler)


def leaked_segments(prefix: str | None = None) -> list[str]:
    """Names of this process's live apollo segments (tests/monitoring).

    Scans ``/dev/shm`` where it exists (Linux); falls back to the
    module's live-plane registry elsewhere.  An empty list after
    teardown is the hygiene invariant the serve demo and the shm tests
    assert.
    """
    prefix = prefix if prefix is not None else f"apollo{os.getpid()}"
    root = "/dev/shm"
    if os.path.isdir(root):
        return sorted(
            name for name in os.listdir(root) if name.startswith(prefix)
        )
    names: list[str] = []  # pragma: no cover - non-Linux fallback
    for plane in _LIVE_PLANES:
        names.extend(
            n for n in plane.segment_names() if n.startswith(prefix)
        )
    return sorted(names)
