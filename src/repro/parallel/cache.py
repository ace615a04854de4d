"""Content-addressed evaluation cache for simulation results.

Keys are sha256 digests over everything that determines a result:
netlist fingerprint, program instruction bytes, engine, cycle count,
record spec, accumulator weights.  Values are ``dict[str, ndarray]``
payloads.  Two tiers:

* an in-memory LRU bounded by entry count and total bytes;
* an optional on-disk ``.npz`` tier (atomic writes via
  :func:`repro.resilience.atomic.atomic_save_npz`), so GA elites,
  handcrafted workloads reused across experiments, and repeated tuning
  folds survive process boundaries.

Disk-tier I/O runs under a :class:`~repro.resilience.retry.RetryPolicy`
(transient ``OSError`` heals in place).  A disk entry that fails to
*decode* is corruption, not transience: it is deleted, counted in
``parallel.cache.corrupt``, and served as a miss.

Because the simulator's accumulator reduction is batch-width
independent, a cached per-program result is *bit-identical* to what any
batched re-simulation containing that program would produce — cache
hits never change numerics, only skip work.

Hits/misses/stores/evictions are exported through
``repro.obs`` metrics (``parallel.cache.*``).
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.errors import ParallelError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.resilience.atomic import NPZ_DECODE_ERRORS, atomic_save_npz
from repro.resilience.retry import RetryPolicy

__all__ = [
    "CACHE_SCHEMA",
    "EvalCache",
    "make_key",
    "array_fingerprint",
    "program_fingerprint",
    "throttle_fingerprint",
]

#: Key-schema version, mixed into every :func:`make_key` digest.  Bump
#: it whenever the byte layout of any fingerprint changes so stale
#: on-disk entries become silent misses instead of wrong hits.
#: History: 1 = str()-coerced parts and repr()-based fingerprints;
#: 2 = type-tagged parts, struct-packed fingerprints, engine dropped
#: from simulation keys (backends are bit-identical).
CACHE_SCHEMA = 2


def array_fingerprint(arr: np.ndarray) -> str:
    """sha256 hex of an array's dtype, shape, and contents."""
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


def program_fingerprint(program) -> str:
    """sha256 hex of a :class:`repro.isa.program.Program`'s content.

    Hashes the instruction stream only — two programs with different
    names but identical instructions evaluate identically and share a
    cache entry.  Fields are struct-packed (five little-endian int64s
    per instruction), not ``repr()``-ed: ``repr`` of a NumPy scalar
    changed between NumPy 1.x and 2.x (``1`` vs ``np.int64(1)``), which
    would silently split or invalidate on-disk entries across
    environments.
    """
    h = hashlib.sha256()
    for inst in program.instructions:
        h.update(struct.pack(
            "<5q",
            int(inst.opcode), int(inst.dst), int(inst.src1),
            int(inst.src2), int(inst.imm),
        ))
    return h.hexdigest()


def throttle_fingerprint(throttle) -> str:
    """Stable digest of a ThrottleScheme (or ``None``).

    Explicit field bytes (ints as little-endian int64, duty as a
    little-endian float64) for the same cross-NumPy-version stability
    as :func:`program_fingerprint`.
    """
    if throttle is None:
        return "none"
    h = hashlib.sha256()
    h.update(struct.pack(
        "<qqdq",
        -1 if throttle.max_issue is None else int(throttle.max_issue),
        int(throttle.period),
        float(throttle.duty),
        int(bool(throttle.block_vector)),
    ))
    return h.hexdigest()


def make_key(*parts: str | int) -> str:
    """Combine fingerprint parts into one cache key (hex sha256).

    Each part is tagged with its type before hashing so values that
    stringify identically cannot collide: ``make_key(1, "2")`` and
    ``make_key("1", 2)`` are distinct keys.  The schema version is
    mixed in first, so bumping :data:`CACHE_SCHEMA` retires every old
    key at once.
    """
    h = hashlib.sha256()
    h.update(b"schema:%d\x00" % CACHE_SCHEMA)
    for p in parts:
        # Normalize NumPy integer scalars to int so a key built from a
        # config value and one built from an array element agree.
        if isinstance(p, (bool, np.bool_)):
            tag, text = b"bool", str(bool(p))
        elif isinstance(p, (int, np.integer)):
            tag, text = b"int", str(int(p))
        elif isinstance(p, str):
            tag, text = b"str", p
        else:
            tag, text = type(p).__name__.encode(), str(p)
        h.update(tag)
        h.update(b":")
        h.update(text.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _nbytes(value: dict[str, np.ndarray]) -> int:
    return sum(int(a.nbytes) for a in value.values())


class EvalCache:
    """Two-tier (memory LRU + optional disk) result cache.

    Parameters
    ----------
    max_entries:
        Memory-tier entry cap (LRU eviction).
    max_bytes:
        Memory-tier byte cap; entries are evicted oldest-first until the
        new entry fits.  A single entry larger than the cap is stored on
        disk only (if a disk tier exists) and not held in memory.
    disk_dir:
        Directory for the ``.npz`` tier; created on first store.
        ``None`` disables the disk tier.
    metrics:
        Registry for ``parallel.cache.*`` counters/gauges; defaults to
        the process-global registry.
    retry:
        :class:`~repro.resilience.retry.RetryPolicy` for disk-tier
        reads and writes; the default retries transient I/O errors
        twice with no delay.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; the
        ``cache.read`` site can corrupt an entry before it is decoded
        and ``cache.write`` can raise a transient error into the retry
        loop.

    Values are dicts of arrays and are returned by reference from the
    memory tier — callers must treat them as read-only.
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int = 512 * 1024 * 1024,
        disk_dir: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
        retry: RetryPolicy | None = None,
        faults=None,
    ) -> None:
        if max_entries < 1:
            raise ParallelError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ParallelError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.metrics = metrics if metrics is not None else default_registry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self._mem: OrderedDict[str, dict[str, np.ndarray]] = OrderedDict()
        self._bytes = 0
        # Instance-local stats (the registry may be shared across caches).
        self._stats = {
            "hits": 0, "misses": 0, "stores": 0,
            "evictions": 0, "disk_hits": 0, "corrupt": 0,
        }

    # ------------------------------------------------------------------ #
    def _count(self, name: str, n: int = 1) -> None:
        self._stats[name] += n
        self.metrics.counter(f"parallel.cache.{name}").inc(n)

    def _update_bytes_gauge(self) -> None:
        self.metrics.gauge("parallel.cache.bytes").set(self._bytes)

    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / f"{key}.npz"

    # ------------------------------------------------------------------ #
    @staticmethod
    def _read_disk(path: Path) -> dict[str, np.ndarray]:
        with np.load(path, allow_pickle=False) as data:
            return {k: data[k].copy() for k in data.files}

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """Look up ``key``; promotes disk hits into the memory tier.

        A disk entry that fails to decode is counted as corrupt and
        deleted (so a later ``put`` can repair it).
        """
        value = self._mem.get(key)
        if value is not None:
            self._mem.move_to_end(key)
            self._count("hits")
            return value
        path = self._disk_path(key)
        if path is not None and path.exists():
            if self.faults is not None:
                for spec in self.faults.fire("cache.read"):
                    if spec.kind == "corrupt":
                        from repro.resilience.faults import truncate_file

                        truncate_file(path)
            try:
                value = self.retry.call(
                    self._read_disk,
                    path,
                    label="cache.read",
                    metrics=self.metrics,
                )
            except (OSError, *NPZ_DECODE_ERRORS):
                # Not transience (retries are exhausted): the entry is
                # corrupt.  Drop it so a future put() repairs the slot.
                value = None
                self._count("corrupt")
                path.unlink(missing_ok=True)
            if value is not None:
                self._store_mem(key, value)
                self._count("hits")
                self._count("disk_hits")
                return value
        self._count("misses")
        return None

    def put(self, key: str, value: dict[str, np.ndarray]) -> None:
        """Store ``value`` in both tiers (memory always, disk if set)."""
        value = {k: np.asarray(v) for k, v in value.items()}
        self._store_mem(key, value)
        path = self._disk_path(key)
        if path is not None and not path.exists():
            self.disk_dir.mkdir(parents=True, exist_ok=True)

            def _write() -> None:
                if self.faults is not None:
                    self.faults.raise_if("cache.write")
                # Atomic publish: concurrent writers race benignly —
                # both write identical content and the rename is atomic.
                atomic_save_npz(path, value)

            self.retry.call(
                _write, label="cache.write", metrics=self.metrics
            )
        self._count("stores")

    def _store_mem(self, key: str, value: dict[str, np.ndarray]) -> None:
        nbytes = _nbytes(value)
        if key in self._mem:
            self._bytes -= _nbytes(self._mem.pop(key))
        if nbytes <= self.max_bytes:
            self._mem[key] = value
            self._bytes += nbytes
            while (
                len(self._mem) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _k, old = self._mem.popitem(last=False)
                self._bytes -= _nbytes(old)
                self._count("evictions")
        self._update_bytes_gauge()

    # ------------------------------------------------------------------ #
    def __contains__(self, key: str) -> bool:
        if key in self._mem:
            return True
        path = self._disk_path(key)
        return path is not None and path.exists()

    def __len__(self) -> int:
        return len(self._mem)

    @property
    def nbytes(self) -> int:
        """Bytes currently held in the memory tier."""
        return self._bytes

    def stats(self) -> dict[str, int]:
        """This cache's hits/misses/stores/evictions/entries/bytes."""
        return dict(self._stats, entries=len(self._mem), bytes=self._bytes)

    def clear_memory(self) -> None:
        """Drop the memory tier (disk entries survive)."""
        self._mem.clear()
        self._bytes = 0
        self._update_bytes_gauge()
