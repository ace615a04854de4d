"""Schema-versioned, corruption-detected checkpoints for pipeline stages.

A :class:`CheckpointStore` is a directory tree of per-stage checkpoints::

    <root>/<stage>/step-00000003.npz        # array payload (atomic)
    <root>/<stage>/step-00000003.json       # sidecar: schema, sha256, meta

The sidecar carries the payload's SHA-256, so a torn or bit-rotted
``.npz`` is *detected* at load time (``CheckpointError``) rather than
silently resumed from; :meth:`CheckpointStore.latest` walks backwards
past corrupt steps to the newest checkpoint that verifies, counting
every rejection in ``resilience.checkpoint.corrupt``.

Checkpoints exist to make interrupted-then-resumed runs **bit-identical**
to uninterrupted ones, so the helpers here serialize exactly the state
that determinism depends on: NumPy RNG bit-generator state
(:func:`rng_state_meta` / :func:`restore_rng_state`) and instruction
sequences (:func:`programs_to_arrays` / :func:`programs_from_arrays`) —
all exact-integer or raw-binary round trips, never text floats.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import CheckpointError, IsaError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import NULL_TRACER
from repro.resilience.atomic import (
    NPZ_DECODE_ERRORS,
    atomic_save_npz,
    atomic_write_bytes,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "rng_state_meta",
    "restore_rng_state",
    "programs_to_arrays",
    "programs_from_arrays",
]

#: Bump on incompatible checkpoint layout changes; newer-than-supported
#: checkpoints are refused on load.
CHECKPOINT_SCHEMA_VERSION = 1

_FORMAT = "apollo-repro-checkpoint"


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Checkpoint:
    """One loaded checkpoint: arrays + JSON meta + identity."""

    stage: str
    step: int
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)
    path: Path | None = None


class CheckpointStore:
    """Atomic, hash-verified checkpoint directory for one run.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per stage (created lazily).
    keep:
        Retain at most this many newest steps per stage (older ones are
        pruned after a successful save).  ``0`` keeps everything.
    metrics, tracer:
        ``resilience.checkpoint.*`` counters and ``checkpoint.save`` /
        ``checkpoint.load`` spans.
    faults:
        Optional :class:`~repro.resilience.faults.FaultInjector`; the
        ``checkpoint.write`` site can truncate a just-written payload
        (torn write) or raise a transient I/O error.
    """

    def __init__(
        self,
        root: str | Path,
        keep: int = 3,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        faults=None,
    ) -> None:
        if keep < 0:
            raise CheckpointError("keep must be >= 0")
        self.root = Path(root)
        self.keep = keep
        self.metrics = metrics if metrics is not None else default_registry()
        self.tracer = tracer or NULL_TRACER
        self.faults = faults

    # ------------------------------------------------------------------ #
    def _stage_dir(self, stage: str) -> Path:
        if not stage or "/" in stage or stage.startswith("."):
            raise CheckpointError(f"bad stage name {stage!r}")
        return self.root / stage

    def _paths(self, stage: str, step: int) -> tuple[Path, Path]:
        d = self._stage_dir(stage)
        base = f"step-{step:08d}"
        return d / f"{base}.npz", d / f"{base}.json"

    def steps(self, stage: str) -> list[int]:
        """Ascending step numbers with both payload and sidecar present."""
        d = self._stage_dir(stage)
        if not d.is_dir():
            return []
        out = []
        for sc in d.glob("step-*.json"):
            try:
                step = int(sc.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            if sc.with_suffix(".npz").exists():
                out.append(step)
        return sorted(out)

    # ------------------------------------------------------------------ #
    def save(
        self,
        stage: str,
        step: int,
        arrays: dict[str, np.ndarray],
        meta: dict | None = None,
    ) -> Path:
        """Atomically persist one checkpoint; returns the payload path.

        The payload is published first, then the sidecar (with the
        payload's hash) — a crash between the two leaves a payload
        without a sidecar, which :meth:`steps` ignores, so a half-saved
        checkpoint can never be resumed from.  Payloads are stored
        uncompressed: a checkpoint is short-lived recovery state, and
        zlib cost more than the rest of a GA generation's save.
        """
        npz, sidecar = self._paths(stage, step)
        npz.parent.mkdir(parents=True, exist_ok=True)
        with self.tracer.span(
            "checkpoint.save", stage=stage, step=step
        ):
            specs = (
                self.faults.raise_if("checkpoint.write")
                if self.faults is not None
                else []
            )
            atomic_save_npz(
                npz,
                {k: np.asarray(v) for k, v in arrays.items()},
                compressed=False,
            )
            record = {
                "format": _FORMAT,
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "stage": stage,
                "step": step,
                "sha256": _sha256_file(npz),
                "created_at": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
                "meta": meta or {},
            }
            if any(s.kind == "truncate" for s in specs):
                # torn write: the sidecar hash (computed above) will no
                # longer match the payload, so load() must reject it
                from repro.resilience.faults import truncate_file

                truncate_file(npz)
            atomic_write_bytes(
                sidecar, (json.dumps(record, indent=2) + "\n").encode()
            )
        self.metrics.counter("resilience.checkpoint.saves").inc()
        if self.keep:
            self._prune(stage)
        return npz

    def _prune(self, stage: str) -> None:
        for step in self.steps(stage)[: -self.keep]:
            npz, sidecar = self._paths(stage, step)
            npz.unlink(missing_ok=True)
            sidecar.unlink(missing_ok=True)
            self.metrics.counter("resilience.checkpoint.pruned").inc()

    # ------------------------------------------------------------------ #
    def load(self, stage: str, step: int) -> Checkpoint:
        """Load and verify one checkpoint; raise :class:`CheckpointError`
        on any inconsistency: a sidecar that is not a JSON object with
        int fields, a hash mismatch, a payload that does not decode."""
        npz, sidecar = self._paths(stage, step)
        with self.tracer.span(
            "checkpoint.load", stage=stage, step=step
        ):
            if not sidecar.exists() or not npz.exists():
                raise CheckpointError(
                    f"no checkpoint for stage {stage!r} step {step}"
                )
            try:
                record = json.loads(sidecar.read_text())
            except ValueError as exc:
                raise CheckpointError(
                    f"unreadable checkpoint sidecar {sidecar}: {exc}"
                ) from exc
            if not isinstance(record, dict) or record.get("format") != _FORMAT:
                raise CheckpointError(
                    f"{sidecar} is not a {_FORMAT} sidecar"
                )
            version = record.get("schema_version", 0)
            saved_step = record.get("step", step)
            meta = record.get("meta") or {}
            if (type(version) is not int or type(saved_step) is not int
                    or not isinstance(meta, dict)):
                raise CheckpointError(
                    f"{sidecar} needs int schema_version and step and an "
                    "object meta"
                )
            if version > CHECKPOINT_SCHEMA_VERSION:
                raise CheckpointError(
                    f"{sidecar} uses checkpoint schema v{version}, newer "
                    f"than supported v{CHECKPOINT_SCHEMA_VERSION}"
                )
            digest = _sha256_file(npz)
            if digest != record.get("sha256"):
                raise CheckpointError(
                    f"checkpoint payload {npz} is corrupt: content hash "
                    f"{digest[:12]} != recorded "
                    f"{str(record.get('sha256'))[:12]}"
                )
            try:
                with np.load(npz, allow_pickle=False) as data:
                    arrays = {k: data[k].copy() for k in data.files}
            except (OSError, *NPZ_DECODE_ERRORS) as exc:
                raise CheckpointError(
                    f"checkpoint payload {npz} failed to decode: {exc}"
                ) from exc
        self.metrics.counter("resilience.checkpoint.loads").inc()
        return Checkpoint(
            stage=stage, step=saved_step, arrays=arrays, meta=meta, path=npz
        )

    def latest(self, stage: str) -> Checkpoint | None:
        """Newest checkpoint that verifies, or ``None``.

        Corrupt steps are skipped (newest first) and counted in
        ``resilience.checkpoint.corrupt``.
        """
        for step in reversed(self.steps(stage)):
            try:
                return self.load(stage, step)
            except CheckpointError:
                self.metrics.counter("resilience.checkpoint.corrupt").inc()
        return None


# ---------------------------------------------------------------------- #
# deterministic-state serialization helpers
# ---------------------------------------------------------------------- #
def rng_state_meta(rng: np.random.Generator) -> dict:
    """JSON-safe snapshot of a Generator's bit-generator state.

    NumPy's PCG64 state is plain ints (arbitrary precision survives
    JSON round trips in Python), so restoring it reproduces the exact
    stream the interrupted run would have drawn.
    """
    return json.loads(json.dumps(rng.bit_generator.state))


def restore_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Restore a snapshot taken by :func:`rng_state_meta` in place."""
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"incompatible RNG state in checkpoint: {exc}"
        ) from exc


def programs_to_arrays(programs) -> tuple[dict[str, np.ndarray], list[str]]:
    """Pack Programs into exact-integer arrays plus a name list.

    Returns ``({"prog_fields": (total, 5) int16, "prog_offsets":
    (n+1,) int64}, names)`` — offsets delimit each program's rows, and
    the five columns are (opcode, dst, src1, src2, imm).  Every field
    fits int16 (the immediate is 12-bit signed); archives written with
    int64 fields load the same, since :func:`programs_from_arrays`
    widens whatever it reads.
    """
    programs = list(programs)
    rows = [
        (int(inst.opcode), inst.dst, inst.src1, inst.src2, inst.imm)
        for prog in programs
        for inst in prog.instructions
    ]
    fields = np.fromiter(
        chain.from_iterable(rows), dtype=np.int16, count=5 * len(rows)
    )
    offsets = np.cumsum([0] + [len(prog) for prog in programs])
    return (
        {
            "prog_fields": fields.reshape(-1, 5),
            "prog_offsets": offsets.astype(np.int64),
        },
        [prog.name for prog in programs],
    )


def programs_from_arrays(
    arrays: dict[str, np.ndarray], names: list[str]
) -> list:
    """Inverse of :func:`programs_to_arrays`.

    Raises :class:`CheckpointError` unless the arrays split into one
    valid program per name: ``prog_fields`` is (N, 5), the offsets run
    non-decreasing from 0 to N, and every row decodes.
    """
    from repro.isa.instructions import Instruction, Opcode
    from repro.isa.program import Program

    fields = np.asarray(arrays["prog_fields"], dtype=np.int64)
    offsets = np.asarray(arrays["prog_offsets"], dtype=np.int64)
    if fields.ndim != 2 or fields.shape[1] != 5:
        raise CheckpointError(
            f"program fields of shape {fields.shape}, want (N, 5)"
        )
    if (
        offsets.shape != (len(names) + 1,)
        or offsets[0] != 0
        or offsets[-1] != len(fields)
        or np.any(np.diff(offsets) < 0)
    ):
        raise CheckpointError(
            f"program offsets {offsets.tolist()} do not split "
            f"{len(fields)} rows into {len(names)} programs"
        )
    try:
        return [
            Program(
                str(name),
                tuple(
                    Instruction(
                        Opcode(int(op)), int(d), int(s1), int(s2), int(imm)
                    )
                    for op, d, s1, s2, imm in fields[lo:hi]
                ),
            )
            for name, lo, hi in zip(names, offsets[:-1], offsets[1:])
        ]
    except (ValueError, IsaError) as exc:
        raise CheckpointError(
            f"checkpoint program does not decode: {exc}"
        ) from exc
