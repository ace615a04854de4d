"""Versioned model registry with atomic hot swap.

The npz+sidecar artifacts (:meth:`~repro.opm.quantize.QuantizedModel.save`)
are already versioned on disk by schema; this registry adds the *fleet*
notion of version: named model generations (``"v1"``, ``"2026-08-08"``,
...) published into one store, exactly one of which is *active* at a
time.  The contract the gateway builds on:

* ``get(version)`` returns the pinned model for that version — unknown
  versions raise :class:`~repro.errors.ServeError` naming the available
  versions (never a raw ``KeyError``);
* ``activate(version)`` is atomic: a single reference assignment in
  memory (plus an atomically-written ``ACTIVE`` pointer file when the
  registry is disk-backed).  Sessions resolve the active version once,
  at open — so in-flight sessions finish on the model they pinned and
  only *new* sessions observe the swap;
* meters are cached per ``(version, t)``, so every session of a version
  shares one :class:`~repro.opm.meter.OpmMeter` (and the service groups
  their inference into one GEMV).
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ServeError
from repro.opm.meter import OpmMeter
from repro.opm.quantize import QuantizedModel

__all__ = ["ModelRegistry"]

#: Name of the active-version pointer file in a disk-backed registry.
ACTIVE_POINTER = "ACTIVE"


def _check_version(version: str) -> str:
    if (
        not version
        or not isinstance(version, str)
        or any(c in version for c in "/\\\0\n")
        or version == ACTIVE_POINTER
    ):
        raise ServeError(f"invalid model version name {version!r}")
    return version


class ModelRegistry:
    """Named model versions with one active pointer.

    Purely in-memory by default; pass ``root`` to mirror every publish
    to ``root/<version>.npz`` (+ JSON sidecar) and persist the active
    pointer, so a restarted gateway reopens the same fleet state via
    :meth:`open`.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self._models: dict[str, QuantizedModel] = {}
        self._active: str | None = None
        self._meters: dict[tuple[str, int], OpmMeter] = {}

    # -------------------------------------------------------------- #
    @classmethod
    def open(cls, root: str | Path) -> "ModelRegistry":
        """Reopen a disk-backed registry from its artifacts.

        Loads every ``<version>.npz`` with a ``QuantizedModel`` sidecar
        and restores the ``ACTIVE`` pointer if present and valid.
        """
        root = Path(root)
        if not root.is_dir():
            raise ServeError(f"registry directory {root} does not exist")
        reg = cls(root)
        for npz in sorted(root.glob("*.npz")):
            version = npz.name[: -len(".npz")]
            try:
                _check_version(version)
                model = QuantizedModel.load(npz)
            except Exception as exc:
                raise ServeError(
                    f"registry artifact {npz} failed to load: {exc}"
                ) from exc
            reg._models[version] = model
        pointer = root / ACTIVE_POINTER
        if pointer.exists():
            active = pointer.read_text().strip()
            if active not in reg._models:
                raise ServeError(
                    f"registry ACTIVE pointer names unknown version "
                    f"{active!r} (have {sorted(reg._models)})"
                )
            reg._active = active
        return reg

    # -------------------------------------------------------------- #
    def publish(
        self,
        version: str,
        model: QuantizedModel,
        activate: bool = False,
    ) -> None:
        """Add a model generation (optionally activating it).

        Re-publishing an existing version is rejected: versions are
        immutable, which is what makes pinning meaningful.
        """
        _check_version(version)
        if version in self._models:
            raise ServeError(
                f"model version {version!r} already published "
                "(versions are immutable; publish a new name)"
            )
        if self.root is not None:
            model.save(self.root / f"{version}.npz")
        self._models[version] = model
        if activate or self._active is None:
            self.activate(version)

    def get(self, version: str) -> QuantizedModel:
        """The model pinned by ``version`` (clear error when unknown)."""
        try:
            return self._models[version]
        except KeyError:
            raise ServeError(
                f"unknown model version {version!r}; registry has "
                f"{sorted(self._models) or 'no versions'}"
            ) from None

    def resolve(self, version: str | None) -> str:
        """Pin a concrete version: ``None`` means the active one."""
        if version is None:
            if self._active is None:
                raise ServeError(
                    "registry has no active model version to pin"
                )
            return self._active
        self.get(version)  # validate
        return version

    def activate(self, version: str) -> None:
        """Atomic hot swap of the active version.

        One reference assignment — concurrent ``resolve(None)`` calls
        see either the old or the new version, never a torn state.
        In-flight sessions are untouched: they hold their own meter.
        """
        self.get(version)  # validate before any state changes
        if self.root is not None:
            from repro.resilience.atomic import atomic_write_bytes

            atomic_write_bytes(
                self.root / ACTIVE_POINTER, (version + "\n").encode()
            )
        self._active = version

    # -------------------------------------------------------------- #
    @property
    def active_version(self) -> str | None:
        return self._active

    def versions(self) -> list[str]:
        return sorted(self._models)

    def meter(self, version: str, t: int) -> OpmMeter:
        """The shared per-``(version, T)`` meter (cached)."""
        version = self.resolve(version)
        key = (version, int(t))
        if key not in self._meters:
            self._meters[key] = OpmMeter(self.get(version), t=int(t))
        return self._meters[key]

    def describe(self) -> dict:
        """JSON-ready summary (for snapshots and the CLI)."""
        return {
            "active": self._active,
            "versions": {
                v: {"q": m.q, "bits": m.bits, "step": m.step}
                for v, m in sorted(self._models.items())
            },
            "root": str(self.root) if self.root is not None else None,
        }

    def __len__(self) -> int:
        return len(self._models)
