"""Atomic, durable file publication.

Every artifact the pipeline persists — cache entries, datasets, model
files, checkpoints — must never be observable half-written: a crashed
writer, a concurrent reader, or a resumed run must see either the old
content or the new content, nothing in between.  The pattern is the
classic one (write a temporary file *in the same directory*, fsync it,
``os.replace`` over the target, fsync the directory), centralized here
so every save path shares one audited implementation instead of the
three hand-rolled copies PR 4 left behind.

Same-directory temporaries matter twice over: ``os.replace`` is only
atomic within one filesystem, and a crash can only ever leak a tmp file
next to its target (cleaned up by the ``finally``), never a torn
target.
"""

from __future__ import annotations

import lzma
import os
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["NPZ_DECODE_ERRORS", "atomic_write", "atomic_write_bytes",
           "atomic_save_npz"]

#: What ``np.load`` and reading the members of a torn, corrupt or
#: foreign ``.npz`` raise (``RuntimeError`` covers a flipped compression
#: method or flag).  ``OSError`` is left out: a missing file or a
#: failing disk is not a bad archive.  A bad bzip2 stream is an
#: ``OSError`` too, so loaders that call any unreadable file corrupt
#: add it themselves.
NPZ_DECODE_ERRORS = (EOFError, KeyError, RuntimeError, TypeError,
                     ValueError, lzma.LZMAError, zipfile.BadZipFile,
                     zlib.error)


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry so the rename itself is durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, suffix: str = ""):
    """Context manager yielding a tmp path that is published on success.

    ``suffix`` keeps the target's extension on the temporary (needed for
    writers like ``np.savez`` that append one).  On an exception the tmp
    file is removed and the target left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp{suffix}")
    try:
        yield tmp
        with open(tmp, "rb+") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    finally:
        if tmp.exists():
            tmp.unlink()


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Atomically publish ``data`` at ``path`` (fsync'd)."""
    path = Path(path)
    with atomic_write(path) as tmp:
        tmp.write_bytes(data)
    return path


def atomic_save_npz(
    path: str | Path,
    arrays: dict[str, np.ndarray],
    compressed: bool = True,
) -> Path:
    """Atomically publish an ``.npz`` archive at ``path``.

    The tmp name keeps the ``.npz`` suffix so ``np.savez`` doesn't
    append another one.
    """
    path = Path(path)
    save: Callable = np.savez_compressed if compressed else np.savez
    with atomic_write(path, suffix=".npz") as tmp:
        save(tmp, **arrays)
    return path
