"""Small framed telemetry protocol for the serve gateway.

One frame is::

    u32 header_len | header JSON (utf-8) | u32 payload_len | payload

Headers are flat JSON objects with an ``op`` field; binary payloads
carry numpy arrays described by ``dtype``/``shape`` header fields, so a
toggle chunk crosses the wire as raw bytes, not JSON numbers.  The same
encoding is used by the asyncio transport and by the in-process client
(which round-trips frames through ``bytes`` to keep the two paths
honest with each other).

Client -> gateway ops: ``open``, ``data``, ``close``, ``stats``,
``ping`` (keepalive — refreshes the session's idle-reaping clock).
Gateway -> client ops: ``opened``, ``windows``, ``done``, ``stats``,
``pong``, ``error``.

Resilience header fields (all optional — old clients interoperate):

* ``open`` may carry ``priority`` (``"critical"``/``"besteffort"``,
  the admission shed class) and ``deadline_ticks`` (the session's
  tick budget before pending work downgrades to the degraded T-cycle
  fallback);
* ``data`` may carry ``seq``, a per-session 0-based data-frame
  counter the gateway verifies for contiguity — a lost or re-ordered
  frame is rejected, never silently folded in;
* ``windows`` carries ``seq``, the matching server-side counter
  clients verify in ``collect``;
* ``error`` carries ``shed: true`` plus a machine-readable ``reason``
  when the admission layer dropped the request (back off and retry),
  as opposed to a malformed-request error.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from repro.errors import ServeError

__all__ = [
    "encode_frame",
    "decode_frame",
    "read_frame",
    "encode_array",
    "decode_array",
    "FrameBuffer",
    "MAX_FRAME_BYTES",
]

_U32 = struct.Struct(">I")

#: Upper bound on a single frame (header + payload) — a malformed or
#: hostile length prefix fails fast instead of allocating gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: dtypes a DATA payload may carry (toggles in, readings out).
_ALLOWED_DTYPES = {"uint8", "int64", "float64"}


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame to bytes."""
    if "op" not in header:
        raise ServeError(f"frame header needs an 'op' field: {header}")
    blob = json.dumps(header, separators=(",", ":")).encode()
    if len(blob) + len(payload) > MAX_FRAME_BYTES:
        raise ServeError(
            f"frame of {len(blob) + len(payload)} bytes exceeds "
            f"MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    return _U32.pack(len(blob)) + blob + _U32.pack(len(payload)) + payload


def _bounded(kind: str, n: int) -> int:
    """``n`` if it is a legal frame part length, else :class:`ServeError`
    — checked before any bytes that length announces are buffered."""
    if n > MAX_FRAME_BYTES:
        raise ServeError(f"frame {kind} length {n} exceeds bound")
    return n


def _frame_end(data) -> int | None:
    """End offset of the frame at the start of ``data``, or None while
    its bytes are incomplete.

    Each u32 length prefix is bounded as soon as it is readable, so an
    oversized prefix raises :class:`~repro.errors.ServeError` before
    any of the bytes it announces are awaited or buffered.
    """
    if len(data) < 4:
        return None
    (hlen,) = _U32.unpack_from(data, 0)
    plen_at = 4 + _bounded("header", hlen)
    if len(data) < plen_at + 4:
        return None
    (plen,) = _U32.unpack_from(data, plen_at)
    end = plen_at + 4 + _bounded("payload", plen)
    return end if len(data) >= end else None


def decode_frame(data: bytes) -> tuple[dict, bytes, int]:
    """Decode one frame from the start of ``data``.

    Returns ``(header, payload, consumed)``; raises
    :class:`~repro.errors.ServeError` on a malformed, oversized or
    truncated frame.
    """
    end = _frame_end(data)
    if end is None:
        raise ServeError("truncated frame")
    (hlen,) = _U32.unpack_from(data, 0)
    try:
        header = json.loads(data[4 : 4 + hlen].decode())
    except ValueError as exc:
        raise ServeError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict) or "op" not in header:
        raise ServeError(f"frame header must be an object with 'op'")
    return header, bytes(data[4 + hlen + 4 : end]), end


async def read_frame(reader) -> tuple[dict, bytes]:
    """Read one ``(header, payload)`` frame from an asyncio stream.

    Each length prefix is bounded before the bytes it announces are
    read, so a hostile prefix can never make the reader buffer more
    than :data:`MAX_FRAME_BYTES`.  Raises
    :class:`~repro.errors.ServeError` on a bad frame and
    :class:`asyncio.IncompleteReadError` when the stream ends mid-frame.
    """
    head = await reader.readexactly(4)
    hlen = _bounded("header", _U32.unpack(head)[0])
    blob = await reader.readexactly(hlen + 4)
    plen = _bounded("payload", _U32.unpack_from(blob, hlen)[0])
    payload = await reader.readexactly(plen) if plen else b""
    header, body, _n = decode_frame(head + blob + payload)
    return header, body


def encode_array(arr: np.ndarray) -> tuple[dict, bytes]:
    """Array -> (header fields, payload bytes)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.name not in _ALLOWED_DTYPES:
        raise ServeError(
            f"dtype {arr.dtype.name!r} not allowed on the wire "
            f"(use one of {sorted(_ALLOWED_DTYPES)})"
        )
    return (
        {"dtype": arr.dtype.name, "shape": list(arr.shape)},
        arr.tobytes(),
    )


def decode_array(header: dict, payload: bytes) -> np.ndarray:
    """(header fields, payload bytes) -> array, validated."""
    dtype = header.get("dtype")
    shape = header.get("shape")
    if dtype not in _ALLOWED_DTYPES:
        raise ServeError(f"frame dtype {dtype!r} not allowed")
    if not isinstance(shape, list) or not all(
        isinstance(d, int) and d >= 0 for d in shape
    ):
        raise ServeError(f"frame shape {shape!r} is not a valid shape")
    arr = np.frombuffer(payload, dtype=np.dtype(dtype))
    expect = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if arr.size != expect:
        raise ServeError(
            f"frame payload holds {arr.size} elements, shape {shape} "
            f"needs {expect}"
        )
    return arr.reshape(shape)


class FrameBuffer:
    """Incremental frame parser for a byte stream."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[dict, bytes]]:
        """Append bytes; return every complete frame now available.

        Raises :class:`~repro.errors.ServeError` as soon as a length
        prefix exceeds :data:`MAX_FRAME_BYTES`, before buffering the
        bytes it announces.
        """
        self._buf.extend(data)
        frames = []
        while (end := _frame_end(self._buf)) is not None:
            header, payload, _n = decode_frame(self._buf[:end])
            del self._buf[:end]
            frames.append((header, payload))
        return frames

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
