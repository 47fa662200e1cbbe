"""Binary checkpoint format.

Layout: magic `RTDA`, u32 version, u64 iteration, u32 tensor count,
then per tensor a u16 name length, the UTF-8 name, a u8 rank, one u32
per dimension, and the float32 payload, all little-endian; the file ends
with a u64 checksum equal to the sum of every preceding byte mod 2^64.
Tensors are written in sorted name order so identical contents always
produce identical bytes.

Reading and writing stream: each payload goes straight between its
array and the file, and the checksum is kept as a running byte sum, so
neither direction holds a second copy of the state. A reader may keep
only the tensors whose names match a filter; the others still pass
through the checksum. `save_checkpoint` writes a temporary file next to
the target, syncs it and renames it over the target, so a save that
fails part-way leaves the previous file intact. `serialize` and
`deserialize` run the same streaming code over an in-memory buffer.

Everything stored is float32. Integer state (iteration counters, RNG
seeds) rides along exactly as long as each stored limb stays below 2^24;
callers split wider values into 16-bit limbs.
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

MAGIC = b"RTDA"
VERSION = 1

_HEADER = struct.Struct("<IQ I")
_CHECKSUM = struct.Struct("<Q")
_MASK = 0xFFFFFFFFFFFFFFFF
_CHUNK = 1 << 20  # scratch size for payloads a filtered read skips


class CheckpointError(ValueError):
    pass


def seed_to_limbs(seed: int) -> np.ndarray:
    """64-bit value as four base-2^16 limbs, low first, exact in float32."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    return np.array([(seed >> (16 * i)) & 0xFFFF for i in range(4)], dtype=np.float32)


def _byte_sum(buf) -> int:
    return int(np.frombuffer(buf, dtype=np.uint8).sum(dtype=np.uint64))


def _write(f, iteration: int, tensors: dict) -> None:
    """Stream the checkpoint of `tensors` to the binary file `f`."""
    if iteration < 0:
        raise ValueError("iteration must be nonnegative")
    total = 0

    def put(buf) -> None:
        nonlocal total
        f.write(buf)
        total += _byte_sum(buf)

    put(MAGIC + _HEADER.pack(VERSION, iteration, len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.dtype != np.float32:
            raise CheckpointError(f"tensor {name} must be float32, got {arr.dtype}")
        if arr.ndim > 255:
            raise CheckpointError(f"tensor {name} rank {arr.ndim} exceeds format limit")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise CheckpointError(f"tensor name too long: {name[:32]}...")
        put(struct.pack("<H", len(encoded)) + encoded
            + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape))
        put(np.ascontiguousarray(arr, dtype="<f4").reshape(-1).view(np.uint8))
    f.write(_CHECKSUM.pack(total & _MASK))


class _Reader:
    """Exact-length reads from a binary file of known size, summing every
    byte they return."""

    def __init__(self, f, size: int):
        self.f = f
        self.left = size
        self.total = 0

    def take(self, n: int) -> bytes:
        buf = self.f.read(n) if n <= self.left else b""
        if len(buf) != n:
            raise CheckpointError("truncated checkpoint")
        self.left -= n
        self.total += _byte_sum(buf)
        return buf

    def fill(self, out: np.ndarray) -> None:
        """Read exactly out.nbytes bytes into the contiguous array `out`."""
        view = out.reshape(-1).view(np.uint8)
        if view.size > self.left or self.f.readinto(view) != view.size:
            raise CheckpointError("truncated checkpoint")
        self.left -= view.size
        self.total += int(view.sum(dtype=np.uint64))

    def skip(self, n: int, scratch: np.ndarray) -> None:
        while n:
            step = min(n, scratch.size)
            self.fill(scratch[:step])
            n -= step


def _read(f, keep=None):
    """Parse a checkpoint streamed from the binary file `f`; with `keep`, a
    tuple of name prefixes, only matching tensors are returned, but every
    byte is still checksummed."""
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    if size < 28:
        raise CheckpointError("truncated checkpoint")
    r = _Reader(f, size - _CHECKSUM.size)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic")
    scratch = None
    tensors = {}
    try:
        version, iteration, count = _HEADER.unpack(r.take(_HEADER.size))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<H", r.take(2))
            name = r.take(name_len).decode("utf-8")
            (rank,) = struct.unpack("<B", r.take(1))
            dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
            nbytes = 4 * math.prod(dims)
            if nbytes > r.left:
                raise CheckpointError("truncated checkpoint")
            if keep is None or name.startswith(keep):
                arr = np.empty(dims, dtype="<f4")
                r.fill(arr)
                tensors[name] = arr.astype(np.float32, copy=False)
            else:
                if scratch is None:
                    scratch = np.empty(_CHUNK, dtype=np.uint8)
                r.skip(nbytes, scratch)
        if r.left:
            raise CheckpointError("trailing bytes after last tensor")
    except ValueError as exc:
        # A corrupt byte can surface as any structural error; report the
        # checksum first, as a whole-file check before parsing would.
        if not _checksum_ok(f, size):
            raise CheckpointError("checksum mismatch") from None
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"truncated checkpoint: {exc}") from exc
    (stored,) = _CHECKSUM.unpack(f.read(_CHECKSUM.size))
    if r.total & _MASK != stored:
        raise CheckpointError("checksum mismatch")
    return iteration, tensors


def _checksum_ok(f, size: int) -> bool:
    f.seek(0)
    r = _Reader(f, size - _CHECKSUM.size)
    r.skip(r.left, np.empty(min(_CHUNK, r.left), dtype=np.uint8))
    (stored,) = _CHECKSUM.unpack(f.read(_CHECKSUM.size))
    return r.total & _MASK == stored


def serialize(iteration: int, tensors: dict) -> bytes:
    buf = io.BytesIO()
    _write(buf, iteration, tensors)
    return buf.getvalue()


def deserialize(blob: bytes, keep=None):
    return _read(io.BytesIO(blob), keep)


def save_checkpoint(path: str, iteration: int, tensors: dict) -> None:
    """Write atomically: a failed save leaves any previous file at `path`."""
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as f:
            _write(f, iteration, tensors)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def load_checkpoint(path: str, keep=None):
    """(iteration, tensors) from a checkpoint file; with `keep`, a tuple of
    name prefixes, only the matching tensors."""
    with open(path, "rb") as f:
        return _read(f, keep)
