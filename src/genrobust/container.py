"""Binary tensor container: the on-disk format for every artifact file.

Layout (all integers little-endian, independent of host byte order):

    magic            4 bytes  b"GRTC"
    version          u32     (currently 1)
    entry_count      u32
    per entry:
        name_len     u32
        name         name_len bytes of UTF-8
        dtype_code   u8      (1 = IEEE-754 single LE, 2 = double LE, 3 = u32 LE)
        rank         u8
        extents      rank x u64
        payload      prod(extents) * dtype_size bytes, row-major
    crc32            u32     CRC-32 of all preceding bytes

Writes are whole-file atomic (temp file + rename). String metadata rides
as reserved entries named "meta:<key>" holding UTF-8 bytes widened to u32.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from typing import Mapping

import numpy as np

__all__ = [
    "ContainerError",
    "FORMAT_VERSION",
    "save_container",
    "load_container",
    "encode_metadata",
    "decode_metadata",
    "metadata_entries",
    "atomic_write_text",
]

MAGIC = b"GRTC"
FORMAT_VERSION = 1

_DTYPE_BY_CODE = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<u4")}
_CODE_BY_KIND = {"f4": 1, "f8": 2, "u4": 3}


class ContainerError(ValueError):
    """Malformed or corrupt container file."""


class _Entries(dict):
    """name -> array; a lookup the file cannot serve names file and entry."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, name):
        raise ValueError(f"{self.path}: no entry {name!r}")


def _storage_array(name: str, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """Map an array onto one of the three wire dtypes."""
    a = np.asarray(arr)
    if a.dtype == np.float32:
        return 1, a.astype("<f4", copy=False)
    if a.dtype == np.float64:
        return 2, a.astype("<f8", copy=False)
    if a.dtype == np.uint32:
        return 3, a.astype("<u4", copy=False)
    if np.issubdtype(a.dtype, np.integer) or a.dtype == np.bool_:
        if a.size and (a.min() < 0 or a.max() > np.iinfo(np.uint32).max):
            raise ContainerError(f"entry {name!r}: integer values outside u32 range")
        return 3, a.astype("<u4")
    raise ContainerError(f"entry {name!r}: unsupported dtype {a.dtype}")


def save_container(path: str | os.PathLike, tensors: Mapping[str, np.ndarray]) -> None:
    """Write named tensors in the bit-exact layout above (atomic)."""
    names = list(tensors)
    if len(set(names)) != len(names):
        raise ContainerError("duplicate entry names")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<I", len(names))]
    for name in names:
        code, a = _storage_array(name, tensors[name])
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BB", code, a.ndim))
        parts.append(struct.pack(f"<{a.ndim}Q", *a.shape))
        parts.append(np.ascontiguousarray(a).tobytes())
    blob = b"".join(parts)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    _atomic_write(path, blob, ".grtc-")


def _atomic_write(path: str | os.PathLike, data: bytes, prefix: str) -> None:
    """Write a temp file beside path, then rename it over path.

    The file gets the mode a plain open() would give it (0o666 less the
    umask), not mkstemp's 0o600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ContainerError("truncated container")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]


def load_container(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read, CRC-check and validate a container; returns name -> array.
    A malformed file raises ContainerError naming the path."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _parse(blob, path)
    except ContainerError as err:
        raise ContainerError(f"{path}: {err}") from None


def _parse(blob: bytes, path) -> _Entries:
    if len(blob) < len(MAGIC) + 12:
        raise ContainerError("truncated container")
    body, tail = blob[:-4], blob[-4:]
    if struct.unpack("<I", tail)[0] != (zlib.crc32(body) & 0xFFFFFFFF):
        raise ContainerError("CRC mismatch")
    rd = _Reader(body)
    if rd.take(4) != MAGIC:
        raise ContainerError("bad magic")
    version = rd.u32()
    if version > FORMAT_VERSION:
        raise ContainerError(f"unsupported format version {version}")
    count = rd.u32()
    out = _Entries(path)
    for _ in range(count):
        name_len = rd.u32()
        try:
            name = rd.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ContainerError("entry name is not UTF-8") from None
        if name in out:
            raise ContainerError(f"duplicate entry {name!r}")
        code = rd.u8()
        dtype = _DTYPE_BY_CODE.get(code)
        if dtype is None:
            raise ContainerError(f"unknown dtype code {code}")
        rank = rd.u8()
        shape = struct.unpack(f"<{rank}Q", rd.take(8 * rank))
        payload = rd.take(math.prod(shape) * dtype.itemsize)
        try:
            arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
        except ValueError as err:  # extents numpy cannot hold, even around a zero
            raise ContainerError(f"entry {name!r}: impossible shape {shape} ({err})") from None
        out[name] = arr.astype(dtype.newbyteorder("="))
    if rd.pos != len(body):
        raise ContainerError("trailing bytes after last entry")
    return out


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Whole-file atomic text write (temp file + rename), UTF-8."""
    _atomic_write(path, text.encode("utf-8"), ".txt-")


# ---------------------------------------------------------------------------
# string metadata convention


def encode_metadata(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint32)


def decode_metadata(arr: np.ndarray) -> str:
    a = np.asarray(arr)
    if a.size and a.max() > 255:
        raise ContainerError("metadata entry holds non-byte values")
    return a.astype(np.uint8).tobytes().decode("utf-8")


def metadata_entries(meta: Mapping[str, str]) -> dict[str, np.ndarray]:
    return {f"meta:{k}": encode_metadata(v) for k, v in meta.items()}
