"""PCKP checkpoint files.

Layout (little-endian):

    magic   4 bytes  b"PCKP"
    version u32      (currently 1)
    meta    u32 length + UTF-8 `key=value` lines (architecture, roster, ...)
    count   u32
    record  x count: u16 name length, UTF-8 name, u8 rank, u32 dims[rank],
                     float32 payload
    crc32   u32 of everything before it

Optimizer moments and target statistics ride along as reserved names
(`__adam__/...`, `__stats__/...`); loaders that only need the model simply
skip them.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import ChecksumMismatch, IncompatibleVersion, MalformedContainer
from .files import read_file, write_file

PCKP_MAGIC = b"PCKP"
PCKP_VERSION = 1

ADAM_PREFIX = "__adam__/"
STATS_PREFIX = "__stats__/"


def encode_meta(meta: dict[str, str]) -> bytes:
    lines = [f"{k}={v}" for k, v in sorted(meta.items())]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def decode_meta(blob: bytes) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in blob.decode("utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        meta[key] = value
    return meta


def save_checkpoint(path: str, arrays: dict[str, np.ndarray], meta: dict[str, str]) -> None:
    """Write named float32 arrays plus a key=value meta block."""
    meta_blob = encode_meta(meta)
    parts = [PCKP_MAGIC, struct.pack("<II", PCKP_VERSION, len(meta_blob)), meta_blob,
             struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"parameter name too long: {name!r}")
        a = np.ascontiguousarray(arr, dtype="<f4")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack(f"<B{a.ndim}I", a.ndim, *a.shape), a]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    write_file(path, parts)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Named arrays and meta of a PCKP file. The arrays are views of one read
    buffer, so a caller that keeps an array copies it; a kept view holds the
    whole file in memory."""
    blob = read_file(path)
    if len(blob) < 16 or blob[:4] != PCKP_MAGIC:
        raise MalformedContainer(f"{path}: not a PCKP file")
    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    if zlib.crc32(memoryview(blob)[:-4]) != stored_crc:
        raise ChecksumMismatch(f"{path}: CRC mismatch")
    version, meta_len = struct.unpack_from("<II", blob, 4)
    if version != PCKP_VERSION:
        raise IncompatibleVersion(f"{path}: PCKP version {version}")
    end = len(blob) - 4  # every field ends before the CRC trailer
    pos = 12

    def take(size: int) -> int:
        """The offset of the next `size` bytes, which must fit; moves past them."""
        nonlocal pos
        start, pos = pos, pos + size
        if pos > end:
            raise MalformedContainer(f"{path}: a field runs past the end of the container")
        return start

    meta = decode_meta(blob[take(meta_len) : pos])
    (count,) = struct.unpack_from("<I", blob, take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, take(2))
        name = blob[take(name_len) : pos].decode("utf-8")
        rank = blob[take(1)]
        dims = struct.unpack_from(f"<{rank}I", blob, take(4 * rank))
        n = math.prod(dims)
        arrays[name] = np.frombuffer(blob, "<f4", n, take(4 * n)).reshape(dims)
    if pos != end:
        raise MalformedContainer(f"{path}: trailing bytes in container")
    return arrays, meta
