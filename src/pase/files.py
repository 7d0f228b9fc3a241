"""Whole-file reads and writes. Every container and text file the package
reads or writes in one piece goes through these two functions, so an
`OSError` always surfaces as `IoFailure` and no payload is copied on the way.
"""

from __future__ import annotations

import os

from .errors import IoFailure


def read_file(path: str) -> bytearray:
    """The file's bytes, read with one `readinto` into a buffer of its size."""
    try:
        with open(path, "rb", buffering=0) as fh:
            buf = bytearray(os.fstat(fh.fileno()).st_size)
            got = fh.readinto(buf)
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    if got != len(buf):
        raise IoFailure(f"cannot read {path}: short read, {got} of {len(buf)} bytes")
    return buf


def write_file(path: str, parts) -> None:
    """Write each buffer of `parts` in order to `path`, with nothing joined."""
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
