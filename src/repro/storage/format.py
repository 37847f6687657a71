"""The one on-disk format of the storage subsystem.

Every file the storage layer writes — spill runs, the disk-backed
solution-set logs, part-store parts — is the same thing: a five-byte
header (the magic ``RPRT`` plus one format-version byte), then
length-prefixed pickle frames ``<u32 little-endian length><pickle
blob>``.  A spill file holds one frame per run or row list written, a
solution-set log one frame per stored record (read back by offset), and
a part exactly one frame, its record list.  The part-store manifest
JSON carries ``format_version``.

Readers validate the header before trusting a single byte, and a short
read anywhere raises :class:`StorageFormatError` naming the path, so a
stale file, one written by an incompatible build, or a torn one fails
loudly instead of deserializing garbage.  The framing is deliberately
dumb — storage files are session-scoped scratch, not an interchange
format — but the version byte means it can change without silent
corruption.
"""

from __future__ import annotations

import pickle
import struct

#: version 1's part magic, kept so an old part fails on its version
MAGIC = b"RPRT"
#: 2: one format for spills, logs and parts (1 had a magic per kind)
FRAME_VERSION = 2
#: part-store manifest JSON ``format_version``
MANIFEST_VERSION = 1

HEADER_SIZE = 5  # 4 magic bytes + 1 version byte
_HEADER = MAGIC + bytes([FRAME_VERSION])
_LENGTH = struct.Struct("<I")


class StorageFormatError(RuntimeError):
    """An on-disk storage file failed magic/version/frame validation."""


def write_header(fh) -> int:
    """Stamp the header at the current position; returns its size."""
    fh.write(_HEADER)
    return HEADER_SIZE


def read_header(fh, path: str) -> None:
    """Read and validate a header; raise :class:`StorageFormatError`."""
    header = fh.read(HEADER_SIZE)
    if len(header) != HEADER_SIZE or header[:4] != MAGIC:
        raise StorageFormatError(
            f"{path}: bad magic {header[:4]!r}, expected {MAGIC!r} — "
            "not a repro storage file"
        )
    found = header[4]
    if found != FRAME_VERSION:
        raise StorageFormatError(
            f"{path}: on-disk format version {found} does not match "
            f"this build's version {FRAME_VERSION}; the file was written "
            "by an incompatible build and cannot be read"
        )


def write_frame(fh, payload) -> int:
    """Append one length-prefixed pickle frame; returns bytes written."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(_LENGTH.pack(len(blob)))
    fh.write(blob)
    return _LENGTH.size + len(blob)


def read_frame(fh, path: str):
    """Read the frame at the current position; ``None`` at clean EOF."""
    prefix = fh.read(_LENGTH.size)
    if not prefix:
        return None
    if len(prefix) != _LENGTH.size:
        raise StorageFormatError(
            f"{path}: truncated frame length prefix"
        )
    (length,) = _LENGTH.unpack(prefix)
    blob = fh.read(length)
    if len(blob) != length:
        raise StorageFormatError(
            f"{path}: truncated frame body ({len(blob)}/{length} bytes)"
        )
    return pickle.loads(blob)


def read_frames(path: str):
    """Validate the header of the file at ``path``, then yield its
    frames in write order."""
    with open(path, "rb") as fh:
        read_header(fh, path)
        while True:
            frame = read_frame(fh, path)
            if frame is None:
                return
            yield frame
