"""Binary codec for map sets (PMAP1 format).

Layout, all little-endian:

    offset 0   5 bytes   magic "PMAP1"
    offset 5   u8        kind: 0 = confidence, 1 = regression
    offset 6   u32       K, number of joint channels
    offset 10  u32       H, rows
    offset 14  u32       W, columns
    offset 18  payload   float32 values, C order [joint][row][col] for
                         confidence and [joint][row][col][component] for
                         regression, components ordered (x, y)

Encoding a decoded file reproduces it byte for byte.  Files are written
from the maps' own float32 buffer after the header, so writing makes no
copy of the payload on a little-endian host.

Files are read through a read-only memory map rather than copied into
memory: decoding scans the whole confidence payload but samples the
regression payload only under joint candidates, and each read would
otherwise fault in a fresh multi-megabyte buffer.  The maps view the file,
so it must not be rewritten while maps read from it are in use.  Files
that cannot be mapped (empty files, pipes) are read instead.
"""
from __future__ import annotations

import math
import mmap
import struct

import numpy as np

from .errors import MapFormatError
from .maps import ConfidenceMapSet, RegressionMapSet

MAGIC = b"PMAP1"
KIND_CONFIDENCE = 0
KIND_REGRESSION = 1
_HEADER = struct.Struct("<5sBIII")
HEADER_SIZE = _HEADER.size  # 18 bytes
# The class a kind byte decodes to; its _tail is the per-cell payload shape.
_KINDS = {KIND_CONFIDENCE: ConfidenceMapSet, KIND_REGRESSION: RegressionMapSet}


def _header(maps: ConfidenceMapSet | RegressionMapSet) -> bytes:
    for kind, cls in _KINDS.items():
        if isinstance(maps, cls):
            return _HEADER.pack(MAGIC, kind, maps.num_joints, maps.height, maps.width)
    raise MapFormatError("cannot encode %r as a map set" % type(maps).__name__)


def _payload(maps: ConfidenceMapSet | RegressionMapSet) -> memoryview:
    # The frozen float32 maps on a little-endian host are already "<f4" and
    # C-contiguous, so this views their own buffer rather than copying it.
    return memoryview(np.ascontiguousarray(maps.values, dtype="<f4"))


def encode_map_set(maps: ConfidenceMapSet | RegressionMapSet) -> bytes:
    """Serialize one map set to PMAP1 bytes."""
    return _header(maps) + _payload(maps)


def decode_map_set(data: bytes) -> ConfidenceMapSet | RegressionMapSet:
    """Parse PMAP1 bytes, raising MapFormatError with the failing offset."""
    if len(data) < HEADER_SIZE:
        raise MapFormatError(
            "file is %d bytes, shorter than the %d byte header (offset %d)"
            % (len(data), HEADER_SIZE, len(data))
        )
    magic, kind, k, h, w = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise MapFormatError("bad magic %r at offset 0, expected %r" % (magic, MAGIC))
    cls = _KINDS.get(kind)
    if cls is None:
        raise MapFormatError("unknown map kind %d at offset 5" % kind)
    if k < 1 or h < 1 or w < 1:
        raise MapFormatError("degenerate dimensions K=%d H=%d W=%d in header" % (k, h, w))
    shape = (k, h, w) + cls._tail
    expected = math.prod(shape) * 4
    actual = len(data) - HEADER_SIZE
    if actual != expected:
        raise MapFormatError(
            "payload is %d bytes, expected %d for K=%d H=%d W=%d (offset %d)"
            % (actual, expected, k, h, w, len(data))
        )
    return cls(np.frombuffer(data, dtype="<f4", offset=HEADER_SIZE).reshape(shape))


def write_map_set(maps: ConfidenceMapSet | RegressionMapSet, path) -> None:
    """Write the PMAP1 bytes of one map set: the header, then the maps' buffer."""
    header = _header(maps)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_payload(maps))


def read_map_set(path) -> ConfidenceMapSet | RegressionMapSet:
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):  # empty files and pipes cannot be mapped
            data = fh.read()
    try:
        return decode_map_set(data)
    except MapFormatError as exc:
        raise MapFormatError("%s: %s" % (path, exc)) from exc


def _read_kind(path, cls):
    maps = read_map_set(path)
    if not isinstance(maps, cls):
        raise MapFormatError("%s holds %s, expected %s" % (path, maps._what, cls._what))
    return maps


def read_confidence(path) -> ConfidenceMapSet:
    return _read_kind(path, ConfidenceMapSet)


def read_regression(path) -> RegressionMapSet:
    return _read_kind(path, RegressionMapSet)
