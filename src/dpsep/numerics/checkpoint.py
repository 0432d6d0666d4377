"""Binary checkpoint container shared by all modules.

Layout: 4-byte magic `DPSP`, uint32 LE format version, a length-prefixed
plain-text metadata section (key=value lines), a length-prefixed header
listing one `name<TAB>dtype<TAB>shape` line per tensor in a fixed order, then
the raw little-endian scalar data concatenated in header order.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .. import InputError

MAGIC = b"DPSP"
VERSION = 1

_DTYPES = {"float32": "<f4", "float64": "<f8"}


class CheckpointError(InputError):
    """Raised on malformed or inconsistent checkpoint files."""


def save_arrays(path, named_arrays, meta=None):
    """Write `named_arrays` (iterable of (name, ndarray)) plus metadata."""
    items = [(name, np.ascontiguousarray(arr)) for name, arr in named_arrays]
    meta_lines = []
    for key, value in (meta or {}).items():
        if "=" in key or "\n" in key or "\n" in str(value):
            raise CheckpointError(f"invalid metadata entry {key!r}")
        meta_lines.append(f"{key}={value}")
    meta_blob = "\n".join(meta_lines).encode("utf-8")
    header_lines = []
    for name, arr in items:
        if arr.dtype.name not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {arr.dtype.name} for tensor {name!r}")
        shape = ",".join(str(d) for d in arr.shape)
        header_lines.append(f"{name}\t{arr.dtype.name}\t{shape}")
    header_blob = "\n".join(header_lines).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(struct.pack("<I", len(header_blob)))
        fh.write(header_blob)
        for _, arr in items:
            fh.write(arr.astype(_DTYPES[arr.dtype.name], copy=False).tobytes())


def _read_u32(blob, pos, what):
    """uint32 LE at `pos` -> (value, position after it)."""
    if pos + 4 > len(blob):
        raise CheckpointError(f"file ends inside the {what}")
    return struct.unpack_from("<I", blob, pos)[0], pos + 4


def _read_text(blob, pos, what):
    """Length-prefixed UTF-8 section at `pos` -> (text, position after it)."""
    length, pos = _read_u32(blob, pos, f"{what} length")
    if pos + length > len(blob):
        raise CheckpointError(f"file ends inside the {what}")
    try:
        return blob[pos : pos + length].decode("utf-8"), pos + length
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not valid UTF-8") from None


def load_arrays(path):
    """Read a checkpoint; returns (meta dict, dict name -> ndarray in file order).

    Every read is bound-checked: a truncated or corrupt file raises
    CheckpointError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic in {path}: expected {MAGIC!r}, got {blob[:4]!r}")
    version, pos = _read_u32(blob, 4, "format version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    meta_text, pos = _read_text(blob, pos, "metadata")
    meta = {}
    for line in meta_text.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        meta[key] = value
    header_text, pos = _read_text(blob, pos, "tensor header")

    arrays = {}
    for line in header_text.splitlines():
        if not line:
            continue
        try:
            name, dtype_name, shape_text = line.split("\t")
        except ValueError:
            raise CheckpointError(f"malformed header line {line!r}") from None
        if dtype_name not in _DTYPES:
            raise CheckpointError(f"unsupported dtype {dtype_name!r} in header")
        try:
            shape = tuple(int(d) for d in shape_text.split(",")) if shape_text else ()
            if any(d < 0 for d in shape):
                raise ValueError
        except ValueError:
            raise CheckpointError(f"malformed shape {shape_text!r} for tensor {name!r}") from None
        count = math.prod(shape)
        nbytes = count * np.dtype(_DTYPES[dtype_name]).itemsize
        if pos + nbytes > len(blob):
            raise CheckpointError(f"truncated data for tensor {name!r}")
        arr = np.frombuffer(blob, dtype=_DTYPES[dtype_name], count=count, offset=pos)
        arrays[name] = arr.reshape(shape).astype(dtype_name)
        pos += nbytes
    if pos != len(blob):
        raise CheckpointError(f"{len(blob) - pos} trailing bytes after tensor data")
    return meta, arrays
