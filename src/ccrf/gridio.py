"""Raw binary grid files.

A grid record is a little-endian header of three u32 values (height,
width, channels) followed by row-major float32 data.  A dataset's example
file holds its image, segmentation and target records back to back.
"""

from __future__ import annotations

import struct

import numpy as np

_HEADER = struct.Struct("<III")


def write_f32grids(path, arrays) -> None:
    """Write 2-D or 3-D arrays as raw float32 grid records, back to back."""
    chunks = []
    for values in arrays:
        arr = np.asarray(values, dtype=np.float32)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"expected a 2-D or 3-D array, got shape {arr.shape}")
        chunks += [_HEADER.pack(*arr.shape), np.ascontiguousarray(arr).tobytes()]
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_f32grids(path, count: int) -> list:
    """Read exactly ``count`` float32 grid records as float64 arrays,
    squeezing a lone channel axis."""
    with open(path, "rb") as fh:
        data = fh.read()
    arrays, offset = [], 0
    for index in range(count):
        if offset == len(data):
            raise ValueError(f"{path}: expected {count} grid records, found {index}")
        if len(data) - offset < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        height, width, channels = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size
        size = height * width * channels
        found = (len(data) - offset) // 4
        if found < size:
            raise ValueError(f"{path}: expected {size} values, found {found}")
        values = np.frombuffer(data, dtype="<f4", count=size, offset=offset)
        offset += 4 * size
        arr = values.reshape(height, width, channels).astype(np.float64)
        arrays.append(arr[:, :, 0] if channels == 1 else arr)
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} bytes after {count} grid records")
    return arrays

