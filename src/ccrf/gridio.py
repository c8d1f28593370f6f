"""Raw binary grid files.

A ``.f32grid`` file is a little-endian header of three u32 values
(height, width, channels) followed by row-major float32 data.
"""

from __future__ import annotations

import struct

import numpy as np

_HEADER = struct.Struct("<III")


def write_f32grid(path, values) -> None:
    """Write a 2-D or 3-D array as a raw float32 grid."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected a 2-D or 3-D array, got shape {arr.shape}")
    height, width, channels = arr.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(height, width, channels))
        fh.write(np.ascontiguousarray(arr).tobytes())


def read_f32grid(path) -> np.ndarray:
    """Read a raw float32 grid as float64, squeezing a lone channel axis."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        height, width, channels = _HEADER.unpack(header)
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != height * width * channels:
        raise ValueError(
            f"{path}: expected {height * width * channels} values, found {data.size}"
        )
    arr = data.reshape(height, width, channels).astype(np.float64)
    return arr[:, :, 0] if channels == 1 else arr

