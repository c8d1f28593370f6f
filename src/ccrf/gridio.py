"""Raw binary grid files, and the atomic writes every artifact goes through.

A ``.f32grid`` file is a little-endian header of three u32 values
(height, width, channels) followed by row-major float32 data.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

_HEADER = struct.Struct("<III")


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a file whose contents replace ``path`` once the block completes.

    Writes go to a temporary file in ``path``'s directory, which
    ``os.replace`` renames over ``path`` at the end.  If the block raises,
    the temporary file is removed and ``path`` keeps what it held, so an
    interrupted write leaves no partial file.  Nothing is fsynced: this
    guards against an interrupted process, not against a power loss.
    """
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_f32grid(path, values) -> None:
    """Write a 2-D or 3-D array as a raw float32 grid."""
    arr = np.asarray(values, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected a 2-D or 3-D array, got shape {arr.shape}")
    height, width, channels = arr.shape
    with atomic_open(path, "wb") as fh:
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

