import struct

import numpy as np
import pytest

from ccrf.gridio import read_f32grid, write_f32grid


def test_f32grid_roundtrip_2d(tmp_path):
    path = tmp_path / "a.f32grid"
    values = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    write_f32grid(path, values)
    back = read_f32grid(path)
    assert back.shape == (3, 4)
    assert np.allclose(back, values, atol=1e-7)


def test_f32grid_roundtrip_3d(tmp_path):
    path = tmp_path / "b.f32grid"
    values = np.linspace(0, 1, 2 * 3 * 3).reshape(2, 3, 3)
    write_f32grid(path, values)
    back = read_f32grid(path)
    assert back.shape == (2, 3, 3)
    assert np.allclose(back, values, atol=1e-7)


def test_f32grid_header_layout(tmp_path):
    # little-endian u32 height, width, channels, then row-major float32
    path = tmp_path / "c.f32grid"
    write_f32grid(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = path.read_bytes()
    assert struct.unpack("<III", raw[:12]) == (2, 2, 1)
    assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_f32grid_rejects_truncation(tmp_path):
    path = tmp_path / "d.f32grid"
    write_f32grid(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_f32grid(path)


def test_f32grid_rejects_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        write_f32grid(tmp_path / "e.f32grid", np.ones(5))

