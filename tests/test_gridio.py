import struct
from argparse import Namespace

import numpy as np
import pytest

from ccrf import build_model, gridio, save_checkpoint
from ccrf.cli import _write_run_manifest, _write_table
from ccrf.datasets import LabeledExample, write_manifest
from ccrf.graph import ImageGrid, SuperpixelSegmentation
from ccrf.gridio import atomic_open, read_f32grids, write_f32grids
from ccrf.svgplot import line_plot
from ccrf.training import EpochRecord, TrainHistory


def test_f32grid_roundtrip_2d(tmp_path):
    path = tmp_path / "a.f32grid"
    values = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
    write_f32grids(path, [values])
    back = read_f32grids(path, 1)[0]
    assert back.shape == (3, 4)
    assert np.allclose(back, values, atol=1e-7)


def test_f32grid_roundtrip_3d(tmp_path):
    path = tmp_path / "b.f32grid"
    values = np.linspace(0, 1, 2 * 3 * 3).reshape(2, 3, 3)
    write_f32grids(path, [values])
    back = read_f32grids(path, 1)[0]
    assert back.shape == (2, 3, 3)
    assert np.allclose(back, values, atol=1e-7)


def test_f32grid_header_layout(tmp_path):
    # little-endian u32 height, width, channels, then row-major float32
    path = tmp_path / "c.f32grid"
    write_f32grids(path, [np.array([[1.0, 2.0], [3.0, 4.0]])])
    raw = path.read_bytes()
    assert struct.unpack("<III", raw[:12]) == (2, 2, 1)
    assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_f32grid_rejects_truncation(tmp_path):
    path = tmp_path / "d.f32grid"
    write_f32grids(path, [np.ones((4, 4))])
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_f32grids(path, 1)


def test_f32grid_rejects_bad_rank(tmp_path):
    with pytest.raises(ValueError):
        write_f32grids(tmp_path / "e.f32grid", [np.ones(5)])


def _records():
    # a 2-D and a 3-D record, each exact in float32
    return [np.arange(12.0).reshape(3, 4) / 8.0, np.linspace(0.0, 1.0, 2 * 5 * 3).reshape(2, 5, 3)]


def test_f32grids_roundtrip_2d_and_3d(tmp_path):
    path = tmp_path / "r.f32grids"
    records = _records()
    write_f32grids(path, records)
    back = read_f32grids(path, 2)
    assert [a.shape for a in back] == [(3, 4), (2, 5, 3)]
    assert all(a.dtype == np.float64 for a in back)
    assert np.array_equal(back[0], records[0])
    assert np.array_equal(back[1], records[1].astype(np.float32))


def test_f32grids_are_f32grid_records_back_to_back(tmp_path):
    records = _records()
    for i, values in enumerate(records):
        write_f32grids(tmp_path / f"{i}.f32grid", [values])
    write_f32grids(tmp_path / "both.f32grids", records)
    single = [(tmp_path / f"{i}.f32grid").read_bytes() for i in range(2)]
    assert (tmp_path / "both.f32grids").read_bytes() == b"".join(single)


@pytest.mark.parametrize("count", [1, 3])
def test_f32grids_rejects_wrong_record_count(tmp_path, count):
    path = tmp_path / "r.f32grids"
    write_f32grids(path, _records())
    with pytest.raises(ValueError, match="grid records"):
        read_f32grids(path, count)


def test_f32grids_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "r.f32grids"
    write_f32grids(path, _records())
    path.write_bytes(path.read_bytes() + b"\0\0")
    with pytest.raises(ValueError, match="2 bytes after 2 grid records"):
        read_f32grids(path, 2)


# the first record is 12 header bytes and 48 data bytes
@pytest.mark.parametrize("end, message", [(64, "truncated header"), (-8, "expected 30 values, found 28")])
def test_f32grids_rejects_truncated_second_record(tmp_path, end, message):
    path = tmp_path / "r.f32grids"
    write_f32grids(path, _records())
    path.write_bytes(path.read_bytes()[:end])
    with pytest.raises(ValueError, match=message):
        read_f32grids(path, 2)


class _HalfWriteFile:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("simulated full disk")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


_EXAMPLE = LabeledExample(
    ImageGrid(np.full((8, 8), 0.5)), SuperpixelSegmentation(np.zeros((8, 8), dtype=int), 1), np.ones((1, 1))
)
_MODEL = build_model(np.random.default_rng(0), 4, 2, (3,), (3,), 2)
_HISTORY = TrainHistory("rmse", [EpochRecord(0, 1.5, 0.25, 1.0, 0.5)])
# every artifact writer, each writing into a directory
WRITERS = {
    "checkpoint": lambda d: save_checkpoint(d / "checkpoint.ccrf", _MODEL),
    "grid": lambda d: write_f32grids(d / "a.f32grid", [np.arange(6.0).reshape(2, 3)]),
    "history": lambda d: _HISTORY.write_csv(d / "history.csv"),
    "svg": lambda d: line_plot(
        d / "plot.svg", [("a", [0, 1], [2.0, 3.0])], title="t", xlabel="x", ylabel="y"
    ),
    "split_manifest": lambda d: write_manifest(d, "train", "depth", []),
    "example_file": lambda d: write_manifest(d, "train", "depth", [_EXAMPLE]),
    "run_manifest": lambda d: _write_run_manifest(
        str(d), "abc", "eval", Namespace(config=None), {"seed": "0"}
    ),
    "metrics": lambda d: _write_table(str(d), "metrics", ["a", "b"], [[1, 2]]),
}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_writer_leaves_no_partial_file(tmp_path, monkeypatch, writer):
    write = WRITERS[writer]
    real_open = open

    def failing_open(*args, **kwargs):
        return _HalfWriteFile(real_open(*args, **kwargs))

    with monkeypatch.context() as patch:
        patch.setattr(gridio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="simulated"):
            write(tmp_path)
    assert _snapshot(tmp_path) == {}

    write(tmp_path)
    earlier = _snapshot(tmp_path)
    assert earlier
    with monkeypatch.context() as patch:
        patch.setattr(gridio, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="simulated"):
            write(tmp_path)
    assert _snapshot(tmp_path) == earlier


def test_atomic_open_keeps_the_earlier_file_when_the_block_raises(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("earlier")
    with pytest.raises(KeyboardInterrupt):
        with atomic_open(path) as fh:
            fh.write("half of the new")
            raise KeyboardInterrupt
    assert path.read_text() == "earlier"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
    with atomic_open(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]
