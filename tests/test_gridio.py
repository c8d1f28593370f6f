import os
import struct

import numpy as np
import pytest

from ccrf import cli
from ccrf.gridio import read_f32grids, write_f32grids

from helpers import command_argv, fail_writes, only_run_dir, snapshot


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


# every artifact writer, as the command that runs it and the file it writes;
# synth writes the train split, with its manifest, before val_0000 and val.manifest
WRITERS = {
    "checkpoint": ("train", "checkpoint.ccrf"),
    "example_file": ("synth", "val_0000.f32grids"),
    "grid": ("synth", "train_0000.f32grids"),
    "history": ("train", "history.csv"),
    "metrics": ("eval", "metrics.csv"),
    "run_manifest": ("synth", "manifest.json"),
    "split_manifest": ("synth", "val.manifest"),
    "svg": ("ablate", "pixel_acc_vs_classes.svg"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_writer_leaves_no_partial_file(tmp_path, monkeypatch, writer):
    """A writer failing halfway inside a run leaves no file of that run
    visible, and keeps an earlier run of the same command byte-identical."""
    command, name = WRITERS[writer]
    argv = command_argv(tmp_path, command)
    out = tmp_path / "runs"

    def run(failing):
        with monkeypatch.context() as patch:
            opened = fail_writes(patch, lambda index, path: failing and os.path.basename(path) == name)
            code = cli.main([*argv, "--out", str(out)])
        assert name in map(os.path.basename, opened)
        return code

    assert run(failing=True) == 2
    assert os.listdir(out) == []

    assert run(failing=False) == 0
    run_dir = only_run_dir(out, command)
    earlier = snapshot(run_dir)
    assert name in earlier
    assert run(failing=True) == 2
    assert os.listdir(out) == [os.path.basename(run_dir)]
    assert snapshot(run_dir) == earlier
