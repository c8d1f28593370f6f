"""Seeded byte-level fuzzing of the file loaders.

Each file is truncated at every offset and then has a seeded sample of
single bytes flipped; whatever the bytes, a loader either returns or
raises ValueError, which the CLI turns into exit code 2.
"""

import numpy as np
import pytest

from ccrf import build_model, load_checkpoint, read_f32grids, save_checkpoint, write_f32grids
from ccrf.datasets import LabeledExample, read_manifest, write_manifest
from ccrf.graph import ImageGrid, SuperpixelSegmentation

FLIPS = 300


def mutations(data: bytes, seed: int):
    """Every proper prefix, then FLIPS copies with one byte changed."""
    for end in range(len(data)):
        yield data[:end]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        mutated = bytearray(data)
        mutated[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        yield bytes(mutated)


def fuzz(path, load, seed):
    original = path.read_bytes()
    for mutated in mutations(original, seed):
        path.write_bytes(mutated)
        try:
            load(path)
        except ValueError:
            pass
        except Exception as err:  # any other escape fails, naming the bytes
            pytest.fail(f"{type(err).__name__}: {err} escaped on bytes {mutated!r}")


def test_checkpoint(tmp_path):
    path = tmp_path / "tiny.ccrf"
    model = build_model(np.random.default_rng(0), 2, 2, (2,), (2,), 2)
    save_checkpoint(path, model)
    fuzz(path, load_checkpoint, seed=1)


def test_f32grid(tmp_path):
    path = tmp_path / "tiny.f32grid"
    write_f32grids(path, [np.linspace(0.0, 1.0, 24).reshape(2, 4, 3)])
    fuzz(path, lambda p: read_f32grids(p, 1), seed=2)


def tiny_examples(rng, count):
    label_map = np.repeat([0, 1], 32).reshape(8, 8)
    return [
        LabeledExample(
            ImageGrid(rng.uniform(0.0, 1.0, (8, 8))),
            SuperpixelSegmentation(label_map, 2),
            np.eye(2),
        )
        for _ in range(count)
    ]


def test_manifest(tmp_path):
    write_manifest(tmp_path, "train", "segmentation", tiny_examples(np.random.default_rng(3), 2))
    fuzz(tmp_path / "train.manifest", read_manifest, seed=4)


def test_example_file(tmp_path):
    write_manifest(tmp_path, "train", "segmentation", tiny_examples(np.random.default_rng(5), 1))
    fuzz(tmp_path / "train_0000.f32grids", lambda _: read_manifest(tmp_path / "train.manifest"), seed=6)
