"""Labelled examples, dataset containers, and manifest I/O.

A dataset directory holds one manifest per split (train/val/test).  Each
manifest is a plain text file: comment lines start with '#', the first
data line tags the task, and every following line names one example file,
relative to the manifest.  An example file holds three grid records back
to back: the image, the segmentation and the targets.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .graph import ImageGrid, SuperpixelSegmentation
from .gridio import atomic_open, read_f32grids, write_f32grids

TASKS = ("segmentation", "depth")
SPLIT_MANIFESTS = {
    "train": "train.manifest",
    "val": "val.manifest",
    "test": "test.manifest",
}


@dataclass
class LabeledExample:
    """An image, its node segmentation, and per-node target vectors."""

    image: ImageGrid
    seg: SuperpixelSegmentation
    targets: np.ndarray  # (n, m) one-hot rows or (n, 1) regression values

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[0] != self.seg.n:
            raise ValueError(
                f"targets must be ({self.seg.n}, m), got shape {targets.shape}"
            )
        if not np.isfinite(targets).all():
            raise ValueError("targets must be finite")
        if self.seg.shape != (self.image.height, self.image.width):
            raise ValueError("segmentation does not match image size")
        self.targets = targets


@dataclass
class Dataset:
    task: str
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")

    def split(self, name: str) -> list:
        if name not in SPLIT_MANIFESTS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def write_manifest(directory, split: str, task: str, examples) -> None:
    """Write one split: the manifest plus one example file per example."""
    os.makedirs(directory, exist_ok=True)
    lines = ["# dataset manifest", f"task={task}"]
    for i, example in enumerate(examples):
        name = f"{split}_{i:04d}.f32grids"
        records = (example.image.values, example.seg.label_map.astype(np.float64), example.targets)
        write_f32grids(os.path.join(directory, name), records)
        lines.append(name)
    with atomic_open(os.path.join(directory, SPLIT_MANIFESTS[split])) as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> tuple[str, list]:
    """Load one manifest; returns (task, examples)."""
    directory = os.path.dirname(os.path.abspath(path))
    task = None
    examples = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if task is None:
                if not line.startswith("task="):
                    raise ValueError(f"{path}:{lineno}: expected a task tag line")
                task = line.split("=", 1)[1].strip()
                if task not in TASKS:
                    raise ValueError(f"{path}:{lineno}: unknown task {task!r}")
                continue
            parts = line.split()
            if len(parts) == 3:
                raise ValueError(
                    f"{path}:{lineno}: names three grid files, the layout before one "
                    "file per example; regenerate the dataset with `ccrf synth`"
                )
            if len(parts) != 1:
                raise ValueError(f"{path}:{lineno}: expected one example file name")
            try:
                img, seg_values, targets = read_f32grids(os.path.join(directory, parts[0]), 3)
            except OSError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
            # NaN fails every comparison; the bound keeps the cast exact
            whole = (seg_values >= 0) & (seg_values < seg_values.size)
            if not (whole & (seg_values == np.floor(seg_values))).all():
                raise ValueError(
                    f"{path}:{lineno}: node indices must be whole numbers in "
                    f"[0, {seg_values.size}), the number of pixels"
                )
            label_map = seg_values.astype(np.int64)
            seg = SuperpixelSegmentation(label_map, int(label_map.max()) + 1)
            examples.append(LabeledExample(ImageGrid(img), seg, targets))
    if task is None:
        raise ValueError(f"{path}: manifest has no task tag")
    return task, examples


def save_dataset(dataset: Dataset, directory) -> None:
    for split in SPLIT_MANIFESTS:
        write_manifest(directory, split, dataset.task, dataset.split(split))


def load_dataset(directory, splits=tuple(SPLIT_MANIFESTS)) -> Dataset:
    """Read the manifests of ``splits`` present under ``directory``; every
    other split loads empty."""
    task = None
    loaded = {split: [] for split in SPLIT_MANIFESTS}
    for split in splits:
        path = os.path.join(directory, SPLIT_MANIFESTS[split])
        if not os.path.exists(path):
            continue
        split_task, examples = read_manifest(path)
        if task is None:
            task = split_task
        elif task != split_task:
            raise ValueError(f"{directory}: split manifests disagree on the task")
        loaded[split] = examples
    if task is None:
        raise ValueError(f"{directory}: no {'/'.join(splits)} manifest found")
    return Dataset(task, loaded["train"], loaded["val"], loaded["test"])
