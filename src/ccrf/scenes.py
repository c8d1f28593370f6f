"""Synthetic scenes and the target-corruption protocol.

Segmentation scenes drop colored rectangles and ellipses on a background,
with per-class palette colors and pixel noise; depth scenes combine a
planar ramp with Gaussian bumps, rendered as a shaded intensity image.
Both pool their dense ground truth to node-level targets over a grid
segmentation, which is what training consumes.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass, replace

import numpy as np

from .datasets import TASKS, Dataset, LabeledExample
from .graph import ImageGrid, grid_segment, pool_features

_CORRUPTION_KINDS = ("gaussian_noise", "outlier")


@dataclass(frozen=True)
class SyntheticSceneSpec:
    """Everything a scene draw depends on, seed included."""

    task: str = "segmentation"
    size: int = 64
    classes: int = 4
    shape_count: int = 6
    noise_level: float = 0.2
    target_nodes: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.size < 32:
            raise ValueError(f"scene size must be at least 32, got {self.size}")
        if self.task == "segmentation" and self.classes < 2:
            raise ValueError(f"need at least two classes, got {self.classes}")
        if self.shape_count < 0:
            raise ValueError("shape_count must be nonnegative")
        # NaN fails every comparison, so the level is checked finite first
        if not (np.isfinite(self.noise_level) and self.noise_level >= 0):
            raise ValueError(f"noise_level must be finite and nonnegative, got {self.noise_level}")
        if self.target_nodes < 1:
            raise ValueError("target_nodes must be positive")


@dataclass(frozen=True)
class CorruptionSpec:
    """Which targets get corrupted and how hard."""

    kind: str
    fraction: float
    sigma: float = 0.1
    magnitude: float = 5.0

    def __post_init__(self):
        if self.kind not in _CORRUPTION_KINDS:
            raise ValueError(f"unknown corruption {self.kind!r}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction}")
        # NaN fails every comparison, so both constants are checked finite first
        if not (np.isfinite(self.sigma) and np.isfinite(self.magnitude)):
            raise ValueError(
                f"sigma and magnitude must be finite, got {self.sigma} and {self.magnitude}"
            )
        if self.sigma <= 0 and self.kind == "gaussian_noise":
            raise ValueError("sigma must be positive")
        if self.magnitude <= 0 and self.kind == "outlier":
            raise ValueError("magnitude must be positive")


def class_palette(num_classes: int) -> np.ndarray:
    """Well-separated RGB colors, one per class; class 0 is the background."""
    colors = []
    for j in range(num_classes):
        value = 0.9 if j % 2 == 0 else 0.55
        colors.append(colorsys.hsv_to_rgb(j / num_classes, 0.75, value))
    return np.array(colors)


def _shape_mask(size, kind, cy, cx, ry, rx):
    """A rectangle (kind 0) or an ellipse with half-axes (ry, rx) about (cy, cx).

    Returns ``(box, mask)``: ``box`` is a (rows, cols) pair of slices that
    holds every pixel of the shape, with a pixel of margin against rounding,
    and ``mask`` is the shape's formula evaluated on the pixels of ``box``.
    """
    row_range = max(math.floor(cy - ry) - 1, 0), min(math.ceil(cy + ry) + 2, size)
    col_range = max(math.floor(cx - rx) - 1, 0), min(math.ceil(cx + rx) + 2, size)
    rows = np.arange(*row_range)[:, None]
    cols = np.arange(*col_range)[None, :]
    box = slice(*row_range), slice(*col_range)
    if kind == 0:
        return box, (np.abs(rows - cy) <= ry) & (np.abs(cols - cx) <= rx)
    return box, ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0


def _draw_shapes(rng, size, shape_count, class_range):
    """Paint random rectangles and ellipses; returns the dense class map."""
    labels = np.zeros((size, size), dtype=np.int64)
    for _ in range(shape_count):
        cls = int(rng.integers(1, class_range)) if class_range > 1 else 0
        kind = rng.integers(0, 2)
        cy, cx = rng.uniform(0, size, size=2)
        ry, rx = rng.uniform(size / 8, size / 3, size=2)
        box, mask = _shape_mask(size, kind, cy, cx, ry, rx)
        labels[box][mask] = cls
    return labels


def gen_segmentation_scene(spec: SyntheticSceneSpec) -> LabeledExample:
    """One labelled segmentation scene with one-hot node targets.

    When at least one shape is requested, scenes whose node-level truth
    collapses to a single class are redrawn from a derived seed; with
    shape_count == 0 the all-background outcome is the intended result.
    """
    if spec.task != "segmentation":
        raise ValueError("spec does not describe a segmentation scene")
    palette = class_palette(spec.classes)
    for attempt in range(64):
        rng = np.random.default_rng([spec.seed, attempt])
        labels_px = _draw_shapes(rng, spec.size, spec.shape_count, spec.classes)
        image = palette[labels_px]
        if spec.noise_level > 0:
            image = image + rng.normal(0.0, spec.noise_level, size=image.shape)
        image = ImageGrid(np.clip(image, 0.0, 1.0))
        seg = grid_segment(image, spec.target_nodes)

        pairs = seg.label_map.ravel() * spec.classes + labels_px.ravel()
        votes = np.bincount(pairs, minlength=seg.n * spec.classes).reshape(seg.n, spec.classes)
        node_class = np.argmax(votes, axis=1)  # ties resolve to the lowest class
        if spec.shape_count == 0 or len(np.unique(node_class)) >= 2:
            targets = np.zeros((seg.n, spec.classes))
            targets[np.arange(seg.n), node_class] = 1.0
            return LabeledExample(image, seg, targets)
    raise RuntimeError(f"could not draw two classes for seed {spec.seed}")


def normalize_depth_map(depth: np.ndarray) -> np.ndarray:
    """Min-max normalize to [0, 1]; a range below 1e-9 collapses to 0.5."""
    span = float(depth.max() - depth.min())
    if span < 1e-9:
        return np.full_like(depth, 0.5)
    return (depth - depth.min()) / span


def _rough_field(rng, size, cells, sigma):
    """Bilinear upsample of a coarse Gaussian grid: bumpy surface relief."""
    coarse = rng.normal(0.0, sigma, size=(cells + 1, cells + 1))
    g = np.linspace(0.0, float(cells), size)
    i0 = np.minimum(np.floor(g).astype(int), cells - 1)
    f = g - i0
    fy, fx = f[:, None], f[None, :]
    r0, r1 = i0, i0 + 1
    return (
        (1 - fy) * (1 - fx) * coarse[np.ix_(r0, r0)]
        + (1 - fy) * fx * coarse[np.ix_(r0, r1)]
        + fy * (1 - fx) * coarse[np.ix_(r1, r0)]
        + fy * fx * coarse[np.ix_(r1, r1)]
    )


def gen_depth_scene(spec: SyntheticSceneSpec) -> LabeledExample:
    """One depth scene: a sloped backdrop occluded by objects on depth planes.

    Every object sits on its own gently tilted plane, so silhouette borders
    are genuine step discontinuities; nearer objects paint over farther ones.
    Surface relief at roughly superpixel scale keeps targets from being
    locally flat.  Each surface also carries its own albedo, and the image
    records albedo times depth-dependent shading: brightness alone does not
    pin down depth, so appearance is only a partial depth cue, as in real
    monocular data.
    """
    if spec.task != "depth":
        raise ValueError("spec does not describe a depth scene")
    rng = np.random.default_rng([spec.seed])
    size = spec.size
    u = (np.arange(size) / (size - 1))[:, None]
    v = (np.arange(size) / (size - 1))[None, :]
    slope = rng.uniform(-1.0, 1.0, size=2)
    depth = 0.5 + 0.5 * (slope[0] * (u - 0.5) + slope[1] * (v - 0.5))
    albedo = np.full((size, size), rng.uniform(0.3, 1.0))
    shapes = []
    for _ in range(spec.shape_count):
        level = rng.uniform(0.0, 1.0)
        tilt = rng.uniform(-0.2, 0.2, size=2)
        kind = int(rng.integers(0, 2))
        cy, cx = rng.uniform(0, size, size=2)
        ry, rx = rng.uniform(size / 8, size / 3, size=2)
        shapes.append((level, tilt, kind, cy, cx, ry, rx, rng.uniform(0.3, 1.0)))
    # painter's order: farthest (largest depth) first, so nearer occludes
    for level, tilt, kind, cy, cx, ry, rx, alb in sorted(shapes, reverse=True, key=lambda s: s[0]):
        box, mask = _shape_mask(size, kind, cy, cx, ry, rx)
        rows, cols = box
        plane = level + tilt[0] * (u[rows] - cy / (size - 1)) + tilt[1] * (v[:, cols] - cx / (size - 1))
        depth[box][mask] = plane[mask]
        albedo[box][mask] = alb
    depth = depth + _rough_field(rng, size, max(size // 8, 2), 0.15)
    depth = normalize_depth_map(depth)

    shading = albedo * (0.25 + 0.75 * depth)
    if spec.noise_level > 0:
        shading = shading + rng.normal(0.0, spec.noise_level, size=shading.shape)
    image = ImageGrid(np.clip(shading, 0.0, 1.0))
    seg = grid_segment(image, spec.target_nodes)
    return LabeledExample(image, seg, pool_features(depth[:, :, None], seg))


def gen_scene(spec: SyntheticSceneSpec) -> LabeledExample:
    if spec.task == "segmentation":
        return gen_segmentation_scene(spec)
    return gen_depth_scene(spec)


def synth_dataset(
    base: SyntheticSceneSpec, count: int = 10, train_frac: float = 0.6, val_frac: float = 0.2
) -> Dataset:
    """Generate ``count`` scenes (seed + index each) and split them in order."""
    if count < 1:
        raise ValueError("count must be positive")
    # NaN fails every comparison, so only the affirmative test rejects it
    if not (train_frac >= 0 and val_frac >= 0 and train_frac + val_frac <= 1.0 + 1e-12):
        raise ValueError("split fractions must be nonnegative and sum to at most 1")
    examples = []
    for i in range(count):
        examples.append(gen_scene(replace(base, seed=base.seed + i)))
    n_train = int(train_frac * count + 0.5)
    n_val = int(val_frac * count + 0.5)
    n_train = min(n_train, count)
    n_val = min(n_val, count - n_train)
    return Dataset(
        base.task,
        examples[:n_train],
        examples[n_train : n_train + n_val],
        examples[n_train + n_val :],
    )


def corrupted_node_count(n: int, fraction: float) -> int:
    """Number of nodes a corruption touches: round to nearest, ties up."""
    return int(np.floor(fraction * n + 0.5))


def apply_corruption(targets, spec: CorruptionSpec, rng) -> np.ndarray:
    """A copy of ``targets`` with a sampled fraction of nodes shifted: by
    N(0, sigma^2) draws for gaussian_noise, by ``magnitude`` for outlier.
    Nothing is re-clipped."""
    out = np.array(targets, dtype=np.float64, copy=True)
    n = out.shape[0]
    picked = rng.choice(n, size=corrupted_node_count(n, spec.fraction), replace=False)
    if spec.kind == "outlier":
        out[picked] += spec.magnitude
    elif picked.size:
        out[picked] += rng.normal(0.0, spec.sigma, size=picked.size).reshape(-1, *([1] * (out.ndim - 1)))
    return out


def corrupt_dataset(dataset: Dataset, spec: CorruptionSpec, seed: int) -> Dataset:
    """Corrupt train and val targets; test targets stay clean."""
    kind_id = _CORRUPTION_KINDS.index(spec.kind)
    rng = np.random.default_rng([seed, kind_id, int(round(spec.fraction * 1000))])

    def corrupt_split(examples):
        out = []
        for ex in examples:
            targets = apply_corruption(ex.targets, spec, rng)
            out.append(LabeledExample(ex.image, ex.seg, targets))
        return out

    return Dataset(
        dataset.task,
        corrupt_split(dataset.train),
        corrupt_split(dataset.val),
        list(dataset.test),
    )
