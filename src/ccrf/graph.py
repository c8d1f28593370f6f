"""Superpixel node graphs: segmentation, pixel features, pooling, centroids.

An image is reduced to a small set of 4-connected superpixel nodes.  Each
node carries mean-pooled pixel features and a normalized centroid; these
are the only quantities downstream models ever see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


@dataclass
class ImageGrid:
    """A (height, width, channels) image with intensities in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 2:
            values = values[:, :, None]
        if values.ndim != 3:
            raise ValueError(f"expected a 2-D or 3-D array, got shape {values.shape}")
        height, width, channels = values.shape
        if height < 8 or width < 8:
            raise ValueError(f"image must be at least 8x8, got {height}x{width}")
        if not 1 <= channels <= 3:
            raise ValueError(f"channels must be 1..3, got {channels}")
        if not np.isfinite(values).all():
            raise ValueError("intensities must be finite")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("intensities must lie in [0, 1]")
        self.values = values

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


@dataclass
class SuperpixelSegmentation:
    """Dense node-index map over pixels; every index in [0, n) must occur."""

    label_map: np.ndarray
    n: int
    counts: np.ndarray = field(init=False, repr=False)  # pixels per node

    def __post_init__(self):
        label_map = np.asarray(self.label_map)
        if label_map.ndim != 2:
            raise ValueError(f"label map must be 2-D, got shape {label_map.shape}")
        if self.n < 1:
            raise ValueError(f"need at least one node, got {self.n}")
        # some node would own no pixel; say so before bincount allocates n counters
        if self.n > label_map.size:
            raise ValueError(f"{self.n} nodes cannot each own one of {label_map.size} pixels")
        if label_map.min() < 0 or label_map.max() >= self.n:
            raise ValueError("node indices must lie in [0, n)")
        counts = np.bincount(label_map.ravel(), minlength=self.n)
        if (counts == 0).any():
            raise ValueError("every node index must own at least one pixel")
        self.label_map = label_map.astype(np.int64)
        self.counts = counts

    @property
    def shape(self) -> tuple[int, int]:
        return self.label_map.shape


@dataclass
class NodeGraph:
    """Per-node pooled features (n, F) and normalized centroids (n, 2)."""

    n: int
    features: np.ndarray
    centroids: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        centroids = np.asarray(self.centroids, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != self.n:
            raise ValueError(f"features must be (n, F), got {features.shape}")
        if centroids.shape != (self.n, 2):
            raise ValueError(f"centroids must be (n, 2), got {centroids.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if centroids.min() < 0.0 or centroids.max() > 1.0:
            raise ValueError("centroids must lie in [0, 1]")
        self.features = features
        self.centroids = centroids


def _best_grid(height: int, width: int, target: int) -> tuple[int, int]:
    # closest rows*cols to target, squarest aspect as tie-break, first hit wins
    best = None
    for rows in range(1, min(height, target) + 1):
        cols = min(width, max(1, int(target / rows + 0.5)))
        score = (abs(rows * cols - target), abs(rows * width - cols * height))
        if best is None or score < best[0]:
            best = (score, rows, cols)
    return best[1], best[2]


def grid_segment(image: ImageGrid, target_count: int) -> SuperpixelSegmentation:
    """Deterministic rectangular tiling into roughly ``target_count`` blocks."""
    height, width = image.height, image.width
    if not 1 <= target_count <= height * width:
        raise ValueError(
            f"target_count must lie in [1, {height * width}], got {target_count}"
        )
    rows, cols = _best_grid(height, width, target_count)
    row_id = (np.arange(height) * rows) // height
    col_id = (np.arange(width) * cols) // width
    label_map = row_id[:, None] * cols + col_id[None, :]
    return SuperpixelSegmentation(label_map, rows * cols)


def slic_segment(
    image: ImageGrid,
    target_count: int,
    compactness: float = 10.0,
    max_iters: int = 10,
) -> SuperpixelSegmentation:
    """Local k-means over (color, scaled position) with grid seeding.

    Seeds sit at the centers of a near-square tiling; each center claims
    pixels inside a window of twice the seed spacing.  Equal distances are
    resolved toward the lowest segment index, so the result is fully
    deterministic.  A post-pass enforces 4-connectivity by merging every
    orphan component into the largest adjacent segment.
    """
    height, width = image.height, image.width
    if target_count > height * width:
        raise ValueError(f"target_count {target_count} exceeds pixel count")
    if target_count < 2:
        raise ValueError(f"need at least two superpixels, got {target_count}")
    if compactness <= 0:
        raise ValueError(f"compactness must be positive, got {compactness}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")

    values = image.values
    rows, cols = _best_grid(height, width, target_count)
    k = rows * cols
    step = max(int(round(np.sqrt(height * width / k))), 1)
    spatial_weight = compactness / step

    center_pos = np.empty((k, 2))
    center_pos[:, 0] = np.repeat((np.arange(rows) + 0.5) * height / rows, cols)
    center_pos[:, 1] = np.tile((np.arange(cols) + 0.5) * width / cols, rows)
    seed_pixels = np.minimum(center_pos.astype(int), [height - 1, width - 1])
    center_col = values[seed_pixels[:, 0], seed_pixels[:, 1]]

    # (row, col, color...) per pixel: one reduction updates both halves of a centre
    pixels = np.concatenate([_pixel_grid(height, width), values], axis=2)
    labels = np.zeros((height, width), dtype=np.int64)

    for _ in range(max_iters):
        dist = np.full((height, width), np.inf)
        labels[:] = 0
        for ci in range(k):
            cr, cc = center_pos[ci]
            r0 = max(int(cr) - 2 * step, 0)
            r1 = min(int(cr) + 2 * step + 1, height)
            c0 = max(int(cc) - 2 * step, 0)
            c1 = min(int(cc) + 2 * step + 1, width)
            if r0 >= r1 or c0 >= c1:
                continue
            color_d2 = ((values[r0:r1, c0:c1] - center_col[ci]) ** 2).sum(axis=2)
            pos_d2 = ((pixels[r0:r1, c0:c1, :2] - (cr, cc)) ** 2).sum(axis=2)
            d = color_d2 + spatial_weight**2 * pos_d2
            window = dist[r0:r1, c0:c1]
            better = d < window  # strict: earlier (lower) index keeps ties
            window[better] = d[better]
            labels[r0:r1, c0:c1][better] = ci

        missed = np.isinf(dist)
        if missed.any():
            mr, mc = np.nonzero(missed)
            color_d2 = ((values[mr, mc][:, None, :] - center_col[None, :, :]) ** 2).sum(axis=2)
            pos_d2 = ((pixels[mr, mc][:, None, :2] - center_pos[None, :, :]) ** 2).sum(axis=2)
            labels[mr, mc] = np.argmin(color_d2 + spatial_weight**2 * pos_d2, axis=1)

        counts = np.bincount(labels.ravel(), minlength=k)
        occupied = counts > 0
        means = _node_sums(labels, pixels, k)[occupied] / counts[occupied, None]
        center_pos[occupied] = means[:, :2]
        center_col[occupied] = means[:, 2:]

    labels = _merge_orphan_components(labels)
    uniq, compact = np.unique(labels, return_inverse=True)
    return SuperpixelSegmentation(compact.reshape(labels.shape), len(uniq))


def _adjacent_labels(labels: np.ndarray, mask: np.ndarray) -> set[int]:
    border = ndimage.binary_dilation(mask, structure=_FOUR_CONNECTED) & ~mask
    return {int(v) for v in np.unique(labels[border])}


def _merge_orphan_components(labels: np.ndarray) -> np.ndarray:
    # every label must form one 4-connected region; smaller components are
    # absorbed by the largest adjacent segment (ties to the lowest index)
    labels = labels.copy()
    while True:
        changed = False
        for lab in np.unique(labels):
            mask = labels == lab
            components, count = ndimage.label(mask, structure=_FOUR_CONNECTED)
            if count <= 1:
                continue
            sizes = np.bincount(components.ravel())[1:]
            keep = int(np.argmax(sizes)) + 1
            for ci in range(1, count + 1):
                if ci == keep:
                    continue
                component = components == ci
                neighbours = _adjacent_labels(labels, component)
                neighbours.discard(int(lab))
                if not neighbours:
                    continue
                areas = np.bincount(labels.ravel())
                target = min(neighbours, key=lambda t: (-areas[t], t))
                labels[component] = target
                changed = True
        if not changed:
            return labels


def compute_pixel_features(image: ImageGrid) -> np.ndarray:
    """Per-pixel descriptors, shape (H, W, 2*channels + 4).

    Layout: raw intensities, 3x3 box-smoothed intensities, horizontal and
    vertical gradient magnitudes of the mean intensity, and row/column
    coordinates normalized to [0, 1].
    """
    values = image.values
    height, width, _ = values.shape
    smoothed = ndimage.uniform_filter(values, size=(3, 3, 1), mode="nearest")
    grad_row, grad_col = np.gradient(values.mean(axis=2))
    return np.concatenate(
        [
            values,
            smoothed,
            np.abs(grad_col)[:, :, None],
            np.abs(grad_row)[:, :, None],
            _pixel_grid(height, width) / [height - 1, width - 1],
        ],
        axis=2,
    )


def _pixel_grid(height: int, width: int) -> np.ndarray:
    """(H, W, 2) float (row, col) coordinates of every pixel."""
    rows, cols = np.indices((height, width), dtype=np.float64)
    return np.stack([rows, cols], axis=2)


def _node_sums(labels: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Sum (H, W) or (H, W, k) pixel values over node labels, shape (n, k).

    One bincount per column adds the pixels in raster order, as ``np.add.at``
    would, so the sums match a scatter bit for bit.
    """
    labels = labels.ravel()
    columns = values.reshape(labels.size, -1).T
    return np.stack([np.bincount(labels, weights=c, minlength=n) for c in columns], axis=1)


def pool_features(pixel_features: np.ndarray, seg: SuperpixelSegmentation) -> np.ndarray:
    """Mean of pixel features over each node, shape (n, F)."""
    pixel_features = np.asarray(pixel_features, dtype=np.float64)
    if pixel_features.ndim != 3 or pixel_features.shape[:2] != seg.shape:
        raise ValueError(
            f"feature map {pixel_features.shape} does not cover segmentation {seg.shape}"
        )
    return _node_sums(seg.label_map, pixel_features, seg.n) / seg.counts[:, None]


def compute_centroids(seg: SuperpixelSegmentation) -> np.ndarray:
    """Mean (row, col) per node, normalized by (height-1, width-1)."""
    height, width = seg.shape
    return pool_features(_pixel_grid(height, width), seg) / [height - 1, width - 1]


def build_graph(image: ImageGrid, seg: SuperpixelSegmentation) -> NodeGraph:
    """Pool pixel features and centroids into a node graph."""
    if seg.shape != (image.height, image.width):
        raise ValueError("segmentation does not match image size")
    features = pool_features(compute_pixel_features(image), seg)
    return NodeGraph(seg.n, features, compute_centroids(seg))
