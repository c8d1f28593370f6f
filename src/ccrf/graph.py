"""Superpixel node graphs: segmentation, pixel features, pooling, centroids.

An image is reduced to a small set of superpixel nodes.  Each node carries
mean-pooled pixel features and a normalized centroid; these are the only
quantities downstream models ever see.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage


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


@functools.lru_cache
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


def _pixel_planes(image: ImageGrid, planes: np.ndarray) -> np.ndarray:
    """Channel-first (2*channels + 6, H, W) stack of per-pixel planes, in
    the C-ordered ``planes``.

    Layout: raw intensities, 3x3 box-smoothed intensities, horizontal and
    vertical gradient magnitudes of the mean intensity, row/column
    coordinates normalized to [0, 1] (these 2*channels + 4 planes are the
    pixel features ``build_graph`` pools), then raw row and column
    coordinates, which pool into the centroids.
    """
    height, width, c = image.values.shape
    planes[:c] = image.values.transpose(2, 0, 1)
    ndimage.uniform_filter(planes[:c], size=(1, 3, 3), mode="nearest", output=planes[c : 2 * c])
    mean = np.add.reduce(planes[:c]) / c  # adds channels in values.mean(axis=2)'s order
    _abs_gradient(mean.T, planes[2 * c].T)
    _abs_gradient(mean, planes[2 * c + 1])
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)
    planes[-4], planes[-3] = rows / (height - 1), cols / (width - 1)
    planes[-2], planes[-1] = rows, cols
    return planes


def _abs_gradient(f: np.ndarray, out: np.ndarray) -> None:
    """|np.gradient(f, axis=0)| into ``out``, with its arithmetic: central
    differences inside, one-sided differences at the two edges."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[1:-1] /= 2.0
    np.subtract(f[1], f[0], out=out[0])
    np.subtract(f[-1], f[-2], out=out[-1])
    np.abs(out, out=out)


def _node_means(
    planes: np.ndarray, seg: SuperpixelSegmentation, offsets: np.ndarray | None = None
) -> np.ndarray:
    """Mean of k (H, W) pixel planes over each node, shape (n, k), C order.

    One bincount over the offset labels ``label + plane * n``, written into
    the int64 (k, H * W) ``offsets`` when given, adds each bin's pixels in
    raster order, as ``np.add.at`` would, so the sums match a scatter bit
    for bit.
    """
    k = planes.shape[0]
    offsets = np.add(seg.label_map.ravel(), seg.n * np.arange(k)[:, None], out=offsets)
    sums = np.bincount(offsets.ravel(), weights=planes.ravel(), minlength=k * seg.n)
    return np.ascontiguousarray((sums.reshape(k, seg.n) / seg.counts).T)


def pool_features(pixel_features: np.ndarray, seg: SuperpixelSegmentation) -> np.ndarray:
    """Mean of pixel features over each node, shape (n, F)."""
    pixel_features = np.asarray(pixel_features, dtype=np.float64)
    if pixel_features.ndim != 3 or pixel_features.shape[:2] != seg.shape:
        raise ValueError(
            f"feature map {pixel_features.shape} does not cover segmentation {seg.shape}"
        )
    return _node_means(pixel_features.transpose(2, 0, 1), seg)


def build_graph(image: ImageGrid, seg: SuperpixelSegmentation) -> NodeGraph:
    """Pool pixel features and centroids into a node graph."""
    if seg.shape != (image.height, image.width):
        raise ValueError("segmentation does not match image size")
    k = 2 * image.values.shape[2] + 6
    # one allocation holds the plane stack and, viewed as int64, the offset
    # labels: in a fresh process glibc trims two separate temporaries
    # after every call, and each call faults their pages back in
    block = np.empty((2, k, image.height * image.width))
    planes = _pixel_planes(image, block[0].reshape(k, image.height, image.width))
    means = _node_means(planes, seg, block[1].view(np.int64))
    centroids = means[:, -2:] / [image.height - 1, image.width - 1]
    return NodeGraph(seg.n, np.ascontiguousarray(means[:, :-2]), centroids)
