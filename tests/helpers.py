"""Shared test utilities: finite differences and random valid inputs."""

import numpy as np
from scipy import ndimage
from scipy.linalg.blas import dgemm

from ccrf import ImageGrid, NodeGraph, SuperpixelSegmentation, assemble, build_graph, mlp_backward
from ccrf.crf import _check_scores
from ccrf.gridio import read_f32grids, write_f32grids
from ccrf.networks import sigmoid


def central_diff(fn, x, step=1e-5):
    """Central finite differences of ``fn()`` w.r.t. ``x``, mutated in place."""
    assert x.dtype == np.float64
    grad = np.zeros(x.size)
    flat = x.reshape(-1)  # view: perturbations must reach the caller's array
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = fn()
        flat[i] = orig - step
        lo = fn()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * step)
    return grad.reshape(x.shape)


def grad_rel_err(analytic, numeric):
    """Infinity-norm error of the bundle relative to the numeric scale."""
    a = np.concatenate([np.asarray(g, dtype=np.float64).reshape(-1) for g in analytic])
    b = np.concatenate([np.asarray(g, dtype=np.float64).reshape(-1) for g in numeric])
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-6))


def random_affinity(rng, n, scale=1.0):
    """A valid affinity matrix: symmetric, nonnegative, zero diagonal."""
    r = rng.uniform(0.0, scale, size=(n, n))
    r = 0.5 * (r + r.T)
    np.fill_diagonal(r, 0.0)
    return r


def random_system(rng, n, scale=1.0):
    return assemble(random_affinity(rng, n, scale))


def random_graph(rng, n, feature_dim=4):
    return NodeGraph(
        n,
        rng.normal(size=(n, feature_dim)),
        rng.uniform(0.0, 1.0, size=(n, 2)),
    )


def voronoi_segment(image, count, seed=0):
    """Irregular nodes: each pixel joins the nearest of ``count`` seeded
    random points (ties to the lowest), relabelled to 0..n-1, n <= count."""
    points = np.random.default_rng(seed).uniform(0, [image.height, image.width], (count, 2))
    rows, cols = np.indices((image.height, image.width))
    d2 = (rows[..., None] - points[:, 0]) ** 2 + (cols[..., None] - points[:, 1]) ** 2
    owners, label_map = np.unique(d2.argmin(axis=2), return_inverse=True)
    return SuperpixelSegmentation(label_map.reshape(image.height, image.width), len(owners))


def connectivity_violations(seg):
    """Node indices whose pixels form more than one 4-connected component."""
    four_connected = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    bad = []
    for lab in range(seg.n):
        _, count = ndimage.label(seg.label_map == lab, structure=four_connected)
        if count > 1:
            bad.append(lab)
    return bad


def model_param_fd(model, loss_fn, step=1e-5):
    """Finite differences of ``loss_fn()`` w.r.t. every model parameter."""
    out = {}
    for name, value in model.parameters().items():
        if value.ndim == 0:
            flat = value.reshape(1)
            out[name] = central_diff(lambda: loss_fn(), flat, step)[0]
        else:
            out[name] = central_diff(lambda: loss_fn(), value, step)
    return out


def energy(system, scores, labelling):
    """Quadratic labelling energy tr(Y'A0 Y) - 2 tr(Z'Y) + tr(Z'Z)."""
    z = _check_scores(system, scores, "scores")
    y = _check_scores(system, labelling, "labelling")
    if y.shape != z.shape:
        raise ValueError(f"labelling {y.shape} does not match scores {z.shape}")
    a0y = dgemm(1.0, system.a0.T, y, trans_a=1)
    return float((y * a0y).sum() - 2.0 * (z * y).sum() + (z * z).sum())


def reference_nll_backward(system, scores, targets):
    """Likelihood gradients through an explicit inverse, unfused: the oracle
    for ``nll_backward``."""
    z = np.asarray(scores, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    m = z.shape[1]
    w = system.solve(z)
    a0_inv = system.solve(np.eye(system.n))
    da0 = y @ y.T - w @ w.T - 0.5 * m * a0_inv
    return 2.0 * (w - y), _reference_affinity_grad(da0)


def reference_map_backward(system, labelling, dlabelling):
    """Solve-backward gradients from a materialised symmetric dA0: the
    oracle for ``map_backward``."""
    y = np.asarray(labelling, dtype=np.float64)
    g = system.solve(np.asarray(dlabelling, dtype=np.float64))
    da0 = -g @ y.T
    da0 = 0.5 * (da0 + da0.T)
    return g, _reference_affinity_grad(da0)


def reference_pairwise_backward(pair, cache, daffinity):
    """Embedding and scale gradients from full n x n matrices: the oracle
    for ``pairwise_backward``; ``cache`` must hold the full kernel."""
    sym = 0.5 * (daffinity + daffinity.T)
    np.fill_diagonal(sym, 0.0)
    weighted = sym * cache.kernel
    dbeta_raw = 0.5 * float(weighted.sum()) * float(sigmoid(pair.beta_raw))
    weighted *= cache.beta
    s = cache.embeddings
    dembed = -2.0 * (weighted.sum(axis=1)[:, None] * s - weighted @ s)
    grads = mlp_backward(pair.embed, cache.mlp_cache, dembed)
    return grads, dbeta_raw


def _reference_affinity_grad(da0):
    diag = np.diagonal(da0)
    daff = diag[:, None] + diag[None, :] - da0 - da0.T
    np.fill_diagonal(daff, 0.0)
    return daff


def pixel_features(image):
    """Per-pixel descriptors, shape (H, W, F): ``build_graph``'s node
    features on a segmentation with one node per pixel."""
    height, width = image.height, image.width
    seg = SuperpixelSegmentation(np.arange(height * width).reshape(height, width), height * width)
    return build_graph(image, seg).features.reshape(height, width, -1)


def graph_centroids(seg):
    """``build_graph``'s node centroids for ``seg``, on a blank image."""
    return build_graph(ImageGrid(np.zeros(seg.shape)), seg).centroids


def reference_pixel_features(image):
    """Per-pixel descriptors from a channel-last box filter, ``np.gradient``
    and ``np.indices``: the oracle for ``build_graph``'s pixel features."""
    values = image.values
    height, width, _ = values.shape
    smoothed = ndimage.uniform_filter(values, size=(3, 3, 1), mode="nearest")
    grad_row, grad_col = np.gradient(values.mean(axis=2))
    coordinates = np.indices((height, width), dtype=np.float64).transpose(1, 2, 0)
    return np.concatenate(
        [
            values,
            smoothed,
            np.abs(grad_col)[:, :, None],
            np.abs(grad_row)[:, :, None],
            coordinates / [height - 1, width - 1],
        ],
        axis=2,
    )


def reference_pool_features(pixel_features, seg):
    """Per-node means by an ``np.add.at`` scatter: the oracle for
    ``pool_features`` and for the depth targets."""
    flat = pixel_features.reshape(-1, pixel_features.shape[2])
    labels = seg.label_map.ravel()
    counts = np.bincount(labels, minlength=seg.n).astype(np.float64)
    sums = np.zeros((seg.n, flat.shape[1]))
    np.add.at(sums, labels, flat)
    return sums / counts[:, None]


def reference_centroids(seg):
    """Mean (row, col) per node from one bincount per coordinate: the
    oracle for ``build_graph``'s centroids."""
    height, width = seg.shape
    labels = seg.label_map.ravel()
    counts = np.bincount(labels, minlength=seg.n).astype(np.float64)
    rows = np.repeat(np.arange(height, dtype=np.float64), width)
    cols = np.tile(np.arange(width, dtype=np.float64), height)
    mean_row = np.bincount(labels, weights=rows, minlength=seg.n) / counts
    mean_col = np.bincount(labels, weights=cols, minlength=seg.n) / counts
    return np.stack([mean_row / (height - 1), mean_col / (width - 1)], axis=1)


def reference_class_votes(seg, class_map, classes):
    """(n, classes) pixel votes by an ``np.add.at`` scatter: the oracle for
    the segmentation scene's node classes."""
    votes = np.zeros((seg.n, classes), dtype=np.int64)
    np.add.at(votes, (seg.label_map.ravel(), class_map.ravel()), 1)
    return votes


def reference_shape_mask(size, kind, cy, cx, ry, rx):
    """A shape's formula evaluated on the full size x size grid: the oracle
    for the box ``scenes._shape_mask`` returns, in the same (box, mask)
    form with a box that covers the whole grid."""
    rows = np.arange(size)[:, None]
    cols = np.arange(size)[None, :]
    if kind == 0:
        mask = (np.abs(rows - cy) <= ry) & (np.abs(cols - cx) <= rx)
    else:
        mask = ((rows - cy) / ry) ** 2 + ((cols - cx) / rx) ** 2 <= 1.0
    return (slice(None), slice(None)), mask


EXAMPLE_RECORDS = ("image", "seg", "targets")


def set_example_value(path, record, index, value):
    """Set one entry of an example file's image, seg or targets record and
    rewrite the file; the other two records keep their bytes."""
    arrays = read_f32grids(path, len(EXAMPLE_RECORDS))
    arrays[EXAMPLE_RECORDS.index(record)][index] = value
    write_f32grids(path, arrays)
