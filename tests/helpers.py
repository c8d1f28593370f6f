"""Shared test utilities: finite differences and random valid inputs."""

import numpy as np
from scipy import ndimage

from ccrf import NodeGraph, assemble, mlp_backward
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
    _, grads = mlp_backward(pair.embed, cache.mlp_cache, dembed)
    return grads, dbeta_raw


def _reference_affinity_grad(da0):
    diag = np.diagonal(da0)
    daff = diag[:, None] + diag[None, :] - da0 - da0.T
    np.fill_diagonal(daff, 0.0)
    return daff


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
    oracle for ``compute_centroids``."""
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
