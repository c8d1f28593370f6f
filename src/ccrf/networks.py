"""Dense networks over node features and the Gaussian pairwise kernel.

Two small multilayer perceptrons drive the whole model: a unary scorer
producing one score vector per node, and an embedding net whose outputs
feed a Gaussian similarity kernel

    R[p, q] = beta * exp(-||s_p - s_q||^2 - gamma * ||l_p - l_q||^2)

over node embeddings s and normalized centroids l, with zero diagonal.
``beta = softplus(beta_raw)`` keeps the kernel scale positive; ``gamma``
is a fixed hyperparameter.  All forward passes cache what their exact
reverse-mode backward passes need.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dsymv

from .crf import Workspace, square, symmetric_product, symmetric_result, symmetrize
from .gridio import atomic_open

CHECKPOINT_MAGIC = b"CCRF1"

# kernel exponents below this are flushed to exactly zero
_EXP_FLOOR = -60.0


def softplus(x):
    return np.logaddexp(0.0, x)


def softplus_inverse(y: float) -> float:
    if y <= 0:
        raise ValueError(f"softplus is positive, got target {y}")
    return float(np.log(np.expm1(y)))


def sigmoid(x):
    return np.exp(-np.logaddexp(0.0, -x))


@dataclass
class Mlp:
    """Affine + rectifier stack; the output layer is affine only."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(cls, rng: np.random.Generator, layer_dims) -> "Mlp":
        dims = [int(d) for d in layer_dims]
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError(f"bad layer dims {dims}")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @property
    def layer_dims(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]


@dataclass
class MlpCache:
    inputs: list[np.ndarray]  # input to each layer
    preacts: list[np.ndarray]  # affine outputs before the rectifier


def mlp_forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Batched forward pass; returns output and the backward cache."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.input_dim:
        raise ValueError(f"expected (batch, {mlp.input_dim}) input, got {x.shape}")
    inputs, preacts = [], []
    hidden = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        inputs.append(hidden)
        pre = hidden @ w + b
        preacts.append(pre)
        hidden = pre if i == last else np.maximum(pre, 0.0)
    return hidden, MlpCache(inputs, preacts)


def mlp_backward(
    mlp: Mlp, cache: MlpCache, dout: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Exact reverse-mode pass.

    Returns the gradient with respect to the input batch and a per-layer
    list of (dW, db).  The rectifier subgradient at 0 is taken as 0.
    """
    grad = np.asarray(dout, dtype=np.float64)
    last = len(mlp.weights) - 1
    if grad.shape != cache.preacts[last].shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match output {cache.preacts[last].shape}"
        )
    param_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(mlp.weights)
    for i in range(last, -1, -1):
        dpre = grad if i == last else grad * (cache.preacts[i] > 0.0)
        param_grads[i] = (cache.inputs[i].T @ dpre, dpre.sum(axis=0))
        grad = dpre @ mlp.weights[i].T
    return grad, param_grads


@dataclass
class UnaryNet:
    """Maps pooled node features to per-node score vectors."""

    mlp: Mlp


def unary_forward(unary: UnaryNet, graph) -> tuple[np.ndarray, MlpCache]:
    return mlp_forward(unary.mlp, graph.features)


def unary_backward(unary: UnaryNet, cache: MlpCache, dscores: np.ndarray):
    _, grads = mlp_backward(unary.mlp, cache, dscores)
    return grads


@dataclass
class PairwiseNet:
    """Embedding net plus kernel scale; produces the affinity matrix R."""

    embed: Mlp
    beta_raw: np.ndarray  # 0-d, unconstrained; beta = softplus(beta_raw)
    gamma: float = 0.1

    def __post_init__(self):
        # sqrt(gamma) scales the centroids inside the kernel
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")

    @property
    def beta(self) -> float:
        return float(softplus(self.beta_raw))


@dataclass
class PairwiseCache:
    embeddings: np.ndarray
    kernel: np.ndarray  # exp term without the beta scale, zero diagonal; with a
    # workspace, exact in the lower triangle only
    beta: float
    mlp_cache: MlpCache


def _negated_squared_distances(points: np.ndarray, work: Workspace | None) -> np.ndarray:
    # [P, -|P|^2] [P, 1]' plus its transpose is 2 <p, q> - |p|^2 - |q|^2
    n = len(points)
    x = symmetric_product(
        np.hstack([points, -(points * points).sum(axis=1)[:, None]]),
        np.hstack([points, np.ones((n, 1))]),
        square(work, "kernel", n),
    )
    return symmetric_result(x, work)


def _flush_exp(exponent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """exp of the nonpositive ``exponent`` in place, zero below ``_EXP_FLOOR``.

    Equal bit for bit to ``np.where(exponent < _EXP_FLOOR, 0, exp(exponent))``,
    NaN staying NaN, but exp never sees the -inf that would take its slow
    path: it runs on the exponent clamped at the floor, and the mask
    ``exponent >= _EXP_FLOOR``, written into the float array ``mask``,
    zeroes the flushed entries afterwards.
    """
    np.greater_equal(exponent, _EXP_FLOOR, out=mask)
    # cancellation can leave a squared distance's negation above 0
    np.clip(exponent, _EXP_FLOOR, 0.0, out=exponent)
    np.exp(exponent, out=exponent)
    return np.multiply(exponent, mask, out=exponent)


def pairwise_forward(
    pair: PairwiseNet, graph, *, work: Workspace | None = None
) -> tuple[np.ndarray, PairwiseCache]:
    """Affinity matrix R (n, n): symmetric, nonnegative, zero diagonal.

    The exponent is one negated squared distance between the stacked
    points [s, sqrt(gamma) l].  A NaN embedding or scale propagates into
    R rather than being flushed, so a broken field cannot pass as a
    zero one.  With ``work``, R and the cached kernel live in the lower
    triangles of its arrays; without, both are full matrices.
    """
    embeddings, mlp_cache = mlp_forward(pair.embed, graph.features)
    kernel = _negated_squared_distances(
        np.hstack([embeddings, np.sqrt(pair.gamma) * graph.centroids]), work
    )
    n = len(kernel)
    affinity = square(work, "affinity", n)
    _flush_exp(kernel, affinity)
    np.fill_diagonal(kernel, 0.0)
    beta = pair.beta
    np.multiply(beta, kernel, out=affinity)
    return affinity, PairwiseCache(embeddings, kernel, beta, mlp_cache)


def pairwise_backward(
    pair: PairwiseNet,
    cache: PairwiseCache,
    daffinity: np.ndarray,
    *,
    work: Workspace | None = None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Chain an affinity gradient back to (embedding grads, d beta_raw).

    ``daffinity`` holds the sensitivity of the loss to each symmetric
    entry pair of R, and its diagonal is ignored.  ``work``'s own
    "affinity", as ``map_backward`` and ``nll_backward`` leave it, is read
    from its lower triangle; any other matrix is symmetrized first.  Each
    unordered pair contributes once, via d R[p,q] / d s_p =
    -2 R[p,q] (s_p - s_q) and d R[p,q] / d beta = kernel[p,q].
    """
    n = len(daffinity)
    weighted = square(work, "affinity", n)
    if weighted is not daffinity:
        symmetrize(daffinity, weighted)
        weighted *= 0.5
    weighted *= cache.kernel
    # row sums and (weighted s)' = s' weighted read only the lower
    # triangle; s' is an F-ordered view, so f2py copies nothing
    rows = dsymv(1.0, weighted, np.ones(n), lower=1)
    dbeta = 0.5 * float(rows.sum())
    dbeta_raw = dbeta * float(sigmoid(pair.beta_raw))
    smoothed = dsymm(1.0, weighted, cache.embeddings.T, side=1, lower=1).T
    dembed = (-2.0 * cache.beta) * (rows[:, None] * cache.embeddings - smoothed)
    _, embed_grads = mlp_backward(pair.embed, cache.mlp_cache, dembed)
    return embed_grads, dbeta_raw


@dataclass
class Model:
    """Unary scorer + pairwise kernel net."""

    unary: UnaryNet
    pairwise: PairwiseNet

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (mutating them updates the model)."""
        params: dict[str, np.ndarray] = {}
        for prefix, mlp in (("unary", self.unary.mlp), ("pair", self.pairwise.embed)):
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                params[f"{prefix}.w{i}"] = w
                params[f"{prefix}.b{i}"] = b
        params["pair.beta_raw"] = self.pairwise.beta_raw
        return params

    def output_dim(self) -> int:
        return self.unary.mlp.output_dim


def build_model(
    rng: np.random.Generator,
    feature_dim: int,
    output_dim: int,
    hidden_dims=(64,),
    embed_hidden_dims=(64,),
    embed_dim: int = 128,
    gamma: float = 0.1,
) -> Model:
    """Fresh model with beta = 1; the unary net is drawn first, then the
    embedding net."""
    unary = UnaryNet(Mlp.create(rng, [feature_dim, *hidden_dims, output_dim]))
    embed = Mlp.create(rng, [feature_dim, *embed_hidden_dims, embed_dim])
    beta_raw = np.array(softplus_inverse(1.0), dtype=np.float64)
    return Model(unary, PairwiseNet(embed, beta_raw, float(gamma)))


def _write_tensor(fh, name: str, values: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    arr = np.asarray(values, dtype=np.float64)
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<I", arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(arr.astype("<f8").tobytes())


def save_checkpoint(path, model: Model) -> None:
    """Serialize every tensor plus the fixed hyperparameters."""
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, values in model.parameters().items():
            _write_tensor(fh, name, values)
        _write_tensor(fh, "pair.gamma", np.array(model.pairwise.gamma))


def _read_exact(fh, count: int, size: int) -> bytes:
    # bounded by the bytes left in the file, so a corrupt length or shape
    # is a ValueError rather than a huge allocation
    if count > size - fh.tell():
        raise ValueError("truncated checkpoint")
    return fh.read(count)


def load_checkpoint(path) -> Model:
    """Rebuild a model from its checkpoint container."""
    tensors: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        while True:
            head = fh.read(4)
            if not head:
                break
            if len(head) != 4:
                raise ValueError("truncated checkpoint")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(fh, name_len, size).decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, size))
            shape = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, size))
            data = np.frombuffer(_read_exact(fh, 8 * math.prod(shape), size), dtype="<f8")
            tensors[name] = data.reshape(shape).astype(np.float64)

    def collect(prefix: str) -> Mlp:
        weights, biases = [], []
        for i in range(len(tensors)):
            w, b = tensors.get(f"{prefix}.w{i}"), tensors.get(f"{prefix}.b{i}")
            if w is None and b is None:
                break
            if w is None or b is None:
                raise ValueError(f"checkpoint layer {prefix} {i} lacks its weight or bias")
            chained = not weights or weights[-1].shape[1] == w.shape[0]
            if w.ndim != 2 or b.shape != w.shape[1:] or not chained:
                raise ValueError(
                    f"checkpoint layer {prefix} {i} has weight {w.shape} and bias {b.shape}"
                )
            weights.append(w.copy())
            biases.append(b.copy())
        if not weights:
            raise ValueError(f"checkpoint holds no '{prefix}' layers")
        return Mlp(weights, biases)

    for required in ("pair.beta_raw", "pair.gamma"):
        if required not in tensors:
            raise ValueError(f"checkpoint is missing tensor '{required}'")
        if tensors[required].shape != ():
            raise ValueError(f"checkpoint tensor '{required}' must be a scalar")
    pairwise = PairwiseNet(
        collect("pair"),
        np.array(float(tensors["pair.beta_raw"]), dtype=np.float64),
        float(tensors["pair.gamma"]),
    )
    return Model(UnaryNet(collect("unary")), pairwise)
