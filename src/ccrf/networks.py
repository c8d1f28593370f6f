"""Dense networks over node features and the Gaussian pairwise kernel.

Two small multilayer perceptrons drive the whole model: a unary scorer
producing one score vector per node, and an embedding net whose outputs
feed a Gaussian similarity kernel

    R[p, q] = beta * exp(-||s_p - s_q||^2 - gamma * ||l_p - l_q||^2)

over node embeddings s and normalized centroids l, with zero diagonal.
``beta = softplus(beta_raw)`` keeps the kernel scale positive; ``gamma``
is a fixed hyperparameter.  The kernel's n x n arrays are ``crf``'s, which
builds and differentiates them.  All forward passes cache what their
exact reverse-mode backward passes need.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .crf import Workspace, gaussian_affinity, gaussian_backward
from .gridio import atomic_open

CHECKPOINT_MAGIC = b"CCRF2"


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
    mlp: Mlp, cache: MlpCache, dout: np.ndarray, out=None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact reverse-mode pass to the parameters.

    Returns a per-layer list of (dW, db), written into the arrays of
    ``out``, a list of the same shape, when given.  The input batch gets
    no gradient.  The rectifier subgradient at 0 is taken as 0.
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
        dw, db = (None, None) if out is None else out[i]
        param_grads[i] = (
            np.matmul(cache.inputs[i].T, dpre, out=dw),
            np.add.reduce(dpre, axis=0, out=db),
        )
        if i:
            grad = dpre @ mlp.weights[i].T
    return param_grads


def unary_forward(mlp: Mlp, graph) -> tuple[np.ndarray, MlpCache]:
    """Per-node score vectors from the pooled node features."""
    return mlp_forward(mlp, graph.features)


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


def pairwise_forward(
    pair: PairwiseNet, graph, *, work: Workspace | None = None
) -> tuple[np.ndarray, PairwiseCache]:
    """Affinity matrix R (n, n): ``crf.gaussian_affinity`` over the
    points [s, sqrt(gamma) l], lower triangle only with ``work``."""
    embeddings, mlp_cache = mlp_forward(pair.embed, graph.features)
    beta = pair.beta
    points = (embeddings, np.sqrt(pair.gamma) * graph.centroids)
    affinity, kernel = gaussian_affinity(points, beta, work=work)
    return affinity, PairwiseCache(embeddings, kernel, beta, mlp_cache)


def pairwise_backward(
    pair: PairwiseNet,
    cache: PairwiseCache,
    daffinity: np.ndarray,
    *,
    work: Workspace | None = None,
    out=None,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Chain an affinity gradient, read from its lower triangle, back to
    (embedding grads, d beta_raw) through ``crf.gaussian_backward``; the
    embedding grads go into ``out`` as in ``mlp_backward``."""
    dembed, dbeta = gaussian_backward(
        cache.kernel, daffinity, cache.embeddings, cache.beta, work=work
    )
    embed_grads = mlp_backward(pair.embed, cache.mlp_cache, dembed, out)
    return embed_grads, dbeta * float(sigmoid(pair.beta_raw))


@dataclass
class Model:
    """Unary scorer + pairwise kernel net.

    Every trainable value lives in one float64 vector, ``flat``, in
    ``parameters()`` order, the unary net's ``unary_size`` values first;
    ``shapes`` maps each name to its shape.  Construction copies the
    arrays it is given into it and rebinds each weight, bias and
    ``beta_raw`` to its view, so one numpy call updates, checks or copies
    them all.
    """

    unary: Mlp  # pooled node features -> per-node scores
    pairwise: PairwiseNet
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        values = self.parameters()
        self.shapes = {name: np.shape(value) for name, value in values.items()}
        self.unary_size = sum(
            np.size(value) for name, value in values.items() if name.startswith("unary.")
        )
        self.flat = np.concatenate([np.ravel(value) for value in values.values()], dtype=np.float64)
        views = self.views(self.flat)
        for prefix, mlp in (("unary", self.unary), ("pair", self.pairwise.embed)):
            mlp.weights = [views[f"{prefix}.w{i}"] for i in range(len(mlp.weights))]
            mlp.biases = [views[f"{prefix}.b{i}"] for i in range(len(mlp.biases))]
        self.pairwise.beta_raw = views["pair.beta_raw"]

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of every trainable array (mutating them updates the model)."""
        params: dict[str, np.ndarray] = {}
        for prefix, mlp in (("unary", self.unary), ("pair", self.pairwise.embed)):
            for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                params[f"{prefix}.w{i}"] = w
                params[f"{prefix}.b{i}"] = b
        params["pair.beta_raw"] = self.pairwise.beta_raw
        return params

    def views(self, flat: np.ndarray) -> "FlatViews":
        """Named views into ``flat``, a vector laid out like ``self.flat``."""
        return FlatViews(flat, self.shapes)


class FlatViews(dict):
    """Named views into one vector, ``flat``, packed back to back in the
    order of ``shapes``, a name -> shape mapping."""

    def __init__(self, flat: np.ndarray, shapes: dict):
        super().__init__()
        self.flat = flat
        start = 0
        for name, shape in shapes.items():
            stop = start + math.prod(shape)
            self[name] = flat[start:stop].reshape(shape)
            start = stop


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
    unary = Mlp.create(rng, [feature_dim, *hidden_dims, output_dim])
    embed = Mlp.create(rng, [feature_dim, *embed_hidden_dims, embed_dim])
    beta_raw = np.array(softplus_inverse(1.0), dtype=np.float64)
    return Model(unary, PairwiseNet(embed, beta_raw, float(gamma)))


def save_checkpoint(path, model: Model) -> None:
    """Write the magic, each net's layer widths, ``gamma``, then ``model.flat``."""
    with atomic_open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for mlp in (model.unary, model.pairwise.embed):
            widths = [mlp.input_dim, *(w.shape[1] for w in mlp.weights)]
            fh.write(struct.pack(f"<{len(widths) + 1}I", len(widths), *widths))
        fh.write(struct.pack("<d", model.pairwise.gamma))
        fh.write(model.flat.astype("<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Rebuild a model from its checkpoint: the widths size zero-filled
    nets, and ``Model``, the owner of the parameter layout, places the payload."""
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a CCRF2 checkpoint; retrain models saved before it")
        # one read bounded by the file, so no header field sizes a buffer
        data = fh.read()
    offset = 0

    def take(fmt: str) -> tuple:
        nonlocal offset
        size = struct.calcsize(fmt)
        if size > len(data) - offset:
            raise ValueError("truncated checkpoint")
        offset += size
        return struct.unpack_from(fmt, data, offset - size)

    nets = []
    for name in ("unary", "pair"):
        (count,) = take("<I")
        widths = take(f"<{count}I")
        if count < 2 or min(widths) < 1:
            raise ValueError(f"checkpoint net '{name}' needs 2+ layer widths >= 1, got {widths}")
        nets.append(widths)
    (gamma,) = take("<d")
    values = sum(a * b + b for widths in nets for a, b in zip(widths, widths[1:])) + 1  # + beta_raw
    if len(data) - offset != 8 * values:
        raise ValueError(
            f"checkpoint has {len(data) - offset} parameter bytes; its widths need {8 * values}"
        )
    unary, embed = (
        Mlp([np.zeros((a, b)) for a, b in zip(w, w[1:])], [np.zeros(b) for b in w[1:]])
        for w in nets
    )
    model = Model(unary, PairwiseNet(embed, np.zeros(()), gamma))
    model.flat[:] = np.frombuffer(data, dtype="<f8", offset=offset)
    for name, value in model.parameters().items():
        if not np.isfinite(value).all():
            raise ValueError(f"checkpoint tensor '{name}' is not finite")
    return model
