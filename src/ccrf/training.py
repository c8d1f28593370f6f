"""End-to-end training and evaluation.

One optimization step runs: pooled features -> unary scores and pairwise
affinities -> precision system -> either the exact negative log-density
or the inferred labelling under a task loss -> gradients chained back to
every network parameter.  Optimization is plain per-example SGD with
momentum, weight decay, and an optional global gradient-norm clip.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .crf import (
    NonFiniteAffinityError,
    Workspace,
    assemble,
    map_backward,
    map_infer,
    nll,
    nll_backward,
    unary_nll,
)
from .datasets import Dataset
from .graph import NodeGraph, build_graph
from .losses import LossSpec, predict_labels, task_loss
from .metrics import depth_metrics, seg_metrics
from .networks import (
    FlatViews,
    Model,
    build_model,
    mlp_backward,
    pairwise_backward,
    pairwise_forward,
    unary_forward,
)


class NonFiniteLossError(RuntimeError):
    """A single objective evaluation came back NaN or infinite."""


class DivergenceError(RuntimeError):
    """Training hit a nonfinite loss, affinity or gradient; carries the
    offending example."""

    def __init__(self, epoch: int, example_index: int, detail: str):
        self.epoch = epoch
        self.example_index = example_index
        super().__init__(f"nonfinite value at epoch {epoch}, example {example_index}: {detail}")


@dataclass
class TrainConfig:
    loss: LossSpec = field(default_factory=LossSpec)
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    epochs: int = 30
    unary_warmup_epochs: int = 5
    seed: int = 0
    clip_norm: float | None = 10.0
    hidden_dims: tuple = (64,)
    embed_hidden_dims: tuple = (64,)
    embed_dim: int = 128
    gamma: float = 0.1
    keep: str = "best"

    def __post_init__(self):
        # NaN fails every comparison, so each constant is checked finite first
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 0 or self.unary_warmup_epochs < 0:
            raise ValueError("epoch counts must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.clip_norm is not None and not (np.isfinite(self.clip_norm) and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and positive or None, got {self.clip_norm}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if self.keep not in ("best", "last"):
            raise ValueError(f"keep must be 'best' or 'last', got {self.keep!r}")


@dataclass
class PreparedExample:
    """Node graph, targets, and per-node pixel counts, ready for the model."""

    graph: NodeGraph
    targets: np.ndarray
    pixel_counts: np.ndarray


def prepare_examples(examples) -> list[PreparedExample]:
    prepared = []
    for ex in examples:
        graph = build_graph(ex.image, ex.seg)
        prepared.append(
            PreparedExample(graph, np.asarray(ex.targets, dtype=np.float64), ex.seg.counts)
        )
    return prepared


def _infer(
    model: Model,
    graph: NodeGraph,
    targets: np.ndarray,
    unary_only: bool,
    work: Workspace,
):
    """Unary scores, then the precision system, with both stages' caches;
    ``unary_only`` stops at the scores (A0 = I) and returns None for the rest.
    The system and the pairwise cache live in ``work``'s arrays, in the one
    triangle that every later stage reads."""
    scores, unary_cache = unary_forward(model.unary, graph)
    if targets.shape != scores.shape:
        raise ValueError(
            f"targets {targets.shape} do not match model output {scores.shape}"
        )
    if unary_only:
        return scores, None, unary_cache, None
    affinity, pair_cache = pairwise_forward(model.pairwise, graph, work=work)
    return scores, assemble(affinity, work=work), unary_cache, pair_cache


def forward_loss(
    model: Model,
    graph: NodeGraph,
    targets: np.ndarray,
    loss_spec: LossSpec,
    weight_decay: float = 0.0,
    unary_only: bool = False,
    work: Workspace | None = None,
):
    """One objective evaluation with gradients for every parameter.

    ``unary_only`` freezes the pairwise stage at zero affinity: A0 = I, so
    the field reduces to independent per-node regression and no n x n
    array is built.  Pairwise parameters get exactly zero gradient (no
    weight decay either), and the result is bit-identical to running the
    full pipeline with beta = 0.  ``work`` lends the n x n arrays, or the
    call keeps its own; the results do not depend on which, and only the
    loss and gradients, which never alias them, are returned.  The
    precision system lives in ``work``'s "affinity", so the loss (``nll``
    or ``map_infer``) reads it before the backward spends it, and nothing
    reads it after.  The gradients are ``model.views`` of a flat vector of
    their own.
    """
    targets = np.asarray(targets, dtype=np.float64)
    work = Workspace() if work is None else work
    scores, system, unary_cache, pair_cache = _infer(model, graph, targets, unary_only, work)
    if not np.isfinite(scores).all():
        raise NonFiniteLossError("unary scores are not finite")

    if unary_only:
        # the MAP labelling is the scores, and the solve backward is the identity
        if loss_spec.kind == "loglik":
            loss, dscores = unary_nll(scores, targets)
        else:
            loss, dscores = task_loss(loss_spec, scores, targets)
    else:
        if loss_spec.kind == "loglik":
            loss = nll(system, scores, targets)
            dscores, daffinity = nll_backward(system, scores, targets, work=work)
        else:
            labelling = map_infer(system, scores)
            loss, dlabelling = task_loss(loss_spec, labelling, targets)
            dscores, daffinity = map_backward(system, labelling, dlabelling, work=work)
    if not np.isfinite(loss):
        raise NonFiniteLossError(f"objective returned {loss!r}")

    grads = model.views(np.zeros(model.flat.size))
    mlp_backward(model.unary, unary_cache, dscores, _layers(grads, "unary", model.unary))
    if not unary_only:
        _, dbeta_raw = pairwise_backward(
            model.pairwise,
            pair_cache,
            daffinity,
            work=work,
            out=_layers(grads, "pair", model.pairwise.embed),
        )
        grads["pair.beta_raw"][...] = dbeta_raw
    if weight_decay:
        # warm-up leaves the pairwise slice, which follows the unary one, at zero
        trained = model.unary_size if unary_only else model.flat.size
        grads.flat[:trained] += weight_decay * model.flat[:trained]
    return float(loss), grads


def _layers(grads, prefix: str, mlp) -> list:
    """The (dW, db) views of ``grads`` for each layer of ``mlp``."""
    return [(grads[f"{prefix}.w{i}"], grads[f"{prefix}.b{i}"]) for i in range(len(mlp.weights))]


def global_grad_norm(grads: FlatViews) -> float:
    """The 2-norm of ``grads.flat``.

    The squares are summed one view at a time, in order, and the partial
    sums added up: one sum over the whole vector would round differently,
    and move ``grad_norm`` and the clip test in their last bits."""
    squares = grads.flat * grads.flat
    total, start = 0, 0
    for g in grads.values():
        total += float(np.add.reduce(squares[start : start + g.size]))
        start += g.size
    return float(np.sqrt(total))


def sgd_step(params, grads, velocity, config: TrainConfig, norm: float) -> None:
    """v <- momentum v - lr g; theta <- theta + v, in place on the flat
    vectors, with optional clip of ``norm``, the gradients' global norm."""
    if config.clip_norm is not None and norm > config.clip_norm:
        grads = grads * (config.clip_norm / norm)
    velocity *= config.momentum
    velocity -= config.lr * grads
    params += velocity


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    metric: float
    beta: float
    grad_norm: float


@dataclass
class TrainHistory:
    metric_name: str
    records: list = field(default_factory=list)
    kept_epoch: int | None = None  # whose parameters train returned; None: the initial ones

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["epoch", "loss", "metric", "beta", "grad_norm"])
        for rec in self.records:
            writer.writerow(
                [
                    rec.epoch,
                    f"{rec.loss:.10g}",
                    f"{rec.metric:.10g}",
                    f"{rec.beta:.10g}",
                    f"{rec.grad_norm:.10g}",
                ]
            )
        return out.getvalue()


def _predictions(
    model: Model, examples, task: str, unary_only: bool, work: Workspace | None
):
    """Concatenated (pred, true, pixel_count) vectors over all examples."""
    work = Workspace() if work is None else work
    preds, trues, weights = [], [], []
    for ex in examples:
        scores, system, _, _ = _infer(model, ex.graph, ex.targets, unary_only, work)
        labelling = scores if system is None else map_infer(system, scores)
        if task == "segmentation":
            preds.append(predict_labels(labelling))
            trues.append(np.argmax(ex.targets, axis=1))
        else:
            preds.append(labelling[:, 0])
            trues.append(ex.targets[:, 0])
        weights.append(ex.pixel_counts)
    return np.concatenate(preds), np.concatenate(trues), np.concatenate(weights)


def evaluate(
    model: Model,
    examples,
    task: str,
    unary_only: bool = False,
    work: Workspace | None = None,
) -> dict:
    """Metric suite over prepared examples, pixel-count weighted.

    The examples share ``work``'s n x n arrays, or by default one set the
    call keeps for itself.
    """
    if not examples:
        raise ValueError("nothing to evaluate")
    if task == "segmentation" and model.unary.output_dim < 2:
        raise ValueError("model emits a single score column, not class scores")
    if task == "depth" and model.unary.output_dim != 1:
        raise ValueError("depth evaluation needs a single-column model")
    pred, true, w = _predictions(model, examples, task, unary_only, work)
    if task == "segmentation":
        return seg_metrics(pred, true, w, examples[0].targets.shape[1])
    return depth_metrics(pred, true, w)


def _validation_metric(model, examples, task, work) -> float:
    if task == "segmentation":
        return evaluate(model, examples, task, work=work)["pixel_acc"]
    # rms alone ranks depth checkpoints: unlike the ratio metrics it stays
    # defined when noise-corrupted val targets dip nonpositive
    pred, true, w = _predictions(model, examples, task, False, work)
    return float(np.sqrt((w * (true - pred) ** 2).sum() / w.sum()))


def _metric_improved(task: str, candidate: float, incumbent: float) -> bool:
    if task == "segmentation":
        return candidate > incumbent
    return candidate < incumbent


def train(dataset: Dataset, config: TrainConfig) -> tuple[Model, TrainHistory]:
    """Seed-deterministic SGD over the training split.

    The first ``unary_warmup_epochs`` epochs update only the unary net
    with the pairwise stage frozen at zero affinity; afterwards all
    parameters train jointly.  With ``keep="best"`` the model returned
    carries the parameters of the best validation epoch (train split
    stands in when the val split is empty); ``keep="last"`` returns the
    final-epoch parameters, the sane choice when validation targets are
    themselves corrupted and the metric cannot rank epochs.  Either way
    ``history.kept_epoch`` names the epoch whose parameters are returned,
    which may be a warm-up epoch.
    """
    if not dataset.train:
        raise ValueError("training split is empty")
    task = dataset.task
    train_ex = prepare_examples(dataset.train)
    val_ex = prepare_examples(dataset.val) if dataset.val else train_ex

    rng = np.random.default_rng(config.seed)
    feature_dim = train_ex[0].graph.features.shape[1]
    output_dim = train_ex[0].targets.shape[1]
    model = build_model(
        rng,
        feature_dim,
        output_dim,
        hidden_dims=config.hidden_dims,
        embed_hidden_dims=config.embed_hidden_dims,
        embed_dim=config.embed_dim,
        gamma=config.gamma,
    )
    params = model.flat
    velocity = np.zeros_like(params)

    metric_name = "pixel_acc" if task == "segmentation" else "rms"
    history = TrainHistory(metric_name)
    track_best = config.keep == "best"
    best_metric = None
    best_params = params.copy()
    # every step and validation pass shares one set of n x n arrays
    work = Workspace()

    for epoch in range(config.epochs):
        warm = epoch < config.unary_warmup_epochs
        order = rng.permutation(len(train_ex))
        loss_sum = 0.0
        norm_sum = 0.0
        for j in order:
            ex = train_ex[int(j)]
            try:
                loss, grads = forward_loss(
                    model,
                    ex.graph,
                    ex.targets,
                    config.loss,
                    weight_decay=config.weight_decay,
                    unary_only=warm,
                    work=work,
                )
            except (NonFiniteLossError, NonFiniteAffinityError) as err:
                raise DivergenceError(epoch, int(j), str(err)) from err
            # a NaN norm passes any clip test, so check before the update
            norm = global_grad_norm(grads)
            if not np.isfinite(norm):
                raise DivergenceError(epoch, int(j), f"gradient norm is {norm!r}")
            loss_sum += loss
            norm_sum += norm
            sgd_step(params, grads.flat, velocity, config, norm)
        # a finite gradient can still overflow a parameter; one check per
        # epoch names the last update before validation trips over it
        if not np.isfinite(params).all():
            raise DivergenceError(epoch, int(j), "parameters are not finite after the update")
        metric = _validation_metric(model, val_ex, task, work)
        history.records.append(
            EpochRecord(
                epoch,
                loss_sum / len(train_ex),
                metric,
                model.pairwise.beta,
                norm_sum / len(train_ex),
            )
        )
        if not track_best:
            history.kept_epoch = epoch
        elif best_metric is None or _metric_improved(task, metric, best_metric):
            best_metric = metric
            history.kept_epoch = epoch
            np.copyto(best_params, params)

    if track_best:
        np.copyto(params, best_params)
    return model, history
