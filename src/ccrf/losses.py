"""Task losses over inferred score vectors, and label decoding.

Every loss returns ``(value, dvalue_dpredicted)`` so training can chain
straight into the inference backward pass.  Residual conventions follow
r = target - predicted throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOSS_KINDS = ("softmax", "tukey", "ls", "loglik")


@dataclass(frozen=True)
class LossSpec:
    """Loss selector; ``c`` is the robust clipping constant (tukey only)."""

    kind: str = "softmax"
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.kind!r}, expected one of {LOSS_KINDS}")
        _check_clip(self.c)


def _check_clip(c: float) -> None:
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"clipping constant must be finite and positive, got {c}")


def _check_pair(predicted, targets):
    yhat = np.asarray(predicted, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if yhat.ndim != 2:
        raise ValueError(f"predictions must be 2-D, got shape {yhat.shape}")
    if y.shape != yhat.shape:
        raise ValueError(f"targets {y.shape} do not match predictions {yhat.shape}")
    return yhat, y


def softmax_loss(predicted, targets):
    """Row-wise cross entropy of softmax(predicted) against one-hot targets.

    Row maxima are subtracted before exponentiation, so the value is
    invariant to per-row constant shifts and safe at extreme margins.
    """
    yhat, y = _check_pair(predicted, targets)
    if yhat.shape[1] < 2:
        raise ValueError("softmax needs at least two classes")
    if not (((y == 0.0) | (y == 1.0)).all() and (y.sum(axis=1) == 1.0).all()):
        raise ValueError("targets must be one-hot rows")
    shifted = yhat - yhat.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_prob = shifted - log_norm
    loss = -float((y * log_prob).sum())
    return loss, np.exp(log_prob) - y


def predict_labels(predicted) -> np.ndarray:
    """Row argmax; equal scores resolve to the lowest class index."""
    yhat = np.asarray(predicted, dtype=np.float64)
    if yhat.ndim != 2 or yhat.shape[1] < 2:
        raise ValueError(f"need (n, m>=2) scores, got shape {yhat.shape}")
    return np.argmax(yhat, axis=1)


def tukey_rho(residuals, c: float = 1.0) -> np.ndarray:
    """Tukey biweight: (c^2/6)(1 - (1 - r^2/c^2)^3) inside |r| < c, else c^2/6."""
    r = np.asarray(residuals, dtype=np.float64)
    inside = np.abs(r) < c
    u = np.where(inside, 1.0 - (r / c) ** 2, 0.0)
    return np.where(inside, (c * c / 6.0) * (1.0 - u**3), c * c / 6.0)


def tukey_psi(residuals, c: float = 1.0) -> np.ndarray:
    """Derivative of the biweight in r: r (1 - r^2/c^2)^2 inside, 0 outside."""
    r = np.asarray(residuals, dtype=np.float64)
    inside = np.abs(r) < c
    u = np.where(inside, 1.0 - (r / c) ** 2, 0.0)
    return np.where(inside, r * u * u, 0.0)


def tukey_loss(predicted, targets, c: float = 1.0):
    """Summed biweight of r = target - predicted; saturates past |r| = c.

    The gradient w.r.t. the prediction is -psi(r): clipped residuals
    contribute exactly zero, which is what makes the loss robust.
    """
    _check_clip(c)
    yhat, y = _check_pair(predicted, targets)
    r = y - yhat
    return float(tukey_rho(r, c).sum()), -tukey_psi(r, c)


def ls_loss(predicted, targets):
    """Summed squared residuals; gradient w.r.t. the prediction is -2r."""
    yhat, y = _check_pair(predicted, targets)
    r = y - yhat
    return float((r * r).sum()), -2.0 * r


def task_loss(spec: LossSpec, predicted, targets):
    """Dispatch a discriminative loss; the likelihood objective lives upstream."""
    if spec.kind == "softmax":
        return softmax_loss(predicted, targets)
    if spec.kind == "tukey":
        return tukey_loss(predicted, targets, spec.c)
    if spec.kind == "ls":
        return ls_loss(predicted, targets)
    raise ValueError(f"{spec.kind!r} is not a task loss")
