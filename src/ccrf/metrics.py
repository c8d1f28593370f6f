"""Evaluation suites: discrete labelling scores and regression error rates.

Both suites weight node-level values by the number of pixels each node
owns, so scores agree with what dense per-pixel evaluation would report.
"""

from __future__ import annotations

import numpy as np


def seg_metrics(pred_labels, true_labels, pixel_counts, num_classes: int) -> dict:
    """Pixel accuracy, class accuracy, and Jaccard summaries.

    Classes absent from the ground truth are excluded from the class
    accuracy and the average Jaccard; ``per_class_jaccard`` reports NaN
    for classes that appear in neither truth nor prediction.
    """
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    weights = np.asarray(pixel_counts, dtype=np.float64)
    if pred.shape != true.shape or pred.shape != weights.shape:
        raise ValueError("predictions, truth, and pixel counts must align")
    if num_classes < 2:
        raise ValueError(f"need at least two classes, got {num_classes}")
    if pred.min() < 0 or pred.max() >= num_classes:
        raise ValueError("predicted label out of range")
    if true.min() < 0 or true.max() >= num_classes:
        raise ValueError("true label out of range")
    if weights.min() <= 0:
        raise ValueError("pixel counts must be positive")

    cells = (true * num_classes + pred).ravel()
    confusion = np.bincount(cells, weights.ravel(), num_classes**2).reshape(num_classes, -1)
    total = confusion.sum()
    true_per_class = confusion.sum(axis=1)
    pred_per_class = confusion.sum(axis=0)
    hits = np.diagonal(confusion)

    present = true_per_class > 0
    union = true_per_class + pred_per_class - hits
    jaccard = np.where(union > 0, hits / np.where(union > 0, union, 1.0), np.nan)
    frequencies = true_per_class[present] / total
    return {
        "pixel_acc": float(hits.sum() / total),
        "class_acc": float((hits[present] / true_per_class[present]).mean()),
        "avg_jaccard": float(jaccard[present].mean()),
        "freq_jaccard": float((frequencies * jaccard[present]).sum()),
        "per_class_jaccard": jaccard,
    }


def depth_metrics(predicted, truth, pixel_counts) -> dict:
    """Relative error, log10 error, rms, and threshold fractions.

    If the truth is not strictly positive, 0.01 is added to both
    sides before the ratio and log metrics (rms is computed on the same
    shifted values, which leaves it unchanged).  Predictions are floored
    at a tiny positive value inside the log and ratio terms only.
    """
    pred = np.asarray(predicted, dtype=np.float64).ravel()
    true = np.asarray(truth, dtype=np.float64).ravel()
    weights = np.asarray(pixel_counts, dtype=np.float64).ravel()
    if pred.shape != true.shape or pred.shape != weights.shape:
        raise ValueError("predictions, truth, and pixel counts must align")
    if pred.size == 0:
        raise ValueError("nothing to evaluate")
    if weights.min() <= 0:
        raise ValueError("pixel counts must be positive")
    if not (np.isfinite(pred).all() and np.isfinite(true).all()):
        raise ValueError("values must be finite")

    if true.min() <= 0.0:
        pred = pred + 0.01
        true = true + 0.01
    if true.min() <= 0.0:
        raise ValueError("truth remains nonpositive after shifting")

    wsum = weights.sum()
    pred_floor = np.maximum(pred, 1e-12)
    diff = true - pred
    ratio = np.maximum(true / pred_floor, pred_floor / true)
    out = {
        "rel": float((weights * np.abs(diff) / true).sum() / wsum),
        "log10": float(
            (weights * np.abs(np.log10(true) - np.log10(pred_floor))).sum() / wsum
        ),
        "rms": float(np.sqrt((weights * diff**2).sum() / wsum)),
    }
    for k in (1, 2, 3):
        out[f"delta{k}"] = float((weights * (ratio < 1.25**k)).sum() / wsum)
    return out
