"""Multiclass evaluation: confusion matrix, weighted/macro summaries,
one-vs-rest ROC-AUC and multi-run aggregation.

Conventions: precision, recall and F1 are defined as 0 whenever their
denominator is 0 (a warning counts such classes); macro averages run
over every class in the label set, including zero-support ones;
weighted averages use true-class support. ROC-AUC is the midrank
Mann-Whitney statistic per class, one-vs-rest, support-weighted.

A run's metrics are one record, a flat dict of floats: `summarize`'s
five keys plus "roc_auc_weighted_ovr", the names and order of QUALITY.
`aggregate` turns a list of such records (or of any flat float dicts,
such as a run's timings) into their mean and population std.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateClass, EmptyMatrix, EmptyRuns, LabelOutOfRange

QUALITY = (
    "accuracy",
    "precision_weighted",
    "recall_weighted",
    "f1_weighted",
    "f1_macro",
    "roc_auc_weighted_ovr",
)


def confusion(y_true, y_pred, class_count: int) -> np.ndarray:
    """C x C count matrix; rows are true classes, columns predictions."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise LabelOutOfRange("y_true and y_pred must have the same length")
    for name, arr in (("y_true", y_true), ("y_pred", y_pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= class_count):
            raise LabelOutOfRange(f"{name} contains labels outside [0, {class_count})")
    matrix = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def summarize(matrix: np.ndarray) -> dict[str, float]:
    """Accuracy plus weighted precision/recall/F1 and macro F1 from counts."""
    matrix = np.asarray(matrix)
    n = int(matrix.sum())
    if n == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    C = matrix.shape[0]
    tp = np.diag(matrix).astype(np.float64)
    pred_totals = matrix.sum(axis=0).astype(np.float64)
    true_totals = matrix.sum(axis=1).astype(np.float64)

    zero_den = int(np.count_nonzero(pred_totals == 0) + np.count_nonzero(true_totals == 0))
    if zero_den:
        warnings.warn(
            f"{zero_den} zero-denominator precision/recall terms were set to 0",
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_totals > 0, tp / pred_totals, 0.0)
        recall = np.where(true_totals > 0, tp / true_totals, 0.0)
        pr_sum = precision + recall
        f1 = np.where(pr_sum > 0, 2.0 * precision * recall / np.where(pr_sum > 0, pr_sum, 1.0), 0.0)

    support = true_totals / n
    return {
        "accuracy": float(tp.sum() / n),
        "precision_weighted": float(np.dot(support, precision)),
        "recall_weighted": float(np.dot(support, recall)),
        "f1_weighted": float(np.dot(support, f1)),
        "f1_macro": float(f1.sum() / C),
    }


def rankdata(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each run of ties given the mean of the ranks it spans.

    The midranks of scipy.stats.rankdata, without its import cost; as
    there, a NaN anywhere makes every rank NaN.
    """
    if np.isnan(values).any():
        return np.full(len(values), np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    ranks = np.empty(len(values))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def binary_auc(scores, positive_mask) -> float:
    """Midrank AUC of scores for positives vs the rest."""
    scores = np.asarray(scores, dtype=np.float64)
    positive_mask = np.asarray(positive_mask, dtype=bool)
    n_pos = int(positive_mask.sum())
    n_neg = int(len(scores) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClass("binary AUC needs both positive and negative examples")
    ranks = rankdata(scores)  # average ranks on ties
    rank_sum = float(ranks[positive_mask].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_auc_ovr_weighted(scores, y_true) -> float:
    """Support-weighted one-vs-rest AUC over the score columns.

    Classes with no positives (or no negatives) are excluded from the
    average with a warning; an all-one-class y_true is an error.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != len(y_true):
        raise LabelOutOfRange("scores must be (n, C) aligned with y_true")
    if np.isnan(scores).any():  # -inf (a class no train row had) ranks, and ties, as it is
        raise DegenerateClass("scores must not be NaN for ranking")
    C = scores.shape[1]
    if len(np.unique(y_true)) < 2:
        raise DegenerateClass("ROC-AUC needs at least two classes present in y_true")

    aucs, weights, skipped = [], [], []
    for c in range(C):
        mask = y_true == c
        n_pos = int(mask.sum())
        if n_pos == 0 or n_pos == len(y_true):
            skipped.append(c)
            continue
        aucs.append(binary_auc(scores[:, c], mask))
        weights.append(n_pos)
    if skipped:
        warnings.warn(
            f"classes {skipped} lack positives or negatives and were excluded from ROC-AUC",
            stacklevel=2,
        )
    weights_arr = np.asarray(weights, dtype=np.float64)
    # dividing the dot product, not the weights, keeps perfect per-class AUCs at exactly 1
    return float(np.dot(aucs, weights_arr) / weights_arr.sum())


def aggregate(records: list[dict[str, float]]) -> dict:
    """Run count, and mean and population std of every key, across records with the same keys."""
    if not records:
        raise EmptyRuns("cannot aggregate zero runs")
    mean: dict[str, float] = {}
    std: dict[str, float] = {}
    for name in records[0]:
        values = np.array([record[name] for record in records], dtype=np.float64)
        mean[name] = float(values.mean())
        # population std; identical values are exactly 0, not a mean-rounding ulp
        std[name] = 0.0 if np.all(values == values[0]) else float(values.std())
    return {"run_count": len(records), "mean": mean, "std": std}
