"""Confusion-matrix accumulation and intersection-over-union summaries.

Counts are 64-bit integers (rows ground truth, columns prediction;
pixels labeled with the ignore index are skipped), so long evaluations
never drift. IoU per class is TP / (TP + FP + FN); classes absent from
both prediction and truth carry no denominator and are left out of the
mean. A class subset restricts both the per-class listing and the mean.
"""

from __future__ import annotations

import numpy as np

from rtda.tensor import IGNORE_INDEX


class ConfusionMatrix:
    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise ValueError("need at least 2 classes")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, pred: np.ndarray, truth: np.ndarray) -> None:
        pred = np.asarray(pred)
        truth = np.asarray(truth)
        if pred.shape != truth.shape:
            raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
        k = self.num_classes
        keep = truth != IGNORE_INDEX
        p = pred[keep].astype(np.int64)
        t = truth[keep].astype(np.int64)
        if p.size and (p.min() < 0 or p.max() >= k):
            raise ValueError(f"prediction outside [0, {k})")
        if t.size and (t.min() < 0 or t.max() >= k):
            raise ValueError(f"truth label outside [0, {k}) and not {IGNORE_INDEX}")
        np.add.at(self.counts, (t, p), 1)


def miou(cm: ConfusionMatrix, class_subset=None):
    """Per-class IoUs (length K, None where unscored or outside the subset)
    and their mean over the scored classes."""
    k = cm.num_classes
    if class_subset is None:
        selected = range(k)
    else:
        selected = sorted(set(int(c) for c in class_subset))
        if any(c < 0 or c >= k for c in selected):
            raise ValueError(f"class subset outside [0, {k})")
    counts = cm.counts
    col = counts.sum(axis=0)
    row = counts.sum(axis=1)
    per_class = [None] * k
    scored = []
    for c in selected:
        tp = int(counts[c, c])
        denom = int(row[c]) + int(col[c]) - tp
        if denom == 0:
            continue
        iou = tp / denom
        per_class[c] = iou
        scored.append(iou)
    if not scored:
        raise ValueError("no class has a nonzero IoU denominator in the selection")
    return per_class, sum(scored) / len(scored)


def report_csv(cm: ConfusionMatrix, class_subset=None) -> str:
    """`class,iou` rows for every scored class plus an mIoU footer."""
    per_class, mean = miou(cm, class_subset)
    lines = ["class,iou"]
    for c, iou in enumerate(per_class):
        if iou is None:
            continue
        lines.append(f"{c},{iou:.6f}")
    lines.append(f"mIoU,{mean:.6f}")
    return "\n".join(lines) + "\n"
