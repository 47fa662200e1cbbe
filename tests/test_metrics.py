from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtda.metrics import ConfusionMatrix, miou, report_csv


def set_based_iou(pred, truth, num_classes, ignore_index=255):
    """Exact-rational oracle: per class, |pred ∩ truth| / |pred ∪ truth| over
    scored pixels, None when the union is empty."""
    keep = truth != ignore_index
    per_class = []
    for c in range(num_classes):
        p = (pred == c) & keep
        t = (truth == c) & keep
        union = int((p | t).sum())
        inter = int((p & t).sum())
        per_class.append(Fraction(inter, union) if union else None)
    scored = [float(v) for v in per_class if v is not None]
    mean = sum(scored) / len(scored) if scored else None
    return per_class, mean


def fill(cm, pred, truth):
    cm.accumulate(np.asarray(pred), np.asarray(truth))
    return cm


def test_perfect_two_class():
    cm = ConfusionMatrix(2)
    cm.counts[0, 0] = 50
    cm.counts[1, 1] = 50
    per_class, mean = miou(cm)
    assert per_class == [1.0, 1.0]
    assert mean == 1.0


def test_hand_example_point_six():
    cm = ConfusionMatrix(2)
    cm.counts[:] = [[3, 1], [1, 3]]
    per_class, mean = miou(cm)
    assert per_class == [0.6, 0.6]
    assert mean == 0.6


def test_subset_restricts_mean():
    cm = ConfusionMatrix(2)
    cm.counts[:] = [[3, 1], [1, 3]]
    per_class, mean = miou(cm, class_subset=[0])
    assert mean == 0.6
    assert per_class[0] == 0.6 and per_class[1] is None


def test_absent_class_excluded_from_mean():
    cm = ConfusionMatrix(3)
    cm.counts[0, 0] = 10
    cm.counts[1, 1] = 5
    cm.counts[1, 0] = 5
    per_class, mean = miou(cm)
    assert per_class[2] is None
    assert mean == pytest.approx((10 / 15 + 5 / 10) / 2)


def test_accumulate_hand_count():
    cm = fill(ConfusionMatrix(2), [0, 1, 1, 0], [0, 1, 0, 1])
    assert cm.counts.tolist() == [[1, 1], [1, 1]]


def test_accumulate_ignores_255():
    cm = fill(ConfusionMatrix(2), [0, 1, 1], [0, 255, 255])
    assert cm.counts.sum() == 1
    assert cm.counts[0, 0] == 1


def test_diagonal_when_pred_equals_truth():
    truth = np.random.default_rng(0).integers(0, 4, 100)
    cm = fill(ConfusionMatrix(4), truth, truth)
    assert cm.counts.sum() == 100
    assert np.trace(cm.counts) == 100


def test_out_of_range_prediction_raises():
    cm = ConfusionMatrix(3)
    with pytest.raises(ValueError):
        cm.accumulate(np.array([3]), np.array([0]))
    with pytest.raises(ValueError):
        cm.accumulate(np.array([0]), np.array([7]))


def test_shape_mismatch_raises():
    cm = ConfusionMatrix(2)
    with pytest.raises(ValueError):
        cm.accumulate(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3), dtype=np.int64))


def test_accumulation_order_independent():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 5, (6, 8, 8))
    truth = rng.integers(0, 5, (6, 8, 8))
    one = ConfusionMatrix(5)
    one.accumulate(pred, truth)
    other = ConfusionMatrix(5)
    for idx in [3, 0, 5, 2, 4, 1]:
        other.accumulate(pred[idx], truth[idx])
    assert np.array_equal(one.counts, other.counts)


def test_empty_effective_class_set_raises():
    cm = ConfusionMatrix(3)
    with pytest.raises(ValueError):
        miou(cm)


def test_oracle_two_hundred_random_pairs_exact():
    """Confusion-matrix IoU equals the set-based rational computation."""
    rng = np.random.default_rng(2024)
    for trial in range(200):
        k = int(rng.integers(2, 7))
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        truth = rng.integers(0, k, (h, w))
        truth[rng.random((h, w)) < 0.1] = 255
        pred = rng.integers(0, k, (h, w))
        cm = fill(ConfusionMatrix(k), pred, truth)
        want_classes, want_mean = set_based_iou(pred, truth, k)
        if all(v is None for v in want_classes):
            with pytest.raises(ValueError):
                miou(cm)
            continue
        got_classes, got_mean = miou(cm)
        for got, want in zip(got_classes, want_classes):
            if want is None:
                assert got is None
            else:
                assert got == float(want)
        assert got_mean == want_mean


@given(st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_mean_between_min_and_max(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    pred = rng.integers(0, k, 64)
    truth = rng.integers(0, k, 64)
    cm = fill(ConfusionMatrix(k), pred, truth)
    per_class, mean = miou(cm)
    scored = [v for v in per_class if v is not None]
    assert min(scored) - 1e-12 <= mean <= max(scored) + 1e-12
    assert all(0.0 <= v <= 1.0 for v in scored)


def test_report_csv_shape():
    cm = ConfusionMatrix(2)
    cm.counts[:] = [[3, 1], [1, 3]]
    text = report_csv(cm)
    lines = text.strip().splitlines()
    assert lines[0] == "class,iou"
    assert lines[-1].startswith("mIoU,")
    assert float(lines[-1].split(",")[1]) == 0.6
    assert len(lines) == 4
