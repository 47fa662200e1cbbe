import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import rtda.tensor as T
from rtda.losses import adv_loss, disc_loss, seg_cross_entropy, total_seg_objective
from rtda.tensor import Tensor


def logits(values, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    if shape is not None:
        arr = np.full(shape, values, dtype=np.float32)
    return Tensor(arr.reshape((1, 1) + arr.shape if arr.ndim == 2 else arr.shape))


def const_logits(value, shape=(1, 1, 4, 4), requires_grad=False):
    return Tensor(np.full(shape, value, dtype=np.float32), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# segmentation cross entropy


def test_seg_ce_uniform_is_log_k():
    probs = Tensor(np.full((1, 19, 4, 4), 1 / 19, dtype=np.float32))
    labels = np.random.default_rng(0).integers(0, 19, (1, 4, 4))
    loss = seg_cross_entropy(probs, labels)
    assert loss.item() == pytest.approx(math.log(19), rel=1e-6)


def test_seg_ce_one_hot_is_zero():
    probs = np.zeros((1, 3, 2, 2), dtype=np.float32)
    labels = np.array([[[0, 1], [2, 0]]])
    for i in range(2):
        for j in range(2):
            probs[0, labels[0, i, j], i, j] = 1.0
    assert seg_cross_entropy(Tensor(probs), labels).item() == 0.0


def test_seg_ce_two_pixel_example():
    probs = np.array([[[[0.8, 0.5]], [[0.2, 0.5]]]], dtype=np.float32)
    labels = np.array([[[0, 1]]])
    loss = seg_cross_entropy(Tensor(probs), labels)
    want = -(math.log(0.8) + math.log(0.5)) / 2
    assert want == pytest.approx(0.45815, abs=5e-6)
    assert loss.item() == pytest.approx(want, rel=1e-6)


def test_seg_ce_ignores_255():
    probs = Tensor(np.full((1, 4, 1, 3), 0.25, dtype=np.float32))
    labels = np.array([[[2, 255, 255]]])
    loss = seg_cross_entropy(probs, labels)
    assert loss.item() == pytest.approx(math.log(4), rel=1e-6)


def test_seg_ce_ignored_content_irrelevant():
    rng = np.random.default_rng(3)
    base = rng.random((1, 3, 4, 4)).astype(np.float32)
    other = base.copy()
    labels = rng.integers(0, 3, (1, 4, 4))
    labels[0, :2] = 255
    other[0, :, :2] = rng.random((3, 2, 4)).astype(np.float32)  # ignored rows scrambled
    a = seg_cross_entropy(Tensor(base), labels).item()
    b = seg_cross_entropy(Tensor(other), labels).item()
    assert a == b


def test_seg_ce_pixel_permutation_equivariant():
    rng = np.random.default_rng(4)
    probs = rng.random((1, 3, 1, 6)).astype(np.float32)
    labels = rng.integers(0, 3, (1, 1, 6))
    perm = rng.permutation(6)
    a = seg_cross_entropy(Tensor(probs), labels).item()
    b = seg_cross_entropy(Tensor(probs[:, :, :, perm]), labels[:, :, perm]).item()
    assert a == pytest.approx(b, rel=1e-6)


def test_seg_ce_all_ignored_raises():
    probs = Tensor(np.full((1, 2, 2, 2), 0.5, dtype=np.float32))
    with pytest.raises(ValueError):
        seg_cross_entropy(probs, np.full((1, 2, 2), 255))


# ---------------------------------------------------------------------------
# adversarial losses


def test_disc_loss_zero_logits():
    loss = disc_loss(const_logits(0.0), const_logits(0.0))
    assert loss.item() == pytest.approx(2 * math.log(2), rel=1e-6)


def test_disc_loss_confident_correct_is_tiny():
    loss = disc_loss(const_logits(20.0), const_logits(-20.0))
    assert loss.item() < 1e-8


def test_disc_loss_sigma_075_example():
    v = math.log(3.0)
    loss = disc_loss(const_logits(v), const_logits(v))
    want = -math.log(0.75) - math.log(0.25)
    assert want == pytest.approx(1.67398, abs=5e-6)
    assert loss.item() == pytest.approx(want, rel=1e-6)


def test_adv_loss_values():
    assert adv_loss(const_logits(0.0)).item() == pytest.approx(math.log(2), rel=1e-6)
    assert adv_loss(const_logits(20.0)).item() < 1e-8
    assert adv_loss(const_logits(-math.log(3.0))).item() == pytest.approx(math.log(4), rel=1e-6)


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_losses_finite_for_any_logits(seed):
    rng = np.random.default_rng(seed)
    d_src = Tensor(rng.uniform(-50, 50, (2, 1, 3, 3)).astype(np.float32))
    d_tgt = Tensor(rng.uniform(-50, 50, (2, 1, 3, 3)).astype(np.float32))
    assert math.isfinite(disc_loss(d_src, d_tgt).item())
    assert math.isfinite(adv_loss(d_tgt).item())
    assert disc_loss(d_src, d_tgt).item() >= 0.0
    assert adv_loss(d_tgt).item() >= 0.0


def test_adv_loss_gradient_always_negative():
    d = Tensor(np.random.default_rng(9).uniform(-30, 30, (1, 1, 5, 5)).astype(np.float32),
               requires_grad=True)
    T.backward(adv_loss(d))
    assert np.all(d.grad < 0)


def test_disc_loss_gradient_signs():
    d_src = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    d_tgt = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    T.backward(disc_loss(d_src, d_tgt))
    assert np.all(d_src.grad < 0)  # push source logits up
    assert np.all(d_tgt.grad > 0)  # push target logits down


# ---------------------------------------------------------------------------
# total objective


def test_total_objective_linear_combination():
    l_seg = seg_cross_entropy(Tensor(np.full((1, 2, 1, 1), 0.5, dtype=np.float32)),
                              np.zeros((1, 1, 1), dtype=np.int64))
    l_adv = adv_loss(const_logits(0.0))
    total = total_seg_objective(l_seg, l_adv, 0.01)
    want = math.log(2) + 0.01 * math.log(2)
    assert total.item() == pytest.approx(want, rel=1e-6)


def test_total_objective_example_value():
    # ln 19 + 0.01 * ln 2
    probs = Tensor(np.full((1, 19, 2, 2), 1 / 19, dtype=np.float32))
    l_seg = seg_cross_entropy(probs, np.zeros((1, 2, 2), dtype=np.int64))
    l_adv = adv_loss(const_logits(0.0))
    total = total_seg_objective(l_seg, l_adv, 0.01)
    assert total.item() == pytest.approx(2.95137, abs=5e-6)


def test_total_objective_lambda_zero_is_identity():
    l_seg = seg_cross_entropy(Tensor(np.full((1, 2, 2, 2), 0.5, dtype=np.float32)),
                              np.zeros((1, 2, 2), dtype=np.int64))
    l_adv = adv_loss(const_logits(3.0))
    total = total_seg_objective(l_seg, l_adv, 0.0)
    assert total is l_seg


def test_total_objective_rejects_negative_lambda():
    l_seg = seg_cross_entropy(Tensor(np.full((1, 2, 1, 1), 0.5, dtype=np.float32)),
                              np.zeros((1, 1, 1), dtype=np.int64))
    l_adv = adv_loss(const_logits(0.0))
    with pytest.raises(ValueError):
        total_seg_objective(l_seg, l_adv, -0.1)


def test_loss_value_2005_example():
    l_seg = seg_cross_entropy(
        Tensor(np.full((1, 2, 1, 1), np.float32(math.exp(-2.0)), dtype=np.float32)),
        np.zeros((1, 1, 1), dtype=np.int64),
    )
    l_adv = adv_loss(const_logits(-math.log(math.expm1(0.5))))  # adv = softplus(-d) = 0.5
    total = total_seg_objective(l_seg, l_adv, 0.01)
    assert l_seg.item() == pytest.approx(2.0, rel=1e-6)
    assert l_adv.item() == pytest.approx(0.5, rel=1e-5)
    assert total.item() == pytest.approx(2.005, rel=1e-5)
