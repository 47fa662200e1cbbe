import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import rtda.tensor as T
from rtda.tensor import NonFiniteError, ShapeError, Tensor


def conv_reference(x, w, b, stride, pad):
    """Naive loop cross-correlation, float64 accumulation."""
    n, c_in, h, width = x.shape
    c_out, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
            out[:, :, i, j] = np.einsum("ncij,ocij->no", patch, w.astype(np.float64))
    return out + b.astype(np.float64).reshape(1, c_out, 1, 1)


def rand(shape, seed, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


# ---------------------------------------------------------------------------
# conv2d


def test_conv_all_ones_3x3():
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
    w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros(1, dtype=np.float32))
    out = T.conv2d(x, w, b)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0
    T.backward(out)
    assert np.array_equal(x.grad, np.ones((1, 1, 3, 3)))
    assert np.array_equal(w.grad, np.ones((1, 1, 3, 3)))


def test_conv_identity_kernel():
    x = Tensor(rand((2, 1, 5, 7), 0))
    w = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    b = Tensor(np.zeros(1, dtype=np.float32))
    out = T.conv2d(x, w, b)
    assert np.array_equal(out.data, x.data)


def test_conv_one_hot_kernel_is_shifted_crop():
    x = Tensor(rand((1, 1, 6, 6), 1))
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 2, 1] = 1.0
    out = T.conv2d(x, Tensor(w), Tensor(np.zeros(1, dtype=np.float32)))
    assert np.array_equal(out.data[0, 0], x.data[0, 0, 2:6, 1:5])


def test_conv_stride2_output_shape():
    # floor((H + 2p - k) / s) + 1 with k=4, s=2, p=1 halves each extent
    x = Tensor(np.zeros((1, 19, 64, 128), dtype=np.float32))
    w = Tensor(np.zeros((3, 19, 4, 4), dtype=np.float32))
    out = T.conv2d(x, w, Tensor(np.zeros(3, dtype=np.float32)), stride=2, pad=1)
    assert out.shape == (1, 3, 32, 64)


def test_conv_channel_mismatch_raises():
    x = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
    w = Tensor(np.zeros((2, 4, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError):
        T.conv2d(x, w, Tensor(np.zeros(2, dtype=np.float32)))


def test_conv_kernel_larger_than_padded_input_raises():
    x = Tensor(np.zeros((1, 1, 2, 2), dtype=np.float32))
    w = Tensor(np.zeros((1, 1, 5, 5), dtype=np.float32))
    with pytest.raises(ShapeError):
        T.conv2d(x, w, Tensor(np.zeros(1, dtype=np.float32)))


@given(
    n=st.integers(1, 2),
    c_in=st.integers(1, 3),
    c_out=st.integers(1, 3),
    h=st.integers(3, 8),
    w=st.integers(3, 8),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_conv_matches_loop_reference(n, c_in, c_out, h, w, k, stride, pad, seed):
    if h + 2 * pad < k or w + 2 * pad < k:
        return
    x = rand((n, c_in, h, w), seed)
    wt = rand((c_out, c_in, k, k), seed + 1, scale=0.5)
    b = rand((c_out,), seed + 2, scale=0.2)
    out = T.conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
    ref = conv_reference(x, wt, b, stride, pad)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# depthwise_conv2d


def test_depthwise_per_channel_independence():
    x = np.zeros((1, 2, 5, 5), dtype=np.float32)
    x[0, 0] = 1.0
    w = Tensor(np.ones((2, 1, 3, 3), dtype=np.float32))
    out = T.depthwise_conv2d(Tensor(x), w, Tensor(np.zeros(2, dtype=np.float32)))
    assert np.all(out.data[0, 0] == 9.0)
    assert np.all(out.data[0, 1] == 0.0)


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0), (3, 0), (3, 1)])
def test_depthwise_equals_block_diagonal_conv(stride, pad):
    c = 3
    x = rand((2, c, 7, 9), 5)
    wt = rand((c, 1, 3, 3), 6, scale=0.5)
    b = rand((c,), 7, scale=0.2)
    block = np.zeros((c, c, 3, 3), dtype=np.float32)
    for i in range(c):
        block[i, i] = wt[i, 0]
    dw = T.depthwise_conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
    full = T.conv2d(Tensor(x), Tensor(block), Tensor(b), stride=stride, pad=pad)
    np.testing.assert_allclose(dw.data, full.data, rtol=1e-5, atol=1e-6)


@given(
    c=st.integers(1, 4),
    h=st.integers(3, 9),
    w=st.integers(3, 9),
    k=st.integers(1, 4),
    stride=st.integers(1, 3),
    pad=st.integers(0, 2),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_depthwise_matches_loop_reference(c, h, w, k, stride, pad, seed):
    if h + 2 * pad < k or w + 2 * pad < k:
        return
    x = rand((2, c, h, w), seed)
    wt = rand((c, 1, k, k), seed + 1, scale=0.5)
    b = rand((c,), seed + 2, scale=0.2)
    block = np.zeros((c, c, k, k), dtype=np.float32)
    for i in range(c):
        block[i, i] = wt[i, 0]
    out = T.depthwise_conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, pad=pad)
    ref = conv_reference(x, block, b, stride, pad)
    np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-5)


def test_depthwise_wrong_weight_shape():
    x = Tensor(np.zeros((1, 3, 6, 6), dtype=np.float32))
    with pytest.raises(ShapeError):
        T.depthwise_conv2d(x, Tensor(np.zeros((3, 2, 3, 3), dtype=np.float32)),
                           Tensor(np.zeros(3, dtype=np.float32)))


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_depthwise_gradients_match_dense_equivalent(stride):
    c = 2
    x = rand((1, c, 6, 6), 11)
    wt = rand((c, 1, 4, 4), 12, scale=0.5)
    b = rand((c,), 13)

    xt, wtt, bt = Tensor(x, True), Tensor(wt, True), Tensor(b, True)
    out = T.depthwise_conv2d(xt, wtt, bt, stride=stride, pad=1)
    probe = rand(out.shape, 14)
    T.backward(T.reduce_sum(T.mul(out, Tensor(probe))))

    block = np.zeros((c, c, 4, 4), dtype=np.float32)
    for i in range(c):
        block[i, i] = wt[i, 0]
    xd, wd, bd = Tensor(x, True), Tensor(block, True), Tensor(b, True)
    ref = T.conv2d(xd, wd, bd, stride=stride, pad=1)
    T.backward(T.reduce_sum(T.mul(ref, Tensor(probe))))

    np.testing.assert_allclose(xt.grad, xd.grad, rtol=1e-4, atol=1e-6)
    for i in range(c):
        np.testing.assert_allclose(wtt.grad[i, 0], wd.grad[i, i], rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(bt.grad, bd.grad, rtol=1e-5)


# ---------------------------------------------------------------------------
# pointwise / reductions / activations


def test_leaky_relu_values():
    x = Tensor(np.array([1.0, -1.0, 0.0], dtype=np.float32).reshape(1, 3, 1, 1))
    out = T.leaky_relu(x, 0.2)
    np.testing.assert_array_equal(out.data.ravel(), np.array([1.0, -0.2, 0.0], dtype=np.float32))


def test_add_mul_broadcast_gate():
    x = Tensor(rand((2, 3, 4, 4), 21), requires_grad=True)
    gate = Tensor(rand((2, 3, 1, 1), 22), requires_grad=True)
    out = T.mul(x, gate)
    np.testing.assert_allclose(out.data, x.data * gate.data, rtol=1e-6)
    T.backward(T.reduce_sum(out))
    np.testing.assert_allclose(gate.grad, x.data.sum(axis=(2, 3), keepdims=True), rtol=1e-5)
    np.testing.assert_allclose(x.grad, np.broadcast_to(gate.data, x.shape), rtol=1e-6)
    # the gate broadcasts only as the second operand
    with pytest.raises(ShapeError):
        T.mul(gate, x)


def test_reduce_mean_and_sum():
    x = Tensor(rand((2, 3, 4, 5), 31), requires_grad=True)
    s = T.reduce_sum(x)
    m = T.reduce_mean(x)
    assert abs(s.item() - float(x.data.sum())) < 1e-4
    assert abs(m.item() - float(x.data.mean())) < 1e-6
    T.backward(m)
    np.testing.assert_allclose(x.grad, np.full(x.shape, 1.0 / x.data.size), rtol=1e-6)


def test_global_average_pool():
    x = Tensor(rand((2, 3, 5, 5), 32))
    out = T.global_average_pool(x)
    assert out.shape == (2, 3, 1, 1)
    np.testing.assert_allclose(out.data[:, :, 0, 0], x.data.mean(axis=(2, 3)), rtol=1e-6)


def test_concat_channels_and_grad_split():
    a = Tensor(rand((1, 2, 3, 3), 41), requires_grad=True)
    b = Tensor(rand((1, 3, 3, 3), 42), requires_grad=True)
    out = T.concat_channels([a, b])
    assert out.shape == (1, 5, 3, 3)
    np.testing.assert_array_equal(out.data[:, :2], a.data)
    np.testing.assert_array_equal(out.data[:, 2:], b.data)
    T.backward(T.reduce_sum(T.mul(out, out)))
    np.testing.assert_allclose(a.grad, 2 * a.data, rtol=1e-6)
    np.testing.assert_allclose(b.grad, 2 * b.data, rtol=1e-6)


def test_slice_batch_values_and_zero_scatter():
    x = Tensor(rand((4, 2, 3, 3), 43), requires_grad=True)
    part = T.slice_batch(x, 1, 3)
    np.testing.assert_array_equal(part.data, x.data[1:3])
    T.backward(T.reduce_sum(part))
    assert np.all(x.grad[0] == 0) and np.all(x.grad[3] == 0)
    assert np.all(x.grad[1:3] == 1)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform():
    x = Tensor(np.zeros((1, 19, 2, 2), dtype=np.float32))
    out = T.softmax_channels(x)
    np.testing.assert_allclose(out.data, 1.0 / 19.0, rtol=1e-6)


def test_softmax_shift_invariance_bitwise():
    # integer logits keep the constant shift exact in float32, so the
    # max-subtracted values are bit-identical
    logits = np.random.default_rng(51).integers(-4, 5, (2, 5, 3, 3)).astype(np.float32)
    shifted = logits + np.float32(13.0)
    a = T.softmax_channels(Tensor(logits))
    b = T.softmax_channels(Tensor(shifted))
    assert np.array_equal(a.data, b.data)


def test_softmax_two_class_example():
    logits = np.zeros((1, 2, 1, 1), dtype=np.float32)
    logits[0, 0] = math.log(2.0)
    out = T.softmax_channels(Tensor(logits))
    np.testing.assert_allclose(out.data[0, :, 0, 0], [2 / 3, 1 / 3], rtol=1e-6)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_sums_to_one(seed):
    x = Tensor(rand((2, 4, 3, 3), seed, scale=3.0))
    out = T.softmax_channels(x)
    assert out.data.min() >= 0
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# masked nll


def test_masked_nll_matches_manual():
    probs = np.full((1, 4, 2, 2), 0.25, dtype=np.float32)
    probs[0, :, 0, 0] = [0.7, 0.1, 0.1, 0.1]
    labels = np.array([[[0, 1], [255, 2]]], dtype=np.int64)
    out = T.masked_nll(Tensor(probs), labels)
    want = -(math.log(0.7) + math.log(0.25) + math.log(0.25)) / 3
    assert abs(out.item() - want) < 1e-6


def test_masked_nll_gradient_only_at_true_class():
    probs = Tensor(np.full((1, 3, 1, 2), 1 / 3, dtype=np.float32), requires_grad=True)
    labels = np.array([[[1, 255]]], dtype=np.int64)
    T.backward(T.masked_nll(probs, labels))
    g = probs.grad
    assert g[0, 1, 0, 0] != 0
    assert g[0, 0, 0, 0] == 0 and g[0, 2, 0, 0] == 0
    assert np.all(g[0, :, 0, 1] == 0)  # ignored pixel contributes nothing


def test_masked_nll_all_ignored_raises():
    probs = Tensor(np.full((1, 2, 2, 2), 0.5, dtype=np.float32))
    labels = np.full((1, 2, 2), 255, dtype=np.int64)
    with pytest.raises(ValueError):
        T.masked_nll(probs, labels)


# ---------------------------------------------------------------------------
# bilinear upsample


def test_bilinear_constant_preserved():
    x = Tensor(np.full((1, 1, 4, 4), 3.5, dtype=np.float32))
    out = T.bilinear_upsample(x, 8, 8)
    np.testing.assert_allclose(out.data, 3.5, rtol=1e-6)


def test_bilinear_single_pixel():
    x = Tensor(np.array([[[[2.25]]]], dtype=np.float32))
    out = T.bilinear_upsample(x, 3, 5)
    assert out.shape == (1, 1, 3, 5)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 5), 2.25, dtype=np.float32))


def test_bilinear_two_to_four():
    x = Tensor(np.array([0.0, 1.0], dtype=np.float32).reshape(1, 1, 2, 1))
    out = T.bilinear_upsample(x, 4, 1)
    np.testing.assert_allclose(out.data.ravel(), [0.0, 0.25, 0.75, 1.0], atol=1e-6)


def test_bilinear_rejects_shrinking():
    x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        T.bilinear_upsample(x, 2, 4)
    with pytest.raises(ShapeError):
        T.bilinear_upsample(x, 0, 8)


# ---------------------------------------------------------------------------
# batch norm


def test_batch_norm_train_normalizes():
    x = Tensor(rand((8, 3, 6, 6), 61, scale=2.5) + 1.5)
    gamma = Tensor(np.ones(3, dtype=np.float32))
    beta = Tensor(np.zeros(3, dtype=np.float32))
    rm, rv = np.zeros(3, dtype=np.float32), np.ones(3, dtype=np.float32)
    out = T.batch_norm(x, gamma, beta, rm, rv, train=True)
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    assert np.abs(mean).max() < 1e-5
    assert np.abs(var - 1.0).max() < 1e-4
    # running stats moved toward the batch stats
    assert not np.allclose(rm, 0.0)


def test_batch_norm_eval_is_affine():
    x = rand((2, 3, 4, 4), 62)
    gamma = np.array([1.5, 0.5, 2.0], dtype=np.float32)
    beta = np.array([0.1, -0.2, 0.0], dtype=np.float32)
    rm = np.array([0.3, -0.1, 0.2], dtype=np.float32)
    rv = np.array([1.2, 0.8, 2.0], dtype=np.float32)
    out = T.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), rm.copy(), rv.copy(), train=False)
    scale = gamma / np.sqrt(rv + 1e-5)
    want = x * scale.reshape(1, 3, 1, 1) + (beta - rm * scale).reshape(1, 3, 1, 1)
    np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-6)
    # invert the affine map: recovers the input
    inv = (out.data - (beta - rm * scale).reshape(1, 3, 1, 1)) / scale.reshape(1, 3, 1, 1)
    np.testing.assert_allclose(inv, x, atol=1e-5)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_linear_case():
    x = rand((2, 3, 2, 2), 71)
    w = Tensor(rand((2, 3, 2, 2), 72), requires_grad=True)
    T.backward(T.reduce_sum(T.mul(w, Tensor(x))))
    np.testing.assert_array_equal(w.grad, x)


def test_backward_accumulates_across_calls():
    w = Tensor(rand((1, 2, 3, 3), 73), requires_grad=True)
    x = Tensor(rand((1, 2, 3, 3), 74))

    def loss():
        return T.reduce_mean(T.mul(w, x))

    T.backward(loss())
    once = w.grad.copy()
    T.backward(loss())
    np.testing.assert_allclose(w.grad, 2 * once, rtol=1e-6)
    w.zero_grad()
    assert w.grad is None


def test_backward_requires_scalar():
    x = Tensor(rand((1, 2, 2, 2), 75), requires_grad=True)
    with pytest.raises(ShapeError):
        T.backward(T.mul(x, x))


def test_non_finite_forward_raises():
    bad = np.full((1, 1, 2, 2), np.float32(3e38))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            T.mul(Tensor(bad), Tensor(bad))


def test_op_determinism():
    def pipeline():
        x = Tensor(rand((2, 3, 8, 8), 81), requires_grad=True)
        w = Tensor(rand((4, 3, 3, 3), 82), requires_grad=True)
        out = T.conv2d(x, w, Tensor(np.zeros(4, dtype=np.float32)), stride=2, pad=1)
        out = T.softmax_channels(out)
        T.backward(T.reduce_mean(out))
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    a, b = pipeline(), pipeline()
    for lhs, rhs in zip(a, b):
        assert np.array_equal(lhs, rhs)
