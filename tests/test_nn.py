import math

import numpy as np
import pytest

import rtda.tensor as T
from rtda.nn import (
    BatchNorm2d,
    Conv2d,
    DepthwiseSeparableConv2d,
    LeakyReLU,
    ReLU,
    Sequential,
    init_kaiming,
    num_params,
)
from rtda.rng import Xoshiro256StarStar
from rtda.tensor import ShapeError, Tensor


def rand(shape, seed, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


def test_conv_layer_param_count():
    assert num_params(Conv2d(19, 64, 4)) == 19 * 64 * 16 + 64 == 19_520


def test_dsconv_layer_param_count():
    layer = DepthwiseSeparableConv2d(19, 64, 4)
    assert num_params(layer) == 19 * 16 + 19 + 19 * 64 + 64 == 1_603


def test_empty_sequential_identity_and_zero_params():
    model = Sequential()
    assert num_params(model) == 0
    x = Tensor(rand((1, 3, 4, 4), 0))
    assert model(x) is x


def test_sequential_leaky_relu_graph():
    model = Sequential(LeakyReLU(0.2))
    x = Tensor(np.array([-1.0, 2.0], dtype=np.float32).reshape(1, 2, 1, 1))
    out = model(x)
    np.testing.assert_array_equal(out.data.ravel(), np.array([-0.2, 2.0], dtype=np.float32))


def test_sequential_reports_failing_layer():
    model = Sequential(ReLU(), Conv2d(8, 4, 3))
    x = Tensor(rand((1, 3, 6, 6), 1))
    with pytest.raises(ShapeError, match=r"layer 1 \(Conv2d\)"):
        model(x)


def test_dsconv_equals_two_stage_composition():
    layer = DepthwiseSeparableConv2d(3, 5, 4, stride=2, pad=1)
    init_kaiming(layer, Xoshiro256StarStar(3))
    x = Tensor(rand((2, 3, 8, 8), 2))
    out = layer(x)

    mid = T.depthwise_conv2d(x, layer.dw_weight, layer.dw_bias, stride=2, pad=1)
    ref = T.conv2d(mid, layer.pw_weight, layer.pw_bias)
    assert np.array_equal(out.data, ref.data)


def test_named_parameters_unique_and_complete():
    model = Sequential(Conv2d(3, 8, 3), BatchNorm2d(8), ReLU(), DepthwiseSeparableConv2d(8, 4, 3))
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert num_params(model) == sum(p.data.size for _, p in model.named_parameters())


def test_set_requires_grad_and_zero_grad():
    layer = Conv2d(2, 2, 3, pad=1)
    layer.set_requires_grad(False)
    assert all(not p.requires_grad for p in layer.parameters())
    layer.set_requires_grad(True)
    x = Tensor(rand((1, 2, 4, 4), 4))
    T.backward(T.reduce_sum(layer(x)))
    assert all(p.grad is not None for p in layer.parameters())


def test_init_kaiming_statistics():
    """std = sqrt(2 / fan_in), fan_in = in_channels * k^2; sample std within 2%."""
    layer = Conv2d(25, 160, 5)  # 100k weights
    init_kaiming(layer, Xoshiro256StarStar(2024))
    target = math.sqrt(2.0 / (25 * 25))
    sample = float(layer.weight.data.std())
    assert abs(sample - target) / target < 0.02
    assert abs(float(layer.weight.data.mean())) < 0.01 * target * 10
    assert np.all(layer.bias.data == 0.0)


def test_init_kaiming_conv_example_std():
    # 19 -> 64, k=4: fan_in = 304
    layer = Conv2d(19, 64, 4)
    init_kaiming(layer, Xoshiro256StarStar(0))
    target = math.sqrt(2.0 / 304)
    assert abs(target - 0.08111) < 5e-5
    assert abs(float(layer.weight.data.std()) - target) / target < 0.05


def test_init_kaiming_dsconv_fan_ins():
    layer = DepthwiseSeparableConv2d(16, 64, 4)
    init_kaiming(layer, Xoshiro256StarStar(1))
    dw_target = math.sqrt(2.0 / 16)       # per-channel spatial stage: fan_in = k^2
    pw_target = math.sqrt(2.0 / 16)       # pointwise: fan_in = in_channels * 1
    assert abs(float(layer.dw_weight.data.std()) - dw_target) / dw_target < 0.15
    assert abs(float(layer.pw_weight.data.std()) - pw_target) / pw_target < 0.05
    assert np.all(layer.dw_bias.data == 0.0) and np.all(layer.pw_bias.data == 0.0)


def test_init_kaiming_batchnorm():
    bn = BatchNorm2d(6)
    bn.gamma.data[:] = 5.0
    bn.beta.data[:] = -1.0
    init_kaiming(bn, Xoshiro256StarStar(2))
    assert np.all(bn.gamma.data == 1.0)
    assert np.all(bn.beta.data == 0.0)


def test_init_kaiming_deterministic():
    a = Conv2d(4, 4, 3)
    b = Conv2d(4, 4, 3)
    init_kaiming(a, Xoshiro256StarStar(42))
    init_kaiming(b, Xoshiro256StarStar(42))
    assert np.array_equal(a.weight.data, b.weight.data)


def test_batch_norm_layer_train_then_eval():
    bn = BatchNorm2d(3)
    x = Tensor(rand((16, 3, 4, 4), 5, scale=2.0) + 0.7)
    bn(x, train=True)
    mean_est = bn.running_mean.copy()
    out = bn(x, train=False)
    # eval uses running stats only: running buffers untouched
    assert np.array_equal(bn.running_mean, mean_est)
    assert out.shape == x.shape


def test_conv_layer_forward_matches_op():
    layer = Conv2d(3, 6, 3, stride=2, pad=1)
    init_kaiming(layer, Xoshiro256StarStar(9))
    x = Tensor(rand((2, 3, 9, 9), 6))
    out = layer(x)
    ref = T.conv2d(x, layer.weight, layer.bias, stride=2, pad=1)
    assert np.array_equal(out.data, ref.data)
