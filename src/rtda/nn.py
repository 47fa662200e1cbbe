"""Parameterized layers and model composition.

Modules own named parameters (trainable tensors) and named buffers
(non-trainable state such as BatchNorm running statistics). Train/eval
behavior is an explicit ``train`` argument to forward, never hidden
global state. Forward over a Sequential equals applying its layers in
order; an empty Sequential is the identity.
"""

from __future__ import annotations

import math

import numpy as np

from rtda import tensor as T
from rtda.rng import Xoshiro256StarStar
from rtda.tensor import ShapeError, Tensor


class Module:
    """Base class: children, parameters, and buffers registered by name."""

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array: np.ndarray):
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        raise NotImplementedError

    def __call__(self, x: Tensor, train: bool = False) -> Tensor:
        return self.forward(x, train=train)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = ""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def modules(self):
        yield self
        for child in self._children.values():
            yield from child.modules()

    def set_requires_grad(self, flag: bool):
        for p in self.parameters():
            p.requires_grad = flag


def num_params(module: Module) -> int:
    """Total parameter element count over the registry."""
    return sum(p.data.size for _, p in module.named_parameters())


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._children[str(i)] = layer

    def append(self, layer: Module):
        self._children[str(len(self.layers))] = layer
        self.layers.append(layer)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        for i, layer in enumerate(self.layers):
            try:
                x = layer(x, train=train)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({type(layer).__name__}): {exc}") from exc
        return x


class Conv2d(Module):
    def __init__(self, in_channels, out_channels, kernel, stride=1, pad=0):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.weight = Tensor(
            np.zeros((out_channels, in_channels, kernel, kernel), dtype=np.float32), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)


class DepthwiseSeparableConv2d(Module):
    """Depthwise stage (stride/pad apply here) followed by a 1x1 pointwise
    stage at stride 1, pad 0. Both stages carry biases."""

    def __init__(self, in_channels, out_channels, kernel, stride=1, pad=0):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.dw_weight = Tensor(np.zeros((in_channels, 1, kernel, kernel), dtype=np.float32), requires_grad=True)
        self.dw_bias = Tensor(np.zeros(in_channels, dtype=np.float32), requires_grad=True)
        self.pw_weight = Tensor(np.zeros((out_channels, in_channels, 1, 1), dtype=np.float32), requires_grad=True)
        self.pw_bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        x = T.depthwise_conv2d(x, self.dw_weight, self.dw_bias, stride=self.stride, pad=self.pad)
        return T.conv2d(x, self.pw_weight, self.pw_bias, stride=1, pad=0)


class BatchNorm2d(Module):
    """Batch normalization with T.batch_norm's momentum (0.1) and eps (1e-5)."""

    def __init__(self, channels):
        super().__init__()
        self.gamma = Tensor(np.ones(channels, dtype=np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=np.float32), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels, dtype=np.float32))
        self.register_buffer("running_var", np.ones(channels, dtype=np.float32))

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return T.batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            train=train,
        )


class LeakyReLU(Module):
    def __init__(self, slope=0.2):
        super().__init__()
        self.slope = slope

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return T.leaky_relu(x, self.slope)


class ReLU(Module):
    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        return T.relu(x)


def init_kaiming(module: Module, rng: Xoshiro256StarStar) -> None:
    """Kaiming-normal init: weights ~ N(0, sqrt(2 / fan_in)) with
    fan_in = (channels seen by one filter) * k^2, biases zero, BatchNorm
    gamma 1 / beta 0. Walks children in registration order so a fixed
    seed fixes every draw.
    """

    def fill_normal(t: Tensor, fan_in: int):
        std = math.sqrt(2.0 / fan_in)
        draws = rng.normal_block(t.data.size) * std
        t.data[...] = draws.reshape(t.data.shape).astype(t.data.dtype)

    for m in module.modules():
        if isinstance(m, Conv2d):
            fill_normal(m.weight, m.in_channels * m.kernel * m.kernel)
            m.bias.data[...] = 0
        elif isinstance(m, DepthwiseSeparableConv2d):
            fill_normal(m.dw_weight, m.kernel * m.kernel)
            m.dw_bias.data[...] = 0
            fill_normal(m.pw_weight, m.in_channels)
            m.pw_bias.data[...] = 0
        elif isinstance(m, BatchNorm2d):
            m.gamma.data[...] = 1
            m.beta.data[...] = 0
