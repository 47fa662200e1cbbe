"""Concrete architectures and the analytical cost model.

Three fully convolutional domain discriminators over C-class probability
maps, all 4x4 kernels at stride 2 / pad 1 (exact spatial halving) with
LeakyReLU(0.2) between layers and raw logits out of the last layer:

  * fcd             five standard convs, channels 64/128/256/512/1
  * fcd-light       same shape, every conv depthwise-separable
  * fcd-light-thin  three depthwise-separable convs, channels 64/128/1

plus a reduced two-path segmentation network: a shallow high-resolution
spatial path and a deeper low-resolution context path with channel
attention and a global-context tail, fused at 1/8 scale and classified
per pixel.

The cost model counts convolution multiply-accumulates only (2 FLOPs per
MAC; bias, normalization, and activation work excluded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from rtda import tensor as T
from rtda.nn import (
    BatchNorm2d,
    Conv2d,
    DepthwiseSeparableConv2d,
    LeakyReLU,
    Module,
    ReLU,
    Sequential,
    init_kaiming,
)
from rtda.rng import Xoshiro256StarStar
from rtda.tensor import ShapeError, Tensor

DISCRIMINATOR_VARIANTS = ("fcd", "fcd-light", "fcd-light-thin")

_VARIANT_ALIASES = {
    "fcd": "fcd",
    "fcd-light": "fcd-light",
    "fcdlight": "fcd-light",
    "fcd-light&thin": "fcd-light-thin",
    "fcd-light-thin": "fcd-light-thin",
    "fcd-lightthin": "fcd-light-thin",
    "light": "fcd-light",
    "light-thin": "fcd-light-thin",
    "light&thin": "fcd-light-thin",
}


def canonical_variant(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    if key not in _VARIANT_ALIASES:
        raise ValueError(f"unknown discriminator variant {name!r}; expected one of {DISCRIMINATOR_VARIANTS}")
    return _VARIANT_ALIASES[key]


_DISC_KERNEL = 4
_DISC_STRIDE = 2
_DISC_PAD = 1
_LEAKY_SLOPE = 0.2


def build_discriminator(variant: str, num_classes: int, seed: int = 0,
                        final_zero_init: bool = False, init: bool = True) -> Sequential:
    """Fully convolutional domain discriminator over (N, num_classes, H, W).

    Emits one raw logit channel; the sigmoid lives inside the losses.
    With final_zero_init the last layer's weights and bias start at zero,
    so the initial logits are exactly 0 everywhere. init=False skips
    weight initialization for structure-only uses (counting, cost model).
    """
    if num_classes < 2:
        raise ValueError("discriminator needs num_classes >= 2")
    variant = canonical_variant(variant)
    if variant == "fcd":
        channels = [64, 128, 256, 512, 1]
        layer_cls = Conv2d
    elif variant == "fcd-light":
        channels = [64, 128, 256, 512, 1]
        layer_cls = DepthwiseSeparableConv2d
    else:
        channels = [64, 128, 1]
        layer_cls = DepthwiseSeparableConv2d

    net = Sequential()
    c_in = num_classes
    for i, c_out in enumerate(channels):
        net.append(layer_cls(c_in, c_out, _DISC_KERNEL, stride=_DISC_STRIDE, pad=_DISC_PAD))
        if i != len(channels) - 1:
            net.append(LeakyReLU(_LEAKY_SLOPE))
        c_in = c_out

    if init:
        init_kaiming(net, Xoshiro256StarStar(seed))
    if final_zero_init:
        last = net.layers[-1]
        if isinstance(last, DepthwiseSeparableConv2d):
            last.pw_weight.data[...] = 0
            last.pw_bias.data[...] = 0
        else:
            last.weight.data[...] = 0
            last.bias.data[...] = 0
    return net


def _round_channels(base: int, multiplier: float) -> int:
    """Scale a channel count and round up to the next multiple of 4."""
    scaled = base * multiplier
    return max(4, int(math.ceil(scaled / 4.0)) * 4)


class ConvBNRelu(Module):
    def __init__(self, c_in, c_out, kernel, stride=1, pad=0):
        super().__init__()
        self.conv = Conv2d(c_in, c_out, kernel, stride=stride, pad=pad)
        self.bn = BatchNorm2d(c_out)
        self.act = ReLU()

    def forward(self, x, train=False):
        return self.act(self.bn(self.conv(x, train), train), train)


class ChannelAttention(Module):
    """Global pool -> 1x1 conv -> sigmoid gate multiplied onto the input."""

    def __init__(self, channels):
        super().__init__()
        self.gate = Conv2d(channels, channels, 1)

    def forward(self, x, train=False):
        a = T.global_average_pool(x)
        a = T.sigmoid(self.gate(a, train))
        return T.mul(x, a)


class FeatureFusion(Module):
    """Concatenate two same-scale feature maps, project, and re-weight the
    projection with a channel-attention residual."""

    def __init__(self, c_in, c_out):
        super().__init__()
        self.project = ConvBNRelu(c_in, c_out, 1)
        self.gate = Conv2d(c_out, c_out, 1)

    def forward_pair(self, a, b, train=False):
        fused = self.project(T.concat_channels([a, b]), train)
        att = T.sigmoid(self.gate(T.global_average_pool(fused), train))
        return T.add(fused, T.mul(fused, att))

    def forward(self, x, train=False):
        raise ShapeError("FeatureFusion consumes two inputs; use forward_pair")


class MiniBiSeNet(Module):
    """Reduced two-path segmentation network.

    Spatial path: three stride-2 conv blocks (high resolution, shallow).
    Context path: a stride-2 conv stem, then a stage ending at 1/16 scale
    and a stage at 1/32, each refined by channel attention, with a pooled
    global-context tail added at 1/32. Context features are brought back
    to 1/8 scale, fused with the spatial path, and classified per pixel;
    logits are bilinearly upsampled to the input resolution.
    """

    def __init__(self, num_classes: int, width_multiplier: float = 1.0):
        super().__init__()
        if num_classes < 2:
            raise ValueError("MiniBiSeNet needs num_classes >= 2")
        if width_multiplier <= 0:
            raise ValueError("width_multiplier must be positive")
        ch = lambda c: _round_channels(c, width_multiplier)
        self.num_classes = num_classes
        self.width_multiplier = width_multiplier

        sp1, sp2, sp3 = ch(16), ch(32), ch(64)
        self.spatial = Sequential(
            ConvBNRelu(3, sp1, 3, stride=2, pad=1),
            ConvBNRelu(sp1, sp2, 3, stride=2, pad=1),
            ConvBNRelu(sp2, sp3, 3, stride=2, pad=1),
        )

        stem_c = ch(16)
        mid_c = ch(32)
        c16 = ch(64)
        c32 = ch(128)
        self.ctx_stem = ConvBNRelu(3, stem_c, 3, stride=2, pad=1)
        self.ctx_stage1 = Sequential(
            ConvBNRelu(stem_c, mid_c, 3, stride=2, pad=1),
            ConvBNRelu(mid_c, c16, 3, stride=2, pad=1),
            ConvBNRelu(c16, c16, 3, stride=2, pad=1),
        )
        self.ctx_stage2 = ConvBNRelu(c16, c32, 3, stride=2, pad=1)
        self.attn16 = ChannelAttention(c16)
        self.attn32 = ChannelAttention(c32)
        self.global_tail = Conv2d(c32, c32, 1)
        self.head32 = ConvBNRelu(c32, c16, 1)
        self.head16 = ConvBNRelu(c16, sp3, 1)
        self.fuse = FeatureFusion(2 * sp3, sp3)
        self.classifier = Conv2d(sp3, num_classes, 1)

    def forward(self, x: Tensor, train: bool = False) -> Tensor:
        n, c, h, w = x.shape
        if c != 3:
            raise ShapeError(f"MiniBiSeNet expects 3 input channels, got {c}")
        if h % 32 or w % 32:
            raise ShapeError(f"input spatial size must be divisible by 32, got {h}x{w}")

        sp = self.spatial(x, train)  # 1/8

        f2 = self.ctx_stem(x, train)  # 1/2
        f16 = self.ctx_stage1(f2, train)  # 1/16
        f32 = self.ctx_stage2(f16, train)  # 1/32

        a32 = self.attn32(f32, train)
        ctx_global = T.relu(self.global_tail(T.global_average_pool(f32), train))
        a32 = T.add(a32, ctx_global)
        up32 = T.bilinear_upsample(a32, f16.shape[2], f16.shape[3])
        up32 = self.head32(up32, train)

        a16 = T.add(self.attn16(f16, train), up32)
        up16 = T.bilinear_upsample(a16, sp.shape[2], sp.shape[3])
        ctx = self.head16(up16, train)

        fused = self.fuse.forward_pair(sp, ctx, train)
        logits = self.classifier(fused, train)
        return T.bilinear_upsample(logits, h, w)


def build_mini_bisenet(num_classes: int, width_multiplier: float = 1.0, seed: int = 0,
                       init: bool = True) -> MiniBiSeNet:
    model = MiniBiSeNet(num_classes, width_multiplier)
    if init:
        init_kaiming(model, Xoshiro256StarStar(seed))
    return model


# ---------------------------------------------------------------------------
# cost model


@dataclass
class CostRow:
    name: str
    params: int
    macs: int

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass
class CostReport:
    """Per-layer parameter/MAC/FLOP rows for one architecture at one
    input resolution, with convention FLOPs = 2 * MACs."""

    architecture: str
    in_channels: int
    height: int
    width: int
    rows: list = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self) -> int:
        return sum(r.macs for r in self.rows)

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    def to_csv(self) -> str:
        lines = ["layer,params,macs,flops"]
        for r in self.rows:
            lines.append(f"{r.name},{r.params},{r.macs},{r.flops}")
        lines.append(f"total,{self.total_params},{self.total_macs},{self.total_flops}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{self.architecture} at {self.in_channels}x{self.height}x{self.width}"
        widths = [max(len(r.name) for r in self.rows + [CostRow('layer', 0, 0)]) + 2, 14, 16, 16]
        lines = [header, ""]
        lines.append(f"{'layer':<{widths[0]}}{'params':>{widths[1]}}{'macs':>{widths[2]}}{'flops':>{widths[3]}}")
        for r in self.rows:
            lines.append(f"{r.name:<{widths[0]}}{r.params:>{widths[1]},}{r.macs:>{widths[2]},}{r.flops:>{widths[3]},}")
        lines.append(
            f"{'total':<{widths[0]}}{self.total_params:>{widths[1]},}"
            f"{self.total_macs:>{widths[2]},}{self.total_flops:>{widths[3]},}"
        )
        return "\n".join(lines) + "\n"


def _conv_cost(layer: Conv2d | DepthwiseSeparableConv2d, h: int, w: int):
    """Parameters, conv MACs and output extent of one conv layer: every
    output position costs one multiply-accumulate per weight element."""
    out_h = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
    out_w = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resolution {h}x{w} cannot propagate through kernel {layer.kernel}")
    sizes = {name: p.data.size for name, p in layer.named_parameters()}
    weights = sum(size for name, size in sizes.items() if name.endswith("weight"))
    return sum(sizes.values()), out_h * out_w * weights, out_h, out_w


def count_flops(model: Sequential, height: int, width: int, name: str = "discriminator") -> CostReport:
    """Walk a sequential conv stack, propagating the spatial size by the
    exact shape rule, and tally parameters and conv MACs per layer."""
    convs = [l for l in model.layers if isinstance(l, (Conv2d, DepthwiseSeparableConv2d))]
    if not convs:
        raise ValueError("count_flops expects at least one convolution layer")
    report = CostReport(architecture=name, in_channels=convs[0].in_channels, height=height, width=width)
    h, w = height, width
    for idx, layer in enumerate(convs, start=1):
        params, macs, h, w = _conv_cost(layer, h, w)
        report.rows.append(CostRow(name=f"conv{idx} ({layer.in_channels}->{layer.out_channels})", params=params, macs=macs))
    return report


def discriminator_cost(variant: str, num_classes: int, height: int, width: int) -> CostReport:
    variant = canonical_variant(variant)
    model = build_discriminator(variant, num_classes, init=False)
    return count_flops(model, height, width, name=variant)
