"""Brute-force reference implementations that tests compare the package
against, kept apart from the formulas they check."""

from rtda.nn import Conv2d, DepthwiseSeparableConv2d, Sequential


def tally_conv_multiplies(model: Sequential, height: int, width: int) -> int:
    """Independent MAC oracle: enumerate every output position of the
    convolution loop nest and add the multiplies its inner loop performs.
    """
    total = 0
    h, w = height, width
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            out_h = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
            out_w = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
            inner = layer.in_channels * layer.kernel * layer.kernel
            for _c in range(layer.out_channels):
                for _i in range(out_h):
                    for _j in range(out_w):
                        total += inner
            h, w = out_h, out_w
        elif isinstance(layer, DepthwiseSeparableConv2d):
            out_h = (h + 2 * layer.pad - layer.kernel) // layer.stride + 1
            out_w = (w + 2 * layer.pad - layer.kernel) // layer.stride + 1
            dw_inner = layer.kernel * layer.kernel
            for _c in range(layer.in_channels):
                for _i in range(out_h):
                    for _j in range(out_w):
                        total += dw_inner
            for _c in range(layer.out_channels):
                for _i in range(out_h):
                    for _j in range(out_w):
                        total += layer.in_channels
            h, w = out_h, out_w
    return total
