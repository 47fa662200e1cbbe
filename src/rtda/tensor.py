"""Reverse-mode tensor engine.

A Tensor wraps a float32/float64 numpy array. Every primitive that can
contribute gradients records its inputs and a vector-Jacobian closure on
the output tensor; ``backward`` replays those closures in exact reverse
creation order, which is a valid reverse topological order because inputs
are always created before outputs.

Reference semantics are single-threaded and deterministic: the same op
sequence on the same inputs yields bitwise-identical results. Convolutions
use an im2col view plus one tensordot (a single BLAS contraction) rather
than explicit loops. Broadcasting is deliberately narrow: elementwise ops
accept equal shapes, or an (N,C,H,W) first operand with an (N,C,1,1)
second one.

Every primitive checks its output for NaN/Inf and raises NonFiniteError;
a non-finite value is an error condition here, never a silent state.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NonFiniteError(ArithmeticError):
    """An op produced NaN or Inf."""


_next_node_id = 0


def _new_node_id() -> int:
    global _next_node_id
    _next_node_id += 1
    return _next_node_id


class Tensor:
    """n-d float array with optional gradient and tape bookkeeping."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_node_id")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._vjp = None
        self._node_id = _new_node_id()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents, vjp, op: str) -> Tensor:
    """Wrap an op output, guard finiteness, and record the tape node."""
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced a non-finite value")
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires-grad leaf's .grad.

    Gradients add across calls; use zero_grad between steps. Intermediate
    gradients live in a scratch table for the duration of the walk, so
    repeated backward calls stay exact.
    """
    if loss.data.size != 1:
        raise ShapeError("backward requires a scalar loss")
    if not loss.requires_grad:
        return

    # Reverse creation order over the reachable requires-grad subgraph.
    seen = {id(loss)}
    stack = [loss]
    nodes = []
    while stack:
        t = stack.pop()
        nodes.append(t)
        for p in t._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    nodes.sort(key=lambda t: t._node_id, reverse=True)

    table = {id(loss): np.ones_like(loss.data)}
    for t in nodes:
        g = table.pop(id(t), None)
        if g is None:
            continue
        if t._vjp is None:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
            continue
        for parent, pg in zip(t._parents, t._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in table:
                table[key] = table[key] + pg
            else:
                table[key] = pg


def _check_dtypes(op: str, *tensors: Tensor):
    dt = tensors[0].data.dtype
    for t in tensors[1:]:
        if t.data.dtype != dt:
            raise ShapeError(f"{op}: mixed dtypes {dt} and {t.data.dtype}")
    return dt


def _broadcast_kind(a_shape, b_shape) -> str:
    if a_shape == b_shape:
        return "equal"
    if (
        len(a_shape) == 4
        and len(b_shape) == 4
        and b_shape[2:] == (1, 1)
        and a_shape[:2] == b_shape[:2]
    ):
        return "b_spatial"
    raise ShapeError(f"incompatible shapes {a_shape} and {b_shape}")


def _reduce_spatial(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=(2, 3), keepdims=True)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("add", a, b)
    kind = _broadcast_kind(a.shape, b.shape)

    def vjp(g):
        return g, (_reduce_spatial(g) if kind == "b_spatial" else g)

    return _result(a.data + b.data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_dtypes("mul", a, b)
    kind = _broadcast_kind(a.shape, b.shape)
    a_data, b_data = a.data, b.data

    def vjp(g):
        gb = g * a_data
        return g * b_data, (_reduce_spatial(gb) if kind == "b_spatial" else gb)

    return _result(a.data * b.data, (a, b), vjp, "mul")


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)
    return _result(a.data * np.asarray(f, dtype=a.data.dtype), (a,), lambda g: (g * np.asarray(f, dtype=g.dtype),), "scale")


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x), split by sign so no exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _result(out, (a,), vjp, "sigmoid")


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x) in the overflow-free max(x,0) + log1p(e^-|x|) form."""
    x = a.data
    out = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    def vjp(g):
        return (g * _stable_sigmoid(x),)

    return _result(out, (a,), vjp, "softplus")


def relu(a: Tensor) -> Tensor:
    x = a.data
    out = np.maximum(x, 0)
    return _result(out, (a,), lambda g: (g * (x > 0),), "relu")


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must lie in (0,1), got {slope}")
    x = a.data
    out = np.maximum(x, x * x.dtype.type(slope))  # equals x for x >= 0, slope*x below

    def vjp(g):
        return (g * np.where(x >= 0, x.dtype.type(1.0), x.dtype.type(slope)),)

    return _result(out, (a,), vjp, "leaky_relu")


# ---------------------------------------------------------------------------
# reductions


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.shape

    def vjp(g):
        return (np.broadcast_to(g, shape),)

    return _result(a.data.sum(), (a,), vjp, "reduce_sum")


def reduce_mean(a: Tensor) -> Tensor:
    shape = a.shape
    n = a.data.size

    def vjp(g):
        return (np.broadcast_to(g / n, shape),)

    return _result(a.data.mean(), (a,), vjp, "reduce_mean")


def global_average_pool(a: Tensor) -> Tensor:
    if a.data.ndim != 4:
        raise ShapeError("global_average_pool expects an (N,C,H,W) tensor")
    n_, c_, h, w = a.shape
    out = a.data.mean(axis=(2, 3), keepdims=True)

    def vjp(g):
        return (np.broadcast_to(g / (h * w), a.shape),)

    return _result(out, (a,), vjp, "global_average_pool")


# ---------------------------------------------------------------------------
# shape ops


def concat_channels(tensors) -> Tensor:
    tensors = list(tensors)
    _check_dtypes("concat_channels", *tensors)
    for t in tensors:
        if t.data.ndim != 4:
            raise ShapeError("concat_channels expects (N,C,H,W) tensors")
    splits = np.cumsum([t.shape[1] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=1))

    return _result(np.concatenate([t.data for t in tensors], axis=1), tensors, vjp, "concat_channels")


def slice_batch(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start:stop along the batch axis; the gradient scatters back
    into a zero tensor of the input's shape."""
    if a.data.ndim < 1:
        raise ShapeError("slice_batch needs a batched tensor")
    n = a.shape[0]
    if not 0 <= start < stop <= n:
        raise ShapeError(f"slice_batch range [{start}, {stop}) invalid for batch {n}")

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[start:stop] = g
        return (ga,)

    return _result(a.data[start:stop].copy(), (a,), vjp, "slice_batch")


# ---------------------------------------------------------------------------
# convolutions


def _conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


def _check_conv_args(x: Tensor, k_h: int, k_w: int, stride: int, pad: int):
    if x.data.ndim != 4:
        raise ShapeError("conv input must be (N,C,H,W)")
    if k_h < 1 or k_w < 1:
        raise ShapeError("kernel extents must be >= 1")
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    if pad < 0:
        raise ShapeError("pad must be >= 0")
    h, w = x.shape[2], x.shape[3]
    if h + 2 * pad < k_h or w + 2 * pad < k_w:
        raise ShapeError(f"kernel {k_h}x{k_w} does not fit input {h}x{w} with pad {pad}")


def _padded(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return np.ascontiguousarray(x)
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def _patch_view(xp: np.ndarray, k_h: int, k_w: int, stride: int, out_h: int, out_w: int):
    sn, sc, sh, sw = xp.strides
    shape = (xp.shape[0], xp.shape[1], out_h, out_w, k_h, k_w)
    return as_strided(xp, shape=shape, strides=(sn, sc, sh * stride, sw * stride, sh, sw))


def _scatter_patches(grad_cols, pad, stride, in_h, in_w, k_h, k_w):
    """col2im: fold per-patch gradients (N,H',W',C,kh,kw) back onto the
    input, accumulating channels-last and transposing once at the end."""
    n, out_h, out_w, c = grad_cols.shape[:4]
    gp = np.zeros((n, in_h + 2 * pad, in_w + 2 * pad, c), dtype=grad_cols.dtype)
    for di in range(k_h):
        for dj in range(k_w):
            gp[:, di : di + stride * out_h : stride, dj : dj + stride * out_w : stride, :] += grad_cols[
                :, :, :, :, di, dj
            ]
    if pad:
        gp = gp[:, pad : pad + in_h, pad : pad + in_w, :]
    return np.ascontiguousarray(gp.transpose(0, 3, 1, 2))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of (N,Cin,H,W) with (Cout,Cin,kh,kw) plus bias.

    Output spatial extent follows floor((H + 2*pad - k) / stride) + 1.
    """
    _check_dtypes("conv2d", x, weight, bias)
    if weight.data.ndim != 4:
        raise ShapeError("conv2d weight must be (Cout,Cin,kh,kw)")
    c_out, c_in_w, k_h, k_w = weight.shape
    _check_conv_args(x, k_h, k_w, stride, pad)
    n, c_in, h, w = x.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv2d: input has {c_in} channels, weight expects {c_in_w}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")

    w_data = weight.data
    if k_h == 1 and k_w == 1 and stride == 1 and pad == 0:
        w2 = w_data[:, :, 0, 0]
        xf = np.ascontiguousarray(x.data).reshape(n, c_in, h * w)
        out = np.matmul(w2, xf).reshape(n, c_out, h, w)
        out += bias.data.reshape(1, c_out, 1, 1)

        def vjp_pointwise(g):
            gw = gb = gx = None
            gf = np.ascontiguousarray(g).reshape(n, c_out, h * w)
            if weight.requires_grad:
                gw = np.matmul(gf, xf.transpose(0, 2, 1)).sum(axis=0)[:, :, None, None]
            if bias.requires_grad:
                gb = g.sum(axis=(0, 2, 3))
            if x.requires_grad:
                gx = np.matmul(w2.T, gf).reshape(n, c_in, h, w)
            return gx, gw, gb

        return _result(out, (x, weight, bias), vjp_pointwise, "conv2d")

    out_h = _conv_out_size(h, k_h, stride, pad)
    out_w = _conv_out_size(w, k_w, stride, pad)
    xp = _padded(x.data, pad)
    view = _patch_view(xp, k_h, k_w, stride, out_h, out_w)
    # (N,Cin,H',W',kh,kw) x (Cout,Cin,kh,kw) -> (N,H',W',Cout)
    out = np.tensordot(view, weight.data, axes=([1, 4, 5], [1, 2, 3]))
    out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    out += bias.data.reshape(1, c_out, 1, 1)

    def vjp(g):
        gw = gb = gx = None
        if weight.requires_grad:
            # (N,Cout,H',W') x (N,Cin,H',W',kh,kw) over N,H',W'
            gw = np.tensordot(g, view, axes=([0, 2, 3], [0, 2, 3]))
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        if x.requires_grad:
            cols = np.tensordot(g, w_data, axes=([1], [0]))  # (N,H',W',Cin,kh,kw)
            gx = _scatter_patches(cols, pad, stride, h, w, k_h, k_w)
        return gx, gw, gb

    return _result(out, (x, weight, bias), vjp, "conv2d")


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Per-channel cross-correlation: weight (C,1,kh,kw), channel c of the
    output depends only on channel c of the input."""
    _check_dtypes("depthwise_conv2d", x, weight, bias)
    if weight.data.ndim != 4 or weight.shape[1] != 1:
        raise ShapeError("depthwise weight must be (C,1,kh,kw)")
    c_w, _, k_h, k_w = weight.shape
    _check_conv_args(x, k_h, k_w, stride, pad)
    n, c_in, h, w = x.shape
    if c_in != c_w:
        raise ShapeError(f"depthwise_conv2d: input has {c_in} channels, weight expects {c_w}")
    if bias.shape != (c_in,):
        raise ShapeError(f"depthwise_conv2d: bias shape {bias.shape} != ({c_in},)")

    out_h = _conv_out_size(h, k_h, stride, pad)
    out_w = _conv_out_size(w, k_w, stride, pad)
    xp = _padded(x.data, pad)
    kern = weight.data[:, 0]
    # tap (di,dj) of every patch, and that tap's per-channel coefficient
    coefs = np.ascontiguousarray(kern.reshape(c_in, -1).T).reshape(k_h * k_w, 1, c_in, 1, 1)
    hp, wp = h + 2 * pad, w + 2 * pad
    s = stride
    # Split the padded input into s*s contiguous stride-phase blocks so every
    # tap becomes a dense slice of one block; at stride 1 the block is xp.
    xs = [[np.ascontiguousarray(xp[:, :, p::s, q::s]) for q in range(s)] for p in range(s)]

    def tap(di, dj):
        a, b = di // s, dj // s
        return xs[di % s][dj % s][:, :, a : a + out_h, b : b + out_w]

    out = np.zeros((n, c_in, out_h, out_w), dtype=x.dtype)
    for di in range(k_h):
        for dj in range(k_w):
            out += tap(di, dj) * coefs[di * k_w + dj]
    out += bias.data.reshape(1, c_in, 1, 1)

    def vjp(g):
        gw = gb = gx = None
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for di in range(k_h):
                for dj in range(k_w):
                    gw[:, 0, di, dj] = np.einsum("nchw,nchw->c", g, tap(di, dj))
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        if x.requires_grad:
            # accumulate per stride-phase block in tap order, then interleave
            # straight into the unpadded gradient
            gs = [
                [
                    np.zeros((n, c_in, (hp - p + s - 1) // s, (wp - q + s - 1) // s), dtype=g.dtype)
                    for q in range(s)
                ]
                for p in range(s)
            ]
            for di in range(k_h):
                for dj in range(k_w):
                    a, b = di // s, dj // s
                    gs[di % s][dj % s][:, :, a : a + out_h, b : b + out_w] += g * coefs[di * k_w + dj]
            gx = np.empty((n, c_in, h, w), dtype=g.dtype)
            for p in range(s):
                for q in range(s):
                    i0, j0 = (p - pad) % s, (q - pad) % s
                    gx[:, :, i0::s, j0::s] = gs[p][q][
                        :,
                        :,
                        (pad + i0) // s : (pad + i0) // s + (h - i0 + s - 1) // s,
                        (pad + j0) // s : (pad + j0) // s + (w - j0 + s - 1) // s,
                    ]
        return gx, gw, gb

    return _result(out, (x, weight, bias), vjp, "depthwise_conv2d")


# ---------------------------------------------------------------------------
# softmax / resampling


def softmax_channels(x: Tensor) -> Tensor:
    """Per-pixel softmax over the channel axis, computed with max-subtraction."""
    if x.data.ndim != 4:
        raise ShapeError("softmax_channels expects an (N,C,H,W) tensor")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (x,), vjp, "softmax_channels")


_NLL_CLAMP = 1e-12
IGNORE_INDEX = 255


def masked_nll(probs: Tensor, labels: np.ndarray) -> Tensor:
    """-log(probs at the true class), averaged over pixels whose label is
    not IGNORE_INDEX. Fused gather+log so unselected channels never touch
    log(0); probabilities below _NLL_CLAMP are clamped (zero gradient there).
    """
    if probs.data.ndim != 4:
        raise ShapeError("masked_nll expects (N,C,H,W) probabilities")
    labels = np.asarray(labels)
    if labels.ndim == 4 and labels.shape[1] == 1:
        labels = labels[:, 0]
    n, c, h, w = probs.shape
    if labels.shape != (n, h, w):
        raise ShapeError(f"labels shape {labels.shape} does not match probabilities {(n, h, w)}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("labels must be integers")
    mask = labels != IGNORE_INDEX
    denom = int(mask.sum())
    if denom == 0:
        raise ValueError("masked_nll: every pixel carries the ignore index")
    scored = labels[mask]
    if scored.min() < 0 or scored.max() >= c:
        raise ShapeError(f"labels must lie in [0, {c}) or equal {IGNORE_INDEX}")

    idx = np.where(mask, labels, 0)[:, None, :, :]
    gathered = np.take_along_axis(probs.data, idx, axis=1)[:, 0]
    clamped = np.maximum(gathered, _NLL_CLAMP)
    loss = -(np.log(clamped)[mask].sum()) / denom

    def vjp(g):
        gp = np.zeros_like(gathered)
        live = mask & (gathered >= _NLL_CLAMP)
        gp[live] = -g / (clamped[live] * denom)
        out = np.zeros_like(probs.data)
        np.put_along_axis(out, idx, gp[:, None, :, :], axis=1)
        return (out,)

    return _result(np.asarray(loss, dtype=probs.dtype), (probs,), vjp, "masked_nll")


def _interp_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Bilinear weights (align_corners=False) as an (n_out, n_in) matrix."""
    m = np.zeros((n_out, n_in), dtype=dtype)
    scl = n_in / n_out
    for i in range(n_out):
        src = (i + 0.5) * scl - 0.5
        if src < 0.0:
            src = 0.0
        i0 = min(int(math.floor(src)), n_in - 1)
        i1 = min(i0 + 1, n_in - 1)
        frac = src - i0
        m[i, i0] += 1.0 - frac
        m[i, i1] += frac
    return m


def bilinear_upsample(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable bilinear resize to (out_h, out_w), align_corners=False."""
    if x.data.ndim != 4:
        raise ShapeError("bilinear_upsample expects an (N,C,H,W) tensor")
    if out_h <= 0 or out_w <= 0:
        raise ShapeError("bilinear_upsample target extents must be positive")
    n, c, h, w = x.shape
    if out_h < h or out_w < w:
        raise ShapeError("bilinear_upsample only enlarges")
    mh = _interp_matrix(h, out_h, x.data.dtype)
    mw = _interp_matrix(w, out_w, x.data.dtype)
    # separable resize as two batched matmuls: mh @ x @ mw^T
    out = np.matmul(np.matmul(mh, x.data), mw.T)

    def vjp(g):
        return (np.matmul(np.matmul(mh.T, g), mw),)

    return _result(out, (x,), vjp, "bilinear_upsample")


# ---------------------------------------------------------------------------
# batch normalization (fused, both modes)

_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
) -> Tensor:
    """Channelwise batch normalization over (N,H,W).

    Train mode normalizes with the current batch's biased statistics and
    updates the running buffers in place with momentum _BN_MOMENTUM; eval
    mode is a pure affine map using the running buffers.
    """
    _check_dtypes("batch_norm", x, gamma, beta)
    if x.data.ndim != 4:
        raise ShapeError("batch_norm expects an (N,C,H,W) tensor")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch_norm: gamma/beta must be per-channel vectors")
    count = n * h * w
    dtype = x.data.dtype

    if train:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= dtype.type(1.0 - _BN_MOMENTUM)
        running_mean += dtype.type(_BN_MOMENTUM) * mean
        running_var *= dtype.type(1.0 - _BN_MOMENTUM)
        running_var += dtype.type(_BN_MOMENTUM) * var
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var + dtype.type(_BN_EPS))
    xhat = (x.data - mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)

    def vjp(g):
        ggamma = (g * xhat).sum(axis=(0, 2, 3)) if gamma.requires_grad else None
        gbeta = g.sum(axis=(0, 2, 3)) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            gs = g * gamma.data.reshape(1, c, 1, 1)
            if train:
                sum_gs = gs.sum(axis=(0, 2, 3), keepdims=True)
                sum_gs_xhat = (gs * xhat).sum(axis=(0, 2, 3), keepdims=True)
                gx = (inv_std.reshape(1, c, 1, 1) / count) * (
                    count * gs - sum_gs - xhat * sum_gs_xhat
                )
            else:
                gx = gs * inv_std.reshape(1, c, 1, 1)
        return gx, ggamma, gbeta

    return _result(out, (x, gamma, beta), vjp, "batch_norm")
