"""Finite-difference gradient verification for the tensor primitives.

Checks the vector-Jacobian products against central differences of a
scalar probe loss ``sum(op(inputs) * weights)`` with a fixed random
weighting, at float64. The probe weighting exercises the full Jacobian
action rather than just row sums.
"""

from __future__ import annotations

import numpy as np

from rtda import tensor as T
from rtda.rng import Xoshiro256StarStar

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4


def _probe_loss(fn, inputs, weights):
    out = fn(*inputs)
    return float((out.data * weights).sum())


def check_gradients(fn, inputs, step: float = DEFAULT_STEP, tol: float = DEFAULT_TOL, rng=None):
    """Compare analytic grads of fn(*inputs) to central finite differences.

    inputs: Tensors (float64, requires_grad on the ones to check).
    Returns the worst relative error seen; raises AssertionError past tol.
    Relative error uses a unit absolute floor: |a-n| / max(1, |a|, |n|).
    """
    rng = rng or Xoshiro256StarStar(0xC0FFEE)
    out = fn(*inputs)
    if out.data.dtype != np.float64:
        raise ValueError("gradcheck runs at float64")
    weights = rng.uniform_block(out.data.size).reshape(out.data.shape) + 0.5

    for t in inputs:
        t.zero_grad()
    loss = T.reduce_sum(T.mul(out, T.Tensor(weights)))
    T.backward(loss)

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = _probe_loss(fn, inputs, weights)
            flat[i] = orig - step
            down = _probe_loss(fn, inputs, weights)
            flat[i] = orig
            num_flat[i] = (up - down) / (2.0 * step)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        err = float((np.abs(analytic - numeric) / denom).max()) if flat.size else 0.0
        if err >= tol:
            raise AssertionError(f"gradient mismatch: relative error {err:.3e} >= {tol:.0e}")
        worst = max(worst, err)
    return worst


def rand_tensor(rng, shape, requires_grad=True, offset=0.0, scale=1.0):
    """float64 tensor with entries offset + scale * N(0,1)."""
    data = rng.normal_block(int(np.prod(shape))).reshape(shape) * scale + offset
    return T.Tensor(data, requires_grad=requires_grad, dtype=np.float64)


def _away_from_kink(rng, shape, margin=0.05):
    """Random values with |x| >= margin, so ReLU-family kinks stay clear
    of the finite-difference stencil."""
    data = rng.normal_block(int(np.prod(shape))).reshape(shape)
    small = np.abs(data) < margin
    data[small] = np.sign(data[small] + 1e-12) * (margin + np.abs(data[small]))
    return T.Tensor(data, requires_grad=True, dtype=np.float64)


def run_primitive_suite(instances_per_op: int = 20, seed: int = 2024) -> dict:
    """Gradcheck every differentiable primitive on random small tensors.

    Spatial extents stay <= 4x4 and channels <= 4 so the finite-difference
    sweeps stay cheap. Returns {op_name: worst relative error}.
    """
    rng = Xoshiro256StarStar(seed)
    report = {}

    def record(name, err):
        report[name] = max(report.get(name, 0.0), err)

    for _ in range(instances_per_op):
        n = 1 + rng.randint(2)
        c = 1 + rng.randint(4)
        h = 2 + rng.randint(3)
        w = 2 + rng.randint(3)

        a = rand_tensor(rng, (n, c, h, w))
        b = rand_tensor(rng, (n, c, h, w))
        record("add", check_gradients(T.add, [a, b], rng=rng))
        record("mul", check_gradients(T.mul, [rand_tensor(rng, (n, c, h, w)), rand_tensor(rng, (n, c, h, w))], rng=rng))

        gate = rand_tensor(rng, (n, c, 1, 1))
        record("add_broadcast", check_gradients(T.add, [rand_tensor(rng, (n, c, h, w)), gate], rng=rng))
        record(
            "mul_broadcast",
            check_gradients(T.mul, [rand_tensor(rng, (n, c, h, w)), rand_tensor(rng, (n, c, 1, 1))], rng=rng),
        )

        factor = rng.normal() * 2.0
        record("scale", check_gradients(lambda t: T.scale(t, factor), [rand_tensor(rng, (n, c, h, w))], rng=rng))
        record("sigmoid", check_gradients(T.sigmoid, [rand_tensor(rng, (n, c, h, w))], rng=rng))
        record("softplus", check_gradients(T.softplus, [rand_tensor(rng, (n, c, h, w))], rng=rng))
        record("relu", check_gradients(T.relu, [_away_from_kink(rng, (n, c, h, w))], rng=rng))
        slope = 0.05 + 0.9 * rng.random()
        record(
            "leaky_relu",
            check_gradients(lambda t: T.leaky_relu(t, slope), [_away_from_kink(rng, (n, c, h, w))], rng=rng),
        )

        record("reduce_sum", check_gradients(T.reduce_sum, [rand_tensor(rng, (n, c, h, w))], rng=rng))
        record("reduce_mean", check_gradients(T.reduce_mean, [rand_tensor(rng, (n, c, h, w))], rng=rng))
        record("global_average_pool", check_gradients(T.global_average_pool, [rand_tensor(rng, (n, c, h, w))], rng=rng))
        record("softmax_channels", check_gradients(T.softmax_channels, [rand_tensor(rng, (n, c, h, w))], rng=rng))

        record(
            "concat_channels",
            check_gradients(
                lambda p, q: T.concat_channels([p, q]),
                [rand_tensor(rng, (n, c, h, w)), rand_tensor(rng, (n, 1 + rng.randint(3), h, w))],
                rng=rng,
            ),
        )

        th, tw = h + 1 + rng.randint(4), w + 1 + rng.randint(4)
        record(
            "bilinear_upsample",
            check_gradients(
                lambda t: T.bilinear_upsample(t, th, tw),
                [rand_tensor(rng, (n, c, h, w))],
                rng=rng,
            ),
        )

        labels = np.array([rng.randint(c) for _ in range(n * h * w)], dtype=np.int64).reshape(n, h, w)
        for idx in range(labels.size):
            if rng.randint(5) == 0:
                labels.flat[idx] = T.IGNORE_INDEX
        labels.flat[0] = 0  # keep at least one scored pixel
        record(
            "masked_nll",
            check_gradients(
                lambda p: T.masked_nll(p, labels),
                [rand_tensor(rng, (n, c, h, w), offset=2.0, scale=0.3)],
                rng=rng,
            ),
        )

        nn2 = max(n, 2)  # a proper batch slice and batch stats need two samples
        s0 = rng.randint(nn2)
        s1 = s0 + 1 + rng.randint(nn2 - s0)
        record(
            "slice_batch",
            check_gradients(
                lambda t: T.slice_batch(t, s0, s1),
                [rand_tensor(rng, (nn2, c, h, w))],
                rng=rng,
            ),
        )

        pad = rng.randint(2)
        k = 1 + rng.randint(min(3, h + 2 * pad, w + 2 * pad))  # the kernel always fits
        stride = 1 + rng.randint(2)
        cout = 1 + rng.randint(3)
        record(
            "conv2d",
            check_gradients(
                lambda xx, ww, bb: T.conv2d(xx, ww, bb, stride=stride, pad=pad),
                [
                    rand_tensor(rng, (n, c, h, w)),
                    rand_tensor(rng, (cout, c, k, k), scale=0.5),
                    rand_tensor(rng, (cout,), scale=0.2),
                ],
                rng=rng,
            ),
        )
        record(
            "depthwise_conv2d",
            check_gradients(
                lambda xx, ww, bb: T.depthwise_conv2d(xx, ww, bb, stride=stride, pad=pad),
                [
                    rand_tensor(rng, (n, c, h, w)),
                    rand_tensor(rng, (c, 1, k, k), scale=0.5),
                    rand_tensor(rng, (c,), scale=0.2),
                ],
                rng=rng,
            ),
        )

        rm = np.zeros(c, dtype=np.float64)
        rv = np.ones(c, dtype=np.float64)
        record(
            "batch_norm_train",
            check_gradients(
                lambda xx, gg, bb: T.batch_norm(xx, gg, bb, rm.copy(), rv.copy(), train=True),
                [
                    rand_tensor(rng, (nn2, c, h, w)),
                    rand_tensor(rng, (c,), offset=1.0, scale=0.2),
                    rand_tensor(rng, (c,), scale=0.2),
                ],
                rng=rng,
            ),
        )
        record(
            "batch_norm_eval",
            check_gradients(
                lambda xx, gg, bb: T.batch_norm(
                    xx, gg, bb, rm + 0.3, rv + 0.5, train=False
                ),
                [
                    rand_tensor(rng, (n, c, h, w)),
                    rand_tensor(rng, (c,), offset=1.0, scale=0.2),
                    rand_tensor(rng, (c,), scale=0.2),
                ],
                rng=rng,
            ),
        )

    return report
