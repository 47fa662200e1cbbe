import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtda.optim import SGD, Adam, poly_lr
from rtda.tensor import ShapeError, Tensor


def param(values, seed=None):
    if seed is not None:
        values = np.random.default_rng(seed).standard_normal(values).astype(np.float32)
    else:
        values = np.asarray(values, dtype=np.float32)
    return Tensor(values, requires_grad=True)


# ---------------------------------------------------------------------------
# poly schedule


def test_poly_lr_endpoints():
    assert poly_lr(2.5e-4, 0, 30_000, 0.9) == 2.5e-4
    assert poly_lr(2.5e-4, 30_000, 30_000, 0.9) == 0.0


def test_poly_lr_midpoint_value():
    got = poly_lr(2.5e-4, 15_000, 30_000, 0.9)
    assert abs(got - 1.33972e-4) < 1e-9


def test_poly_lr_strictly_decreasing():
    values = [poly_lr(1e-2, i, 100, 0.9) for i in range(101)]
    assert all(a > b for a, b in zip(values, values[1:]))


@given(st.integers(1, 10_000))
@settings(max_examples=30, deadline=None)
def test_poly_lr_bounds(max_iter):
    for frac in (0, max_iter // 2, max_iter):
        v = poly_lr(0.1, frac, max_iter, 0.9)
        assert 0.0 <= v <= 0.1


def test_poly_lr_rejects_out_of_range():
    with pytest.raises(ValueError):
        poly_lr(0.1, -1, 100, 0.9)
    with pytest.raises(ValueError):
        poly_lr(0.1, 101, 100, 0.9)


# ---------------------------------------------------------------------------
# SGD


def test_sgd_plain_step():
    p = param([1.0])
    p.grad = np.array([1.0], dtype=np.float32)
    opt = SGD([("p", p)], lr=0.1, momentum=0.0, weight_decay=0.0)
    opt.step()
    assert p.data[0] == pytest.approx(0.9, rel=1e-6)


def test_sgd_weight_decay_only():
    p = param([1.0])
    p.grad = np.zeros(1, dtype=np.float32)
    opt = SGD([("p", p)], lr=0.1, momentum=0.0, weight_decay=5e-4)
    opt.step()
    assert p.data[0] == pytest.approx(1 - 0.1 * 5e-4, rel=1e-7)


def test_sgd_momentum_accumulates():
    p = param([0.0])
    opt = SGD([("p", p)], lr=1.0, momentum=0.9, weight_decay=0.0)
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step()  # v = 1, theta = -1
    assert p.data[0] == pytest.approx(-1.0)
    p.grad = np.array([1.0], dtype=np.float32)
    opt.step()  # v = 1.9, theta = -2.9
    assert p.data[0] == pytest.approx(-2.9, rel=1e-6)


def test_sgd_lr_zero_is_bitwise_noop():
    p = param((3, 4), seed=0)
    before = p.data.copy()
    p.grad = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    opt = SGD([("p", p)], lr=0.0)
    opt.step()
    assert np.array_equal(p.data, before)


def test_sgd_missing_grad_treated_as_zero():
    p = param([2.0])
    opt = SGD([("p", p)], lr=0.5, momentum=0.0, weight_decay=0.0)
    opt.step()
    assert p.data[0] == 2.0


def test_sgd_shape_mismatch_raises():
    p = param([1.0, 2.0])
    p.grad = np.zeros(3, dtype=np.float32)
    opt = SGD([("p", p)], lr=0.1)
    with pytest.raises(ShapeError):
        opt.step()


def test_sgd_state_round_trip():
    p = param((2, 2), seed=3)
    opt = SGD([("p", p)], lr=0.1)
    p.grad = np.ones((2, 2), dtype=np.float32)
    opt.step()
    state = opt.state_tensors()
    assert set(state) == {"velocity.p"}

    q = param((2, 2), seed=3)
    opt2 = SGD([("p", q)], lr=0.1)
    opt2.load_state_tensors({k: v.copy() for k, v in state.items()})
    assert np.array_equal(opt2.state_tensors()["velocity.p"], state["velocity.p"])


def test_duplicate_param_names_rejected():
    a, b = param([1.0]), param([2.0])
    with pytest.raises(ValueError):
        SGD([("p", a), ("p", b)], lr=0.1)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_lr_sized():
    p = param([0.0])
    p.grad = np.array([1.0], dtype=np.float32)
    opt = Adam([("p", p)], lr=1e-5)
    opt.step()
    # bias correction makes the first step exactly -lr for a unit gradient
    assert p.data[0] == pytest.approx(-1e-5, rel=1e-5)


def test_adam_constant_gradient_converges_to_unit_steps():
    p = param([0.0])
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(5):
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
    assert p.data[0] == pytest.approx(-0.5, rel=1e-3)


def test_adam_lr_zero_is_bitwise_noop():
    p = param((4,), seed=5)
    before = p.data.copy()
    p.grad = np.ones(4, dtype=np.float32)
    opt = Adam([("p", p)], lr=0.0)
    opt.step()
    assert np.array_equal(p.data, before)


def test_adam_state_round_trip_preserves_step_count():
    p = param((3,), seed=7)
    opt = Adam([("p", p)], lr=1e-3)
    for _ in range(3):
        p.grad = np.ones(3, dtype=np.float32)
        opt.step()
    assert opt.step_count == 3
    state = opt.state_tensors()
    assert set(state) == {"m.p", "v.p"}

    q = param((3,), seed=7)
    opt2 = Adam([("p", q)], lr=1e-3)
    opt2.load_state_tensors({k: v.copy() for k, v in state.items()})
    opt2.step_count = opt.step_count
    q.data[:] = p.data
    p.grad = np.full(3, 0.5, dtype=np.float32)
    q.grad = np.full(3, 0.5, dtype=np.float32)
    opt.step()
    opt2.step()
    assert np.array_equal(p.data, q.data)


def test_adam_betas_match_stated_defaults():
    opt = Adam([("p", param([1.0]))], lr=1e-5)
    assert opt.betas == (0.9, 0.99)
    assert opt.eps == 1e-8


def test_zero_grad_clears_all():
    p = param((2,), seed=8)
    p.grad = np.ones(2, dtype=np.float32)
    opt = SGD([("p", p)], lr=0.1)
    opt.zero_grad()
    assert p.grad is None


def reference_adam_step(opt):
    """The allocating Adam update, kept as the bitwise reference for the
    in-place one: same float32 operations in the same order."""
    b1, b2 = opt.betas
    opt.step_count += 1
    t = opt.step_count
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in opt.params:
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        if opt.weight_decay:
            g = g + opt.weight_decay * p.data
        m = opt.m[name]
        v = opt.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= (opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)).astype(p.data.dtype, copy=False)
    opt.iteration += 1


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_adam_step_bitwise_equals_reference(weight_decay):
    """Over five steps with changing gradients and learning rate, on
    parameters of several shapes, one spanning several update slices and
    one never getting a gradient."""

    def make():
        named = [("w", param((8, 3, 4, 4), seed=1)), ("b", param((8,), seed=2)),
                 ("idle", param((5, 2), seed=3)), ("s", param((), seed=4)),
                 ("big", param((3, 70001), seed=5))]
        return named, Adam(named, lr=2e-3, weight_decay=weight_decay)

    (got_named, got), (ref_named, ref) = make(), make()
    rng = np.random.default_rng(9)
    for step in range(5):
        grads = {name: (rng.standard_normal(p.shape) * 10.0 ** (step - 2)).astype(np.float32)
                 for name, p in got_named if name != "idle"}
        for named, opt in ((got_named, got), (ref_named, ref)):
            for name, p in named:
                p.grad = grads[name].copy() if name in grads else None
            opt.lr = 2e-3 * (1 - step / 5)
        got.step()
        reference_adam_step(ref)
        for (name, p), (_, q) in zip(got_named, ref_named):
            assert p.data.tobytes() == q.data.tobytes(), (step, name)
            assert got.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
            assert got.v[name].tobytes() == ref.v[name].tobytes(), (step, name)
    assert got.step_count == ref.step_count == 5
    assert got.iteration == ref.iteration == 5


def test_adam_rejects_non_contiguous_parameter():
    p = Tensor(np.zeros((4, 3), dtype=np.float32).T, requires_grad=True)
    with pytest.raises(ValueError, match="contiguous"):
        Adam([("p", p)], lr=1e-3)
