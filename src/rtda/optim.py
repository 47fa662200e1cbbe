"""Parameter-update rules and the polynomial learning-rate schedule.

SGD carries classic momentum with weight decay added to the gradient;
Adam keeps bias-corrected first/second moments. Their hyperparameters
and the schedule's power are the fixed AdaptSegNet values below, the one
setting of every run. Both read the gradient accumulated in each
parameter's .grad and mutate parameter data in place. The current
learning rate is a plain attribute so a schedule can be applied from
outside between steps. Each optimizer names its own buffers in
state_tensors(), as views a checkpoint load fills in place.
"""

from __future__ import annotations

import numpy as np

from rtda.tensor import ShapeError, Tensor

# Adam updates parameters in flat slices of this many elements, so its
# work arrays stay small and each slice's operands stay in cache.
_SLICE = 1 << 16

SGD_MOMENTUM = 0.9
SGD_WEIGHT_DECAY = 5e-4
ADAM_BETAS = (0.9, 0.99)
ADAM_EPS = 1e-8
POLY_POWER = 0.9


def poly_lr(base_lr: float, iteration: int, max_iter: int, power: float) -> float:
    """base_lr * (1 - iteration/max_iter) ** power, the poly decay."""
    if not 0 <= iteration <= max_iter:
        raise ValueError(f"iteration {iteration} outside [0, {max_iter}]")
    if not 0 < power <= 1:
        raise ValueError("power must lie in (0, 1]")
    return base_lr * (1.0 - iteration / max_iter) ** power


class _Optimizer:
    def __init__(self, named_params, lr: float):
        if lr < 0:
            raise ValueError("learning rate must be nonnegative")
        self.params = [(name, p) for name, p in named_params]
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.lr = lr

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def _grad(self, name: str, p: Tensor) -> np.ndarray:
        if p.grad is None:
            return np.zeros_like(p.data)
        if p.grad.shape != p.data.shape:
            raise ShapeError(f"gradient shape {p.grad.shape} mismatches parameter {name} {p.data.shape}")
        return p.grad


class SGD(_Optimizer):
    def __init__(self, named_params, lr: float):
        super().__init__(named_params, lr)
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self) -> None:
        for name, p in self.params:
            g = self._grad(name, p) + SGD_WEIGHT_DECAY * p.data
            v = self.velocity[name]
            v *= SGD_MOMENTUM
            v += g
            p.data -= (self.lr * v).astype(p.data.dtype, copy=False)

    def state_tensors(self) -> dict:
        return {f"velocity.{name}": v for name, v in self.velocity.items()}


class Adam(_Optimizer):
    def __init__(self, named_params, lr: float):
        super().__init__(named_params, lr)
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self.step_count = 0
        if not all(p.data.flags.c_contiguous for _, p in self.params):
            raise ValueError("Adam updates parameters through flat views; arrays must be C-contiguous")
        # two float32 work arrays of one slice each, shared by every update
        size = min(_SLICE, max(p.data.size for _, p in self.params))
        self._work = (np.empty(size, np.float32), np.empty(size, np.float32))

    def step(self) -> None:
        """The textbook update m/bc1 * lr / (sqrt(v/bc2) + eps), applied to
        flat slices of each parameter in two work arrays. Every element sees
        the same float32 operations in the same order as the allocating
        expression, so the result is bitwise the same, while the temporary
        memory stays at two slices whatever the parameter sizes."""
        b1, b2 = ADAM_BETAS
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        work_a, work_b = self._work
        for name, p in self.params:
            flat = [arr.reshape(-1) for arr in (p.data, self._grad(name, p), self.m[name], self.v[name])]
            for lo in range(0, p.data.size, _SLICE):
                x, g, m, v = (arr[lo:lo + _SLICE] for arr in flat)
                a, b = work_a[:x.size], work_b[:x.size]
                m *= b1
                m += np.multiply(1.0 - b1, g, out=b)
                v *= b2
                v += np.multiply(np.multiply(1.0 - b2, g, out=b), g, out=b)
                m_hat = np.divide(m, bc1, out=a)
                denom = np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
                x -= np.divide(np.multiply(self.lr, m_hat, out=a), denom, out=a)

    def state_tensors(self) -> dict:
        out = {}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out
