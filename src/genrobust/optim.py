"""SGD with Nesterov momentum and decoupled weight decay.

Weight decay multiplies parameters by (1 - lr * wd) before the momentum
step, so a step with zero gradients and empty momentum shrinks every
parameter by exactly that factor regardless of the momentum coefficient.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ParamStore, Tensor

__all__ = ["NesterovSGD", "cosine_lr"]


def cosine_lr(step: int, total: int, lr0: float) -> float:
    """lr0 * (1 + cos(pi * step / total)) / 2, decayed to zero, no restarts."""
    if total < 1:
        raise ValueError("total steps must be >= 1")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    # a Python float: a numpy float64 would turn float32 parameters into float64
    return float(lr0 * (1.0 + np.cos(np.pi * step / total)) / 2.0)


class NesterovSGD:
    def __init__(self, params: ParamStore, momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = {name: np.zeros(t.shape, dtype=t.dtype) for name, t in params.items()}

    def step(self, grads: dict, lr: float) -> None:
        mu = self.momentum
        for name, t in self.params.items():
            g = grads[name]
            theta = t.data
            if self.weight_decay:
                theta = theta * (1.0 - lr * self.weight_decay)
            v = mu * self._velocity[name] + g
            self._velocity[name] = v
            direction = g + mu * v if mu else v
            self.params.assign(name, Tensor(theta - lr * direction))
