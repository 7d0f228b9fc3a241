"""Adam with bias correction plus the polynomial learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class PolySchedule:
    """lr(step) = lr0 * (1 - step / total_steps) ** power."""

    lr0: float = 1e-3
    total_steps: int = 1
    power: float = 1.0

    def lr(self, step: int) -> float:
        if step < 0 or step > self.total_steps:
            raise ValueError(f"step {step} outside [0, {self.total_steps}]")
        return self.lr0 * (1.0 - step / self.total_steps) ** self.power


class Adam:
    """Standard Adam; moments are float32 like the parameters they track."""

    def __init__(self, params: list[Parameter]):
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.params = list(params)
        self.step_count = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr: float):
        """p -= lr * (m / c1) / (sqrt(v / c2) + eps), with every product and
        quotient of the moment updates and of the step run in place in two
        scratch arrays per parameter, in the expression's order, so the
        values are the expression's (tests/oracles.py `reference_adam_step`)."""
        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        c1 = 1.0 - b1**self.step_count
        c2 = 1.0 - b2**self.step_count
        for p in self.params:
            if p.grad is None:
                continue
            g = p.grad
            m = self.m[p.name]
            v = self.v[p.name]
            num = np.multiply(1.0 - b1, g)
            den = np.multiply(g, g)
            m *= b1
            m += num
            v *= b2
            den *= 1.0 - b2
            v += den
            np.divide(m, c1, out=num)
            np.multiply(lr, num, out=num)
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            num /= den
            p.data -= num
