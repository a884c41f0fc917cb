"""Optimizer steps: global-norm gradient clipping and Adam."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def global_norm(grads) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads))


def clip_by_global_norm(grads, max_norm: float):
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(grads)
    if norm > max_norm:
        s = max_norm / norm
        return [g * s for g in grads]
    return list(grads)


@dataclass
class AdamState:
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One bias-corrected Adam update of the parameter arrays, in place; state
    is AdamState.for_params(params), and a list of another length raises ValueError."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v, strict=True):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    return state
