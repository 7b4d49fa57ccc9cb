"""Adam optimizer and cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

__all__ = ["AdamState", "adam_step", "cosine_lr"]

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One in-place Adam update with bias correction (``BETA1``, ``BETA2``, ``EPS``).

    Weight decay is coupled L2: ``decay * param`` is added to the raw
    gradient before the moment updates. Parameters with a missing or
    None gradient are treated as zero-gradient (with zero decay they
    stay untouched).
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if weight_decay:
            g = g + np.float32(weight_decay) * p.data
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[name] = m
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * np.square(g)
        mhat = m / np.float32(bc1)
        vhat = v / np.float32(bc2)
        p.data -= np.float32(lr) * mhat / (np.sqrt(vhat) + np.float32(EPS))


def cosine_lr(step: int, total_steps: int, lr0: float) -> float:
    """Cosine annealing: lr0 at step 0, 0 at step == total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if total_steps == 0:
        return lr0
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * step / total_steps))
