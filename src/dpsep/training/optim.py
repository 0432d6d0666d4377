"""Adam with global-norm gradient clipping and the stepped LR decay schedule."""

from __future__ import annotations

import numpy as np

from ..numerics import NumericsError

BETA1, BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and eps
LR_DECAY, LR_DECAY_EVERY = 0.98, 2  # lr_at's stepped decay: factor, epochs per step
CLIP_NORM = 5.0  # the global gradient norm a training step clips to


def lr_at(epoch, config):
    """Learning rate for a 0-based epoch: lr_init * LR_DECAY^(epoch // LR_DECAY_EVERY)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return config.lr_init * LR_DECAY ** (epoch // LR_DECAY_EVERY)


def clip_grad_norm(params, max_norm):
    """Rescale all gradients so their global L2 norm is at most max_norm.

    Returns (norm, scale): the global norm before clipping and the applied
    scale (1.0 when no clipping happened). Raises NumericsError, leaving every
    gradient as it was, when the norm is not finite.
    """
    total = 0.0
    grads = [p.grad for p in params if p.grad is not None]
    for g in grads:
        total += float((g.astype(np.float64) ** 2).sum())
    global_norm = float(np.sqrt(total))
    if not np.isfinite(global_norm):
        raise NumericsError(f"non-finite gradient norm ({global_norm})")
    if global_norm <= max_norm or global_norm == 0.0:
        return global_norm, 1.0
    scale = max_norm / global_norm
    for g in grads:
        g *= g.dtype.type(scale)
    return global_norm, scale


class Adam:
    """Standard bias-corrected first/second-moment optimizer, with moment
    decays `BETA1` and `BETA2` and `ADAM_EPS` added to the RMS."""

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grads(self):
        for p in self.params:
            p.zero_grad()

    def step(self, lr):
        """One update with the given learning rate; missing grads count as zero."""
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = 0.0
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * np.square(g)
            p.data -= (lr / bc1) * m / (np.sqrt(v / bc2) + ADAM_EPS)
