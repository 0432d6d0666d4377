"""Training settings and their rules. numpy-free, so that the CLI can read and
check a config before it exports the BLAS thread count."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class TrainConfig:
    epochs: int = 100
    lr_init: float = 1e-3
    lr_decay: float = 0.98
    lr_decay_every: int = 2
    clip_norm: float = 5.0
    patience: int = 10
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        rules = (
            (("epochs", "lr_decay_every", "patience", "batch_size"), lambda v: v >= 1, ">= 1"),
            (("lr_init", "lr_decay", "clip_norm", "adam_eps"),
             lambda v: math.isfinite(v) and v > 0, "finite and positive"),
            (("beta1", "beta2"), lambda v: 0 < v < 1, "in (0, 1)"),
            (("seed",), lambda v: v >= 0, ">= 0"),
        )
        for names, holds, rule in rules:
            for name in names:
                value = getattr(self, name)
                if not holds(value):
                    raise ValueError(f"{name} must be {rule}, got {value}")
