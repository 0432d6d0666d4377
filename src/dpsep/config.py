"""The model's sizes and the training settings, with their defaults and rules.
numpy-free, so that the CLI can read and check a config before it exports the
BLAS thread count."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import MAX_CHUNK_LEN, MAX_SAMPLE_RATE, ShapeError


@dataclass(kw_only=True)
class Geometry:
    """The seven sizes that fix a separator, in the order a checkpoint's
    metadata holds them, with the published recipe's defaults. Each is at
    least 1, except `chunk_len`: even and at most `MAX_CHUNK_LEN`, and 0
    derives it from the sqrt(2L) rule. `sample_rate` is at most
    `MAX_SAMPLE_RATE`."""

    num_filters: int = 64  # N, encoder filters
    window: int = 2  # W, encoder window in samples
    num_sources: int = 2  # C
    num_blocks: int = 6
    hidden: int = 128  # H, LSTM units per direction
    chunk_len: int = 0  # K
    sample_rate: int = 8000

    def __post_init__(self):
        for name, value in self.sizes().items():
            if name != "chunk_len" and value < 1:
                raise ShapeError(f"{name} must be at least 1, got {value}")
        if self.chunk_len < 0 or self.chunk_len % 2 or self.chunk_len > MAX_CHUNK_LEN:
            raise ShapeError(
                f"chunk_len must be 0 (derived) or positive, even and at most "
                f"{MAX_CHUNK_LEN}, got {self.chunk_len}"
            )
        if self.sample_rate > MAX_SAMPLE_RATE:
            raise ShapeError(
                f"sample_rate must be at most {MAX_SAMPLE_RATE}, got {self.sample_rate}"
            )

    def sizes(self):
        """The seven sizes by name, in checkpoint order."""
        return {f.name: getattr(self, f.name) for f in fields(Geometry)}

    @property
    def stride(self):
        """The encoder's hop in samples: half the window, at least 1."""
        return max(self.window // 2, 1)

    def frames(self, num_samples):
        """The encoder's frame count for `num_samples` samples."""
        if num_samples < self.window:
            raise ShapeError(f"input too short: {num_samples} samples < window {self.window}")
        return (num_samples - self.window) // self.stride + 1

    def samples(self, frames):
        """The fewest samples that give `frames` encoder frames."""
        return self.window + (frames - 1) * self.stride


@dataclass
class TrainConfig:
    """The training settings a run may vary. The optimizer's moments, the LR
    decay and the clip norm are the published recipe's constants, in
    `dpsep.training.optim`."""

    epochs: int = 100
    lr_init: float = 1e-3
    patience: int = 10
    batch_size: int = 2
    seed: int = 0

    def __post_init__(self):
        rules = (
            (("epochs", "patience", "batch_size"), lambda v: v >= 1, ">= 1"),
            (("lr_init",), lambda v: math.isfinite(v) and v > 0, "finite and positive"),
            (("seed",), lambda v: v >= 0, ">= 0"),
        )
        for names, holds, rule in rules:
            for name in names:
                value = getattr(self, name)
                if not holds(value):
                    raise ValueError(f"{name} must be {rule}, got {value}")
