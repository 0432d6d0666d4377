"""SI-SNR/uPIT objectives, Adam with clipping, LR schedule, and the epoch loop.
`TrainConfig` lives in the numpy-free `dpsep.config` and is re-exported here."""

from .loop import (
    BEST_FILENAME,
    LAST_FILENAME,
    METRICS_FILENAME,
    EpochStats,
    TrainingAbort,
    TrainResult,
    si_snri_scores,
    train_loop,
    validate_si_snri,
)
from .loss import mixture_si_snr, si_snr, upit_loss, upit_si_snri
from ..config import TrainConfig
from .optim import Adam, clip_grad_norm, lr_at

__all__ = [
    "Adam",
    "BEST_FILENAME",
    "EpochStats",
    "LAST_FILENAME",
    "METRICS_FILENAME",
    "TrainConfig",
    "TrainingAbort",
    "TrainResult",
    "clip_grad_norm",
    "lr_at",
    "mixture_si_snr",
    "si_snr",
    "si_snri_scores",
    "train_loop",
    "upit_loss",
    "upit_si_snri",
    "validate_si_snri",
]
