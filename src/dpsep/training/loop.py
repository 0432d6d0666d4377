"""Epoch loop: seeded shuffling, batched uPIT updates, validation-driven
checkpointing with early stopping, and a tab-separated metrics log."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .. import NumericFault
from .. import numerics as nt
from .. import tasnet
from ..numerics import GradTape, NumericsError, Tensor
from .loss import upit_loss, upit_si_snri
from .optim import Adam, clip_grad_norm, lr_at

METRICS_FILENAME = "metrics.tsv"
BEST_FILENAME = "best.ckpt"
LAST_FILENAME = "last.ckpt"


class TrainingAbort(NumericFault):
    """A numeric fault during training; carries (epoch, batch, op context).
    `batch` is None when validation faulted, and the detail names the
    validation example."""

    def __init__(self, epoch, batch, detail):
        where = "" if batch is None else f", batch {batch}"
        super().__init__(f"training aborted at epoch {epoch}{where}: {detail}")
        self.epoch = epoch
        self.batch = batch
        self.detail = detail


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_si_snri: float
    seconds: float


@dataclass
class TrainResult:
    best_epoch: int
    best_val_si_snri: float
    epochs_run: int
    steps_run: int
    run_dir: str
    history: list = field(default_factory=list)


def _example_loss(model, example):
    mixture = Tensor(example.mixture)
    est = tasnet.separate(mixture, model)
    refs = Tensor(example.sources)
    if example.valid_len < est.shape[1]:
        est = nt.slice_axis(est, 1, 0, example.valid_len)
        refs = nt.slice_axis(refs, 1, 0, example.valid_len)
    loss, result = upit_loss(est, refs)
    return loss, result


def si_snri_scores(model, examples):
    """The uPIT SI-SNRi of each example in turn, scored by `upit_si_snri` in
    float64 over its `valid_len` samples, without gradient tracking. A
    NumericsError names the example that raised it."""
    for i, ex in enumerate(examples):
        n = ex.valid_len
        try:
            est = tasnet.separate(Tensor(ex.mixture), model)
            si_snri, _ = upit_si_snri(est.data[:, :n], ex.sources[:, :n], ex.mixture[:, :n])
        except NumericsError as err:
            raise NumericsError(f"example {i}: {err}") from None
        yield si_snri


def validate_si_snri(model, examples):
    """Mean uPIT SI-SNRi over a dataset, by `si_snri_scores`."""
    return float(np.mean(list(si_snri_scores(model, examples))))


def train_loop(model, train_set, valid_set, config, run_dir):
    """Train `model` on MixtureExamples per the configured recipe.

    Per epoch: seeded shuffle, then per batch zero grads -> forward -> mean
    uPIT loss -> backward -> clip -> Adam. Keeps the checkpoint with the best
    validation SI-SNRi; stops early once `config.patience` consecutive epochs
    bring no improvement. Appends one metrics line per epoch to
    `metrics.tsv`: epoch, LR, train loss and validation SI-SNRi, so the file
    is the same on every run with the same seed. Wall time per epoch goes to
    `EpochStats.seconds` only. A non-finite op output or gradient norm
    aborts the run with a TrainingAbort that names the op, or the norm.
    """
    if not train_set or not valid_set:
        raise ValueError("train_loop: train and validation sets must be non-empty")
    os.makedirs(run_dir, exist_ok=True)
    metrics_path = os.path.join(run_dir, METRICS_FILENAME)
    params = model.parameter_tensors()
    optimizer = Adam(params, beta1=config.beta1, beta2=config.beta2, eps=config.adam_eps)

    best_epoch = 0
    best_val = -np.inf
    since_best = 0
    steps = 0
    history = []
    with open(metrics_path, "w") as log:
        for epoch in range(1, config.epochs + 1):
            started = time.perf_counter()
            lr = lr_at(epoch - 1, config)
            rng = np.random.default_rng((config.seed, epoch))
            order = rng.permutation(len(train_set))
            batch_losses = []
            for batch_idx in range(0, len(order), config.batch_size):
                batch = [train_set[i] for i in order[batch_idx : batch_idx + config.batch_size]]
                optimizer.zero_grads()
                try:
                    with GradTape() as tape:
                        losses = [_example_loss(model, ex)[0] for ex in batch]
                        total = losses[0]
                        for term in losses[1:]:
                            total = nt.add(total, term)
                        batch_loss = nt.mul(total, 1.0 / len(losses))
                    tape.backward(batch_loss)
                    clip_grad_norm(params, config.clip_norm)
                except NumericsError as err:
                    raise TrainingAbort(epoch, batch_idx // config.batch_size, str(err))
                optimizer.step(lr)
                steps += 1
                batch_losses.append(float(batch_loss.data))

            try:
                val_si_snri = validate_si_snri(model, valid_set)
            except NumericsError as err:
                raise TrainingAbort(epoch, None, f"validation {err}")
            tasnet.save_model(model, os.path.join(run_dir, LAST_FILENAME))
            if val_si_snri > best_val:
                best_val = val_si_snri
                best_epoch = epoch
                since_best = 0
                tasnet.save_model(model, os.path.join(run_dir, BEST_FILENAME))
            else:
                since_best += 1

            stats = EpochStats(
                epoch, lr, float(np.mean(batch_losses)), val_si_snri,
                time.perf_counter() - started,
            )
            history.append(stats)
            log.write(
                f"{stats.epoch}\t{stats.lr:.6e}\t{stats.train_loss:.6f}"
                f"\t{stats.val_si_snri:.6f}\n"
            )
            log.flush()
            if since_best >= config.patience:
                break

    return TrainResult(
        best_epoch=best_epoch,
        best_val_si_snri=float(best_val),
        epochs_run=len(history),
        steps_run=steps,
        run_dir=run_dir,
        history=history,
    )
