"""Train-loop behavior: early-stopping arithmetic, determinism, NaN aborts,
checkpoint writes."""

import dataclasses
import errno
import os

import numpy as np
import pytest

from dpsep import data, tasnet
from dpsep.training import (
    BEST_FILENAME,
    LAST_FILENAME,
    METRICS_FILENAME,
    TrainConfig,
    TrainingAbort,
    train_loop,
    validate_si_snri,
)

MANIFEST = (
    "train\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n"
    "train\tsynth:modulated-noise:3\tsynth:harmonic:4\t2.0\n"
    "valid\tsynth:chirp:5\tsynth:modulated-noise:6\t-2.0\n"
)


@pytest.fixture
def toy_sets(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(MANIFEST)
    records = data.parse_manifest(path)
    train = data.make_dataset(data.split_records(records, "train"), 0.1, 8000)
    valid = data.make_dataset(data.split_records(records, "valid"), 0.1, 8000)
    return train, valid


def _tiny_model(seed=0):
    return tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4,
        chunk_len=10, sample_rate=8000, seed=seed,
    )


def test_smoke_run_writes_checkpoints_and_log(toy_sets, tmp_path):
    train, valid = toy_sets
    config = TrainConfig(epochs=2, batch_size=2, seed=1)
    run_dir = tmp_path / "run"
    result = train_loop(_tiny_model(), train, valid, config, str(run_dir))
    assert result.epochs_run == 2
    assert result.steps_run == 2
    assert (run_dir / BEST_FILENAME).exists()
    assert (run_dir / LAST_FILENAME).exists()
    lines = (run_dir / METRICS_FILENAME).read_text().splitlines()
    assert len(lines) == 2
    fields = lines[0].split("\t")
    assert len(fields) == 4  # epoch, lr, train-loss, val-SI-SNRi
    assert fields[0] == "1"
    assert float(fields[1]) == pytest.approx(1e-3)
    assert all(stats.seconds > 0 for stats in result.history)  # real wall time


def test_early_stopping_counts_eleven_epochs(toy_sets, tmp_path, monkeypatch):
    train, valid = toy_sets
    # force monotonically worsening validation: best at epoch 1, stop after 11
    seen = {"n": 0}

    def fake_validate(model, examples):
        seen["n"] += 1
        return -float(seen["n"])

    import dpsep.training.loop as loop_mod

    monkeypatch.setattr(loop_mod, "validate_si_snri", fake_validate)
    config = TrainConfig(epochs=100, batch_size=2, patience=10)
    result = train_loop(_tiny_model(), train, valid, config, str(tmp_path / "run"))
    assert seen["n"] == 11  # exactly 11 validation epochs
    assert result.epochs_run == 11
    assert result.best_epoch == 1


def test_fixed_seed_reproduces_metrics_log_byte_identically(toy_sets, tmp_path):
    # the metrics log and both checkpoints, from two calls in one process
    train, valid = toy_sets
    runs = []
    for i in range(2):
        run_dir = tmp_path / f"run{i}"
        config = TrainConfig(epochs=3, batch_size=1, seed=7)
        train_loop(_tiny_model(seed=5), train, valid, config, str(run_dir))
        runs.append([
            (run_dir / name).read_bytes()
            for name in (METRICS_FILENAME, BEST_FILENAME, LAST_FILENAME)
        ])
    assert runs[0] == runs[1]


def _improving(monkeypatch):
    # every epoch's validation beats the last, so every epoch writes best.ckpt
    import dpsep.training.loop as loop_mod

    scores = iter(range(1000))
    monkeypatch.setattr(loop_mod, "validate_si_snri", lambda model, examples: next(scores))


def test_each_epoch_writes_the_model_once(toy_sets, tmp_path, monkeypatch):
    # last.ckpt is written and best.ckpt copied from it, byte for byte
    train, valid = toy_sets
    _improving(monkeypatch)
    calls = []
    save_model = tasnet.save_model

    def counted(*args):
        calls.append(args)
        return save_model(*args)

    monkeypatch.setattr(tasnet, "save_model", counted)
    run_dir = tmp_path / "run"
    train_loop(_tiny_model(), train, valid, TrainConfig(epochs=2, batch_size=2), str(run_dir))
    assert len(calls) == 2
    assert (run_dir / BEST_FILENAME).read_bytes() == (run_dir / LAST_FILENAME).read_bytes()


class _FullDisk:
    """A file whose first write stores half its bytes and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, blob):
        self.fh.write(blob[: len(blob) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", [LAST_FILENAME, BEST_FILENAME])
def test_a_failed_checkpoint_write_keeps_the_previous_file(
    failing, toy_sets, tmp_path, monkeypatch
):
    # epoch 2's write of `failing` runs out of disk half way: the error
    # surfaces, that file and best.ckpt keep epoch 1's bytes and still load,
    # and no temp file is left behind
    from dpsep.numerics import checkpoint

    train, valid = toy_sets
    config = TrainConfig(epochs=2, batch_size=2, seed=3)
    _improving(monkeypatch)
    train_loop(_tiny_model(), train, valid, dataclasses.replace(config, epochs=1),
               str(tmp_path / "one"))
    epoch1 = (tmp_path / "one" / BEST_FILENAME).read_bytes()

    opened = []

    def open_(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(path) == f"{failing}.tmp":
            opened.append(path)
            if len(opened) == 2:
                return _FullDisk(fh)
        return fh

    monkeypatch.setattr(checkpoint, "open", open_, raising=False)
    _improving(monkeypatch)
    run_dir = tmp_path / "two"
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        train_loop(_tiny_model(), train, valid, config, str(run_dir))
    assert len(opened) == 2
    for name in {failing, BEST_FILENAME}:
        assert (run_dir / name).read_bytes() == epoch1
        tasnet.load_model(run_dir / name)
    assert sorted(os.listdir(run_dir)) == sorted(
        [METRICS_FILENAME, BEST_FILENAME, LAST_FILENAME]
    )


def test_nan_abort_carries_epoch_and_batch(toy_sets, tmp_path):
    train, valid = toy_sets
    model = _tiny_model()
    model.params["mask_head.weight"].data[:] = 1e30  # forces overflow in the first forward
    config = TrainConfig(epochs=1, batch_size=2)
    with pytest.raises(TrainingAbort) as exc:
        train_loop(model, train, valid, config, str(tmp_path / "run"))
    assert exc.value.epoch == 1
    assert exc.value.batch == 0


def test_non_finite_gradient_aborts_before_the_update(toy_sets, tmp_path, monkeypatch):
    # the loss is finite but one gradient entry is inf: the clip must abort
    # the batch before Adam writes NaN into the weights
    from dpsep.numerics import GradTape

    train, valid = toy_sets
    model = _tiny_model()
    before = [p.data.copy() for p in model.parameter_tensors()]
    backward = GradTape.backward

    def inf_backward(tape, loss):
        backward(tape, loss)
        model.params["mask_head.weight"].grad.flat[0] = np.inf

    monkeypatch.setattr(GradTape, "backward", inf_backward)
    config = TrainConfig(epochs=1, batch_size=1)
    with pytest.raises(TrainingAbort) as exc:
        train_loop(model, train, valid, config, str(tmp_path / "run"))
    assert (exc.value.epoch, exc.value.batch) == (1, 0)
    assert "non-finite gradient norm" in exc.value.detail
    for p, saved in zip(model.parameter_tensors(), before):
        assert p.data.tobytes() == saved.tobytes()


def test_float64_model_trains_an_epoch(toy_sets, tmp_path):
    # the float32 examples run in the model's dtype, mixture and references
    train, valid = toy_sets
    model = tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4,
        chunk_len=10, sample_rate=8000, seed=0, dtype=np.float64,
    )
    config = TrainConfig(epochs=1, batch_size=2)
    result = train_loop(model, train, valid, config, str(tmp_path / "run"))
    assert result.epochs_run == 1 and np.isfinite(result.best_val_si_snri)
    assert all(t.data.dtype == np.float64 for t in model.parameter_tensors())


def test_undefined_validation_si_snr_aborts(toy_sets, tmp_path):
    # a valid example whose second source is zero has no SI-SNR to score
    train, valid = toy_sets
    good = valid[0]
    sources = good.sources.copy()
    sources[1] = 0.0
    silent = data.MixtureExample(
        mixture=sources[:1] + sources[1:], sources=sources, sample_rate=8000,
        valid_len=good.valid_len,
    )
    config = TrainConfig(epochs=1, batch_size=2)
    with pytest.raises(TrainingAbort) as exc:
        train_loop(_tiny_model(), train, [good, silent], config, str(tmp_path / "run"))
    assert (exc.value.epoch, exc.value.batch) == (1, None)
    assert "validation example 1" in str(exc.value)
    assert "zero energy" in exc.value.detail


def test_empty_sets_rejected(toy_sets, tmp_path):
    train, valid = toy_sets
    config = TrainConfig(epochs=1)
    with pytest.raises(ValueError):
        train_loop(_tiny_model(), [], valid, config, str(tmp_path / "run"))
    with pytest.raises(ValueError):
        train_loop(_tiny_model(), train, [], config, str(tmp_path / "run"))


def test_loss_non_increasing_over_first_50_steps(toy_sets):
    # full-batch objective at lr 1e-3: allow 5 of 50 steps to backslide
    from dpsep.numerics import GradTape
    from dpsep.training import Adam, clip_grad_norm
    from dpsep.training.loop import _batch_mean, _example_loss

    train, _ = toy_sets
    model = _tiny_model(seed=2)
    params = model.parameter_tensors()
    opt = Adam(params)
    losses = []
    for _ in range(51):
        opt.zero_grads()
        with GradTape() as tape:
            total = _batch_mean([_example_loss(model, ex) for ex in train])
        losses.append(float(total.data))
        tape.backward(total)
        clip_grad_norm(params, 5.0)
        opt.step(1e-3)
    decreases = sum(1 for i in range(1, 51) if losses[i] <= losses[i - 1])
    assert decreases >= 45


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_batch_mean_has_the_bits_of_an_add_chain_and_a_mul(count, dtype):
    # the value and the per-loss gradients of summing the losses in order
    # and scaling the sum by 1/count
    from dpsep.numerics import GradTape, Tensor
    from dpsep.training.loop import _batch_mean
    from reference import add, mul

    def composed(losses):
        total = losses[0]
        for loss in losses[1:]:
            total = add(total, loss)
        return mul(total, 1.0 / len(losses))

    values = np.random.default_rng(count).standard_normal(count) * 10
    results = []
    for mean in (_batch_mean, composed):
        losses = [Tensor(np.asarray(v), dtype=dtype, requires_grad=True) for v in values]
        with GradTape() as tape:
            out = mean(losses)
        tape.backward(out)
        results.append((out.data.tobytes(), [loss.grad.tobytes() for loss in losses]))
    assert results[0] == results[1]


def test_step_records_one_op_per_stage(toy_sets, tmp_path, monkeypatch):
    # a batch of a full and a zero-padded segment: each example's stages and
    # loss, then the batch mean, and no generic glue op such as a slice
    from dpsep.numerics import GradTape
    from dpsep.training.loop import _example_loss

    train, _ = toy_sets
    full = train[0]
    n = full.valid_len - 37
    padded = data.MixtureExample(
        mixture=full.mixture.copy(), sources=full.sources.copy(), sample_rate=8000, valid_len=n
    )
    padded.mixture[:, n:] = 0.0
    padded.sources[:, n:] = 0.0
    model = _tiny_model()
    with GradTape() as tape:
        _example_loss(model, full)
    per_example = len(tape)
    steps = []
    backward = GradTape.backward

    def record(tape, loss):
        steps.append([name for name, _, _ in tape._nodes])
        return backward(tape, loss)

    monkeypatch.setattr(GradTape, "backward", record)
    train_loop(model, [full, padded], [full], TrainConfig(epochs=1, batch_size=2),
               str(tmp_path / "run"))
    (names,) = steps
    assert len(names) == 2 * per_example + 1
    assert names[-1] == "batch_mean"
    assert set(names) == {
        "encode", "segment", "bilstm", "global_layer_norm", "mask_head", "apply_masks",
        "decode", "upit_loss", "batch_mean",
    }


def test_validate_si_snri_zero_for_mixture_copies(toy_sets, monkeypatch):
    # estimates equal to mixture copies give SI-SNRi == 0 by definition
    from dpsep.numerics import Tensor

    train, _ = toy_sets

    def copies(mixture, model):
        return Tensor(np.repeat(mixture.data, 2, axis=0))

    monkeypatch.setattr(tasnet, "separate", copies)
    assert validate_si_snri(None, train) == pytest.approx(0.0, abs=1e-6)
