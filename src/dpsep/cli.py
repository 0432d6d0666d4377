"""Command-line surface: train, separate, evaluate, gradcheck.

Config files are flat `key=value` text with `#` comments; unknown keys are a
hard error. Exit codes: 0 success, 2 for an `InputError` or an `OSError`, 3
for a `NumericFault`; `main` alone maps them. The `DPSEP_RUN_DIR` environment
variable overrides the run directory.
numpy-dependent modules are imported only after the thread count is exported
to the BLAS environment, so `threads=1` gives bit-reproducible runs.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys
from dataclasses import dataclass, fields

from . import InputError, NumericFault
from .config import Geometry, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

RUN_DIR_ENV = "DPSEP_RUN_DIR"


class ConfigError(InputError):
    """Raised for unreadable, unparseable, or out-of-contract configs."""


@dataclass
class RunConfig(TrainConfig, Geometry):
    """All run settings: the training ones and the model's sizes, with their
    defaults and rules, and the data's and the run's. Defaults follow the
    published recipe where stated. It checks itself, so every RunConfig can
    run."""

    segment_seconds: float = 4.0
    manifest: str = ""
    run_dir: str = "runs/default"
    threads: int = 1

    def __post_init__(self):
        TrainConfig.__post_init__(self)
        Geometry.__post_init__(self)
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.num_sources != 2:
            raise ValueError(
                f"num_sources must be 2, as a manifest record holds two, got {self.num_sources}"
            )
        samples = self.segment_seconds * self.sample_rate
        if not (math.isfinite(samples) and self.segment_seconds > 0):
            raise ValueError(
                f"segment_seconds must be positive and finite in samples at "
                f"{self.sample_rate} Hz, got {self.segment_seconds}"
            )
        samples = int(round(samples))
        # deriving chunk_len takes at least 4 encoder frames of a segment
        least = self.samples(4) if self.chunk_len == 0 else 1
        if samples < least:
            raise ValueError(
                f"segment_seconds={self.segment_seconds} gives {samples} samples, "
                f"fewer than the {least} the model needs"
            )


def parse_config(path):
    """Read a flat key=value config file into a RunConfig."""
    types = {f.name: type(f.default) for f in fields(RunConfig)}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    values = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        context = f"{path}:{line_no}"
        key, sep, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if not sep or not key:
            raise ConfigError(f"{context}: expected key=value, got {raw.strip()!r}")
        if key not in types:
            raise ConfigError(f"{context}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{context}: duplicate config key {key!r}")
        try:
            values[key] = types[key](text)
        except ValueError:
            kind = types[key].__name__
            raise ConfigError(f"{context}: key {key} expects {kind}, got {text!r}") from None
    try:
        return RunConfig(**values)
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from None


def _export_threads(threads):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


# mallopt parameters, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Keep freed blocks in glibc's heap, so that each forward and step after
    the first reuses the pages of the last one instead of faulting in fresh
    ones. Blocks up to 32 MiB come from the heap, and the heap top is returned
    to the kernel only past 1 GiB free. Both are set: setting either one ends
    glibc's dynamic mmap threshold, and the trim threshold alone would leave
    every block above 128 KiB a fresh mmap. Without glibc this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def cmd_train(config_path):
    config = parse_config(config_path)
    _export_threads(config.threads)

    from . import data, tasnet
    from .training import train_loop

    if not config.manifest:
        raise ConfigError("config key 'manifest' is required for training")
    records = data.parse_manifest(config.manifest)
    train_set, valid_set = (
        data.make_dataset(data.split_records(records, split), config.segment_seconds,
                          config.sample_rate)
        for split in ("train", "valid")
    )
    if not train_set or not valid_set:
        raise InputError("manifest must provide non-empty train and valid splits")

    model = tasnet.build_model(
        **config.sizes(),
        nominal_samples=int(round(config.segment_seconds * config.sample_rate)),
        seed=config.seed,
    )
    run_dir = os.environ.get(RUN_DIR_ENV) or config.run_dir
    result = train_loop(model, train_set, valid_set, config, run_dir)
    print(
        f"finished {result.epochs_run} epochs ({result.steps_run} steps); "
        f"best validation SI-SNRi {result.best_val_si_snri:.3f} dB at epoch "
        f"{result.best_epoch}; run dir {result.run_dir}"
    )
    return EXIT_OK


def cmd_separate(ckpt_path, wav_path, out_dir):
    import numpy as np

    from . import data, tasnet
    from .numerics import Tensor

    model, _ = tasnet.load_model(ckpt_path)
    samples, rate = data.read_wav(wav_path)
    if rate != model.sample_rate:
        raise InputError(
            f"{wav_path} sample rate {rate} does not match checkpoint "
            f"sample rate {model.sample_rate}"
        )
    est = tasnet.separate(Tensor(samples), model).data.astype(np.float64)
    # SI-SNR training fixes no output gain, so each estimate is rescaled to the
    # mixture's peak: SI-SNR is unchanged and the PCM16 write cannot clip.
    mix_peak = float(np.abs(samples).max())
    try:
        os.makedirs(out_dir, exist_ok=True)
        for c in range(model.num_sources):
            peak = float(np.abs(est[c]).max())
            source = est[c] * (mix_peak / peak) if peak > 0 else est[c]
            out_path = os.path.join(out_dir, f"source{c + 1}.wav")
            data.write_wav(out_path, source, rate)
            print(out_path)
    except OSError as err:
        raise InputError(f"cannot write to {out_dir}: {err}") from None
    return EXIT_OK


EVAL_SEGMENT_SECONDS = 4.0


def cmd_evaluate(ckpt_path, manifest_path):
    from . import data, tasnet
    from .training import si_snri_scores

    model, _ = tasnet.load_model(ckpt_path)
    if model.num_sources != 2:
        raise InputError(f"{ckpt_path} separates {model.num_sources} sources; test records hold 2")
    records = data.split_records(data.parse_manifest(manifest_path), "test")
    examples = data.make_dataset(records, EVAL_SEGMENT_SECONDS, model.sample_rate)
    if not examples:
        raise InputError(
            f"manifest {manifest_path} has no test segments that SI-SNR can score"
        )
    scores = []
    for i, si_snri in enumerate(si_snri_scores(model, examples)):
        print(f"example {i}: si_snri={si_snri:.4f} dB")
        scores.append(si_snri)
    print(f"mean si_snri={sum(scores) / len(scores):.4f} dB over {len(scores)} examples")
    return EXIT_OK


def cmd_gradcheck():
    from .checks import run_gradcheck_suite

    results = run_gradcheck_suite()
    for name, report in results:
        print(f"{name}: {report}")
    passed = sum(report.passed for _, report in results)
    print(f"{passed}/{len(results)} gradient checks passed")
    return EXIT_OK if passed == len(results) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dpsep",
        description="Time-domain source separation with a dual-path recurrent separator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("config", help="path to key=value config file")
    p_sep = sub.add_parser("separate", help="separate a mixture WAV with a checkpoint")
    p_sep.add_argument("ckpt")
    p_sep.add_argument("wav")
    p_sep.add_argument("outdir")
    p_eval = sub.add_parser("evaluate", help="report uPIT SI-SNRi over a test manifest")
    p_eval.add_argument("ckpt")
    p_eval.add_argument("manifest")
    sub.add_parser("gradcheck", help="run finite-difference checks over all modules")

    args = parser.parse_args(argv)
    _keep_freed_memory()
    try:
        if args.command == "train":
            return cmd_train(args.config)
        if args.command == "separate":
            return cmd_separate(args.ckpt, args.wav, args.outdir)
        if args.command == "evaluate":
            return cmd_evaluate(args.ckpt, args.manifest)
        return cmd_gradcheck()
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFault as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
