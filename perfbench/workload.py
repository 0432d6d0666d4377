"""Run one benchmark workload in this process and print one JSON line.

`run.py` starts this script in a fresh process per measurement, one process
at a time, with single-threaded BLAS. The script makes its inputs from the
seed (manifest and config, or a PCM16 mixture and a checkpoint) and drives
the user entry point `dpsep.cli.main` in-process, so the measured path is the
one `dpsep train` and `dpsep separate` run.

Modes:
  setup  stop at the first timed operation and report the set-up time;
  run    one CLI call, then check its outputs (against a float64 run too
         with --reference-check);
  trace  two untraced calls, one call with spans, and for training one call
         under tracemalloc; then check outputs.

The correctness checks run after the timed region, with every hook removed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SAMPLE_RATE = 8000

# The recipe model is N=64, H=128, B=6 with two sources.
RECIPE = {"num_filters": 64, "hidden": 128, "num_blocks": 6, "num_sources": 2}

WORKLOADS = {
    # The paper's W=2 window: the step is bound by the tape and the per-step
    # recurrence. Two optimizer steps per call, because the first step's graph
    # is still alive during the second forward and sets peak RSS.
    "train-w2": {
        "kind": "train",
        "model": dict(RECIPE, window=2),
        "segment_seconds": 0.125,
        "train": 4,
        "valid": 1,
    },
    # Tiny arrays: per-op dispatch, validation and checkpoint writes weigh most.
    "train-toy": {
        "kind": "train",
        "model": {"num_filters": 16, "hidden": 32, "num_blocks": 2, "num_sources": 2,
                  "window": 16},
        "segment_seconds": 0.5,
        "train": 40,
        "valid": 8,
    },
    # Forward only, no tape: K=128 from the 4 s training rule, and 8 s of
    # audio give the inter pass S=251 steps.
    "separate-long": {
        "kind": "separate",
        "model": dict(RECIPE, window=8),
        "nominal_seconds": 4.0,
        "audio_seconds": 8.0,
    },
}

# The same workloads at a geometry that runs in about a second, for the
# smoke test.
TINY_MODEL = {"num_filters": 8, "hidden": 8, "num_blocks": 1, "num_sources": 2}
TINY = {
    "train-w2": {"model": dict(TINY_MODEL, window=2),
                 "segment_seconds": 0.0625, "train": 4, "valid": 1},
    "train-toy": {"model": dict(TINY_MODEL, window=16),
                  "segment_seconds": 0.25, "train": 4, "valid": 2},
    "separate-long": {"model": dict(TINY_MODEL, window=8),
                      "nominal_seconds": 0.5, "audio_seconds": 1.0},
}

# Spans reported as per-layer metrics; see hooks.traced_functions.
LAYERS = (
    "rnn.bilstm_intra", "rnn.bilstm_inter", "tape.backward",
    "dualpath.intra", "dualpath.inter", "dualpath.gln", "dualpath.segment",
    "dualpath.overlap_add",
    "tasnet.encode", "tasnet.mask_head", "tasnet.apply_masks", "tasnet.decode",
    "loss.upit", "optim.clip", "optim.adam", "loop.validate", "checkpoint.save",
    "checkpoint.load", "data.read_wav", "data.write_wav", "data.make_dataset",
)

# |float32 first-step loss - float64 replay| must stay within this, in dB.
LOSS_TOLERANCE_DB = 1e-3
# SI-SNR of each float32 separated source against the float64 run, in dB.
MIN_FLOAT64_SI_SNR_DB = 80.0


def workload_spec(name, tiny):
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
    return spec


def import_program():
    """Import dpsep from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import dpsep
    from dpsep import cli, data, dualpath, numerics, tasnet, training
    from dpsep.numerics.tensor import GradTape
    from dpsep.training import loop, optim

    if Path(dpsep.__file__).resolve().parent != SRC / "dpsep":
        raise ImportError(f"dpsep was imported from {dpsep.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        cli=cli, data=data, dualpath=dualpath, numerics=numerics, tasnet=tasnet,
        training=training, loop=loop, optim=optim, GradTape=GradTape,
    )


def write_train_inputs(dp, spec, seed, work):
    rng = random.Random(seed)
    lines = []
    for split in ("train", "valid"):
        for _ in range(spec[split]):
            kind1, kind2 = rng.sample(dp.data.SOURCE_KINDS, 2)
            lines.append(
                f"{split}\tsynth:{kind1}:{rng.randrange(2**31)}"
                f"\tsynth:{kind2}:{rng.randrange(2**31)}\t{rng.uniform(-5.0, 5.0):.3f}"
            )
    manifest = work / "manifest.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    config = dict(
        spec["model"],
        epochs=1,
        segment_seconds=spec["segment_seconds"],
        batch_size=2,
        seed=seed,
        sample_rate=SAMPLE_RATE,
        manifest=manifest,
        run_dir=work / "run",
        threads=1,
    )
    config_path = work / "train.cfg"
    config_path.write_text("".join(f"{key}={value}\n" for key, value in config.items()))
    return ["train", str(config_path)]


def write_separate_inputs(dp, spec, seed, work):
    rng = random.Random(seed)
    kind1, kind2 = rng.sample(dp.data.SOURCE_KINDS, 2)
    seconds = spec["audio_seconds"]
    example = dp.data.mix_at_snr(
        dp.data.synth_source(kind1, seconds, SAMPLE_RATE, rng.randrange(2**31)),
        dp.data.synth_source(kind2, seconds, SAMPLE_RATE, rng.randrange(2**31)),
        rng.uniform(-5.0, 5.0),
        sample_rate=SAMPLE_RATE,
    )
    mixture = example.mixture * (0.5 / float(np.max(np.abs(example.mixture))))
    wav = work / "mixture.wav"
    dp.data.write_wav(wav, mixture, SAMPLE_RATE)
    model = dp.tasnet.build_model(
        **spec["model"],
        nominal_samples=int(round(spec["nominal_seconds"] * SAMPLE_RATE)),
        sample_rate=SAMPLE_RATE,
        seed=seed,
    )
    ckpt = work / "model.ckpt"
    dp.tasnet.save_model(model, ckpt)
    return ["separate", str(ckpt), str(wav), str(work / "out")]


def call_cli(dp, argv):
    """One `dpsep` command; returns (exit code, wall seconds)."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = dp.cli.main(argv)
    return code, time.perf_counter() - started


def median(values):
    return statistics.median(values) if values else 0.0


class Checks:
    def __init__(self):
        self.results = []

    def add(self, name, ok, detail=""):
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self):
        return sum(not r["ok"] for r in self.results)


def si_snr_db(est, ref):
    est = est - est.mean()
    ref = ref - ref.mean()
    target = ref * (np.dot(est, ref) / np.dot(ref, ref))
    noise = est - target
    return 10.0 * math.log10(np.dot(target, target) / max(np.dot(noise, noise), 1e-300))


def as_float64(model):
    for tensor in model.parameter_tensors():
        tensor.data = tensor.data.astype(np.float64)
    return model


def check_train_call(probe, calls_before, losses_before, checks):
    """Per call: finite losses, one per optimizer step."""
    call = probe.train_calls[calls_before] if len(probe.train_calls) > calls_before else None
    losses = probe.losses[losses_before:]
    ok = call is not None and len(losses) == call["steps"] >= 1 and all(
        math.isfinite(v) for v in losses)
    checks.add("losses_finite", ok, f"losses={losses}")


def check_best_checkpoint(dp, work, checks):
    best = work / "run" / dp.training.BEST_FILENAME
    try:
        model, _ = dp.tasnet.load_model(str(best))
        ok = all(np.all(np.isfinite(t.data)) for t in model.parameter_tensors())
        checks.add("best_ckpt_loads", ok, str(best))
    except (OSError, dp.numerics.CheckpointError) as err:
        checks.add("best_ckpt_loads", False, f"{best}: {err}")


def check_first_step_float64(dp, probe, checks):
    """Replay the first optimizer step's loss in float64 from the same initial
    weights and the same examples."""
    if probe.initial_model is None or not probe.first_batch or not probe.losses:
        checks.add("first_step_loss_float64", False, "no training step was recorded")
        return
    model64 = as_float64(probe.initial_model)
    losses = []
    for mixture in probe.first_batch:
        example = next(
            (ex for ex in probe.train_set if np.array_equal(ex.mixture, mixture)), None)
        if example is None:
            checks.add("first_step_loss_float64", False, "first-step input not in train set")
            return
        est = dp.tasnet.separate(dp.numerics.Tensor(example.mixture, dtype=np.float64), model64)
        n = example.valid_len
        refs = dp.numerics.Tensor(example.sources[:, :n], dtype=np.float64)
        loss, _ = dp.training.upit_loss(dp.numerics.Tensor(est.data[:, :n], dtype=np.float64),
                                        refs)
        losses.append(float(loss.data))
    replay = sum(losses) / len(losses)
    gap = abs(probe.losses[0] - replay)
    checks.add("first_step_loss_float64", gap <= LOSS_TOLERANCE_DB,
               f"float32 {probe.losses[0]:.6f} float64 {replay:.6f} gap {gap:.2e} dB "
               f"(tolerance {LOSS_TOLERANCE_DB})")


def check_separate_call(dp, probe, outputs_before, spec, argv, checks):
    """Per call: one estimate per source, the input's length, finite, on disk."""
    outputs = probe.outputs[outputs_before:]
    if len(outputs) != 1:
        checks.add("separate_outputs", False, f"{len(outputs)} separate calls")
        return
    mixture, est = outputs[0]
    length = mixture.shape[-1]
    ok = est.shape == (spec["model"]["num_sources"], length) and bool(np.all(np.isfinite(est)))
    detail = f"estimate {est.shape} for {length} samples"
    for c in range(est.shape[0]):
        path = Path(argv[3]) / f"source{c + 1}.wav"
        try:
            samples, _ = dp.data.read_wav(path)
            ok = ok and samples.shape == (1, length)
        except (OSError, dp.data.WavFormatError) as err:
            ok, detail = False, f"{path}: {err}"
    checks.add("separate_outputs", ok, detail)


def check_separate_float64(dp, probe, argv, checks):
    if not probe.outputs:
        checks.add("separate_float64", False, "no separate call was recorded")
        return
    model64 = as_float64(dp.tasnet.load_model(argv[1])[0])
    mixture, est = probe.outputs[0]
    est64 = dp.tasnet.separate(dp.numerics.Tensor(mixture, dtype=np.float64), model64).data
    worst = min(si_snr_db(est[c].astype(np.float64), est64[c]) for c in range(est.shape[0]))
    checks.add("separate_float64", worst >= MIN_FLOAT64_SI_SNR_DB,
               f"worst SI-SNR vs float64 {worst:.2f} dB (minimum {MIN_FLOAT64_SI_SNR_DB})")


def run_calls(dp, probe, spec, argv, checks, count, hooks=contextlib.nullcontext):
    """Run the CLI command `count` times and check each call's outputs.
    `hooks()` is entered around each call and left before its checks."""
    walls = []
    failed = 0
    for _ in range(count):
        gc.collect()
        marks = len(probe.train_calls), len(probe.losses), len(probe.outputs)
        with hooks():
            code, wall = call_cli(dp, argv)
        walls.append(wall)
        probe.rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if code != 0:
            failed += 1
        elif spec["kind"] == "train":
            check_train_call(probe, marks[0], marks[1], checks)
        else:
            check_separate_call(dp, probe, marks[2], spec, argv, checks)
    return walls, failed


def layer_metrics(tracer, memory, nodes, units, traced_wall, untraced_wall):
    """Self seconds and calls per unit (optimizer step or separate call)."""
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = tracer.self_seconds.get(name, 0.0) / units
        metrics[f"{name}_calls"] = tracer.calls.get(name, 0) / units
    metrics["tape.nodes_per_step"] = float(median(nodes))
    metrics["tape.retained_mb"] = max(memory.live_bytes, default=0) / 2**20
    metrics["tape.backward_peak_mb"] = max(memory.peak_bytes, default=0) / 2**20
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference-check", action="store_true",
                        help="also compare the outputs with a float64 run")
    args = parser.parse_args(argv)

    dp = import_program()
    from hooks import MemoryTracer, Probe, SetupReached, SpanTracer

    spec = workload_spec(args.workload, args.tiny)
    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    write_inputs = write_train_inputs if spec["kind"] == "train" else write_separate_inputs
    cli_argv = write_inputs(dp, spec, args.seed, work)

    probe = Probe(dp, stop_at_first_op=args.mode == "setup")
    probe.keep_outputs = spec["kind"] == "separate"
    checks = Checks()
    result = {"kind": spec["kind"], "numpy": np.__version__, "blas": blas_info()}
    with probe.hooks():
        if args.mode == "setup":
            try:
                call_cli(dp, cli_argv)
            except SetupReached:
                pass
            result["setup_s"] = probe.first_op_at - args.spawned_at
            print(json.dumps(result))
            return 0
        if args.mode == "run":
            walls, failed = run_calls(dp, probe, spec, cli_argv, checks, count=1)
            metrics = {}
        else:
            # The first call warms the allocator and caches; the second is
            # the untraced baseline for the tracing overhead.
            untraced, failed = run_calls(dp, probe, spec, cli_argv, checks, count=2)
            tracer = SpanTracer(dp)
            steps_before = len(probe.step_seconds)
            traced, traced_failed = run_calls(dp, probe, spec, cli_argv, checks, count=1,
                                              hooks=tracer.hooks)
            steps_after = len(probe.step_seconds)
            walls, failed = untraced + traced, failed + traced_failed
            memory = MemoryTracer(dp)
            if spec["kind"] == "train":
                memory_walls, memory_failed = run_calls(dp, probe, spec, cli_argv, checks,
                                                        count=1, hooks=memory.hooks)
                walls, failed = walls + memory_walls, failed + memory_failed
            units = steps_after - steps_before if spec["kind"] == "train" else len(traced)
            metrics = layer_metrics(tracer, memory, probe.nodes[steps_before:steps_after],
                                    max(units, 1), traced[0], untraced[-1])
            result["spans"] = tracer.spans

    if spec["kind"] == "train":
        check_best_checkpoint(dp, work, checks)
    if args.mode == "trace" or args.reference_check:
        if spec["kind"] == "train":
            check_first_step_float64(dp, probe, checks)
        else:
            check_separate_float64(dp, probe, cli_argv, checks)

    result.update(
        setup_s=probe.first_op_at - args.spawned_at,
        metrics=metrics,
        attempted=len(walls) + len(checks.results),
        failed=failed + checks.failed,
        checks=checks.results,
        samples={
            "call_s": walls,
            "step_s": probe.step_seconds,
            "separate_s": probe.separate_seconds,
            "separate_rtf": probe.separate_rtf,
            "train_calls": probe.train_calls,
            "rss_mb": probe.rss_mb,
        },
    )
    print(json.dumps(result))
    return 0


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
