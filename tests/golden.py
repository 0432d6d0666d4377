"""Golden digests: the sha256 of what training, separation and gradient
checking write, by case.

Five groups of cases, each hashed in a fixed order:
- `train`: a seeded toy `dpsep train` (N16 W16 H32, two blocks, 0.5 s
  segments, batch 2, two epochs, a WAV record whose last segment is
  zero-padded): `best.ckpt`, `last.ckpt` and `metrics.tsv`;
- `grads`: one training step's batch loss and every parameter gradient, in
  float32 and float64, at W = 2, 4, 8 and 16, for full and cut (zero-padded)
  segments and batches of 1, 2 and 3;
- `separate`: `tasnet.separate`'s output, with and without a recording tape,
  for a random, a silent, a 1e-21-gain and a short, padded mixture, in
  float32 and float64;
- `cli_separate`: the WAVs `dpsep separate` writes for a 12345-sample and a
  7-sample mixture;
- `gradcheck`: each `name: report` line that `dpsep gradcheck` prints, one
  case per finite-difference check.

`golden.json` stores each group's digest (the sha256 over its case digests
in order), the first 16 hex digits of each case's digest, to name the first
case that moved, and the stack they were taken on: the numpy and BLAS
versions and the BLAS kernel chosen for this CPU, since other kernels may
round differently.

    python tests/golden.py            # print every case's digest as JSON
    python tests/golden.py --write    # retake golden.json on this stack

Run it with OPENBLAS_NUM_THREADS=1, as `test_golden.py` does. Retake the pins
only in a change meant to move bits, and say so in CHANGES.md.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from dpsep import cli, tasnet
from dpsep.checks import run_gradcheck_suite
from dpsep.data import write_wav
from dpsep.numerics import GradTape, Tensor
from dpsep.training.loop import _batch_mean, _example_loss

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GROUPS = ("train", "grads", "separate", "cli_separate", "gradcheck")


def _blas_core():
    """The name of the kernel OpenBLAS chose for this CPU, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (AttributeError, OSError):
            continue
        corename.argtypes = ()
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def stack_stamp():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = ".".join(str(blas.get("version", "?")).split(".")[:3])
    return f"numpy {np.__version__}, {blas.get('name', '?')} {version}, {_blas_core()}"


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def group_digest(cases):
    """The sha256 over a group's (name, case digest) pairs, in order."""
    return _sha(*(f"{name}={digest}\n".encode() for name, digest in cases))


TOY_CONFIG = """
num_filters=16
window=16
num_sources=2
num_blocks=2
hidden=32
epochs=2
segment_seconds=0.5
batch_size=2
seed=11
manifest={manifest}
run_dir={run_dir}
"""


def _noise_wav(path, seed, length):
    write_wav(path, np.random.default_rng(seed).uniform(-0.5, 0.5, length), 8000)


def train_cases(work):
    # the WAV record gives segments of 4000, 4000 and 2400 samples, the last
    # zero-padded; the synth records one segment each
    specs = []
    for seed in (1, 2):
        _noise_wav(work / f"noise{seed}.wav", seed, 10400)
        specs.append(f"wav:{work / f'noise{seed}.wav'}")
    manifest = work / "m.tsv"
    manifest.write_text(
        f"train\t{specs[0]}\t{specs[1]}\t1.0\n"
        "train\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n"
        "valid\tsynth:chirp:5\tsynth:modulated-noise:6\t-2.0\n"
    )
    run_dir = work / "run"
    config = work / "toy.cfg"
    config.write_text(TOY_CONFIG.format(manifest=manifest, run_dir=run_dir))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", str(config)])
    if code != 0:
        raise RuntimeError(f"dpsep train exited {code}")
    for name in ("best.ckpt", "last.ckpt", "metrics.tsv"):
        yield name, _sha((run_dir / name).read_bytes())


def _example(rng, t_len, valid_len):
    sources = np.zeros((2, t_len), dtype=np.float32)
    sources[:, :valid_len] = rng.uniform(-0.5, 0.5, (2, valid_len))
    return SimpleNamespace(
        mixture=sources[:1] + sources[1:], sources=sources, valid_len=valid_len
    )


def grads_cases():
    t_len = 400
    for dtype in (np.float32, np.float64):
        for window in (2, 4, 8, 16):
            model = tasnet.build_model(
                nominal_samples=t_len, seed=window, dtype=dtype, num_filters=8,
                window=window, num_blocks=2, hidden=4,
            )
            for cut in (False, True):
                for batch_size in (1, 2, 3):
                    rng = np.random.default_rng((window, cut, batch_size))
                    batch = [
                        _example(rng, t_len, t_len - (61 * i + 37 if cut else 0))
                        for i in range(batch_size)
                    ]
                    for t in model.parameter_tensors():
                        t.zero_grad()
                    with GradTape() as tape:
                        loss = _batch_mean([_example_loss(model, ex) for ex in batch])
                    tape.backward(loss)
                    chunks = [loss.data.tobytes()]
                    for name, t in model.params.items():
                        chunks += [name.encode(), t.grad.tobytes()]
                    segment = "cut" if cut else "full"
                    yield f"{np.dtype(dtype).name}-W{window}-{segment}-b{batch_size}", _sha(*chunks)


def separate_cases():
    rng = np.random.default_rng(21)
    mixtures = {
        "random": rng.standard_normal((1, 3000)) * 0.3,
        "silent": np.zeros((1, 3000)),
        "gain1e-21": rng.standard_normal((1, 3000)) * 1e-21,
        "short": rng.standard_normal((1, 9)) * 0.3,  # zero-padded to the model's minimum
    }
    for dtype in (np.float32, np.float64):
        model = tasnet.build_model(
            num_filters=8, window=4, num_blocks=2, hidden=6, chunk_len=12, seed=3, dtype=dtype
        )
        for name, mixture in mixtures.items():
            for taped in (False, True):
                with GradTape() if taped else contextlib.nullcontext():
                    out = tasnet.separate(Tensor(mixture, dtype=dtype), model)
                case = f"{np.dtype(dtype).name}-{name}-{'taped' if taped else 'untaped'}"
                yield case, _sha(out.data.tobytes())


def cli_separate_cases(work):
    model = tasnet.build_model(
        num_filters=16, window=8, num_blocks=2, hidden=8, chunk_len=20, seed=4
    )
    ckpt = work / "model.ckpt"
    tasnet.save_model(model, ckpt)
    for length in (12345, 7):
        wav = work / f"mix{length}.wav"
        _noise_wav(wav, length, length)
        out_dir = work / f"out{length}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["separate", str(ckpt), str(wav), str(out_dir)])
        if code != 0:
            raise RuntimeError(f"dpsep separate exited {code}")
        for c in (1, 2):
            yield f"T{length}-source{c}", _sha((out_dir / f"source{c}.wav").read_bytes())


def gradcheck_cases():
    for name, report in run_gradcheck_suite():
        yield name, _sha(f"{name}: {report}".encode())


def compute():
    """{group: [(case, sha256)]} for every group, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "train").mkdir()
        (work / "cli").mkdir()
        return {
            "train": list(train_cases(work / "train")),
            "grads": list(grads_cases()),
            "separate": list(separate_cases()),
            "cli_separate": list(cli_separate_cases(work / "cli")),
            "gradcheck": list(gradcheck_cases()),
        }


def main(argv):
    groups = compute()
    if "--write" not in argv:
        print(json.dumps({"stack": stack_stamp(), "groups": groups}))
        return 0
    pins = {
        "stack": stack_stamp(),
        "groups": {
            group: {
                "digest": group_digest(cases),
                "cases": {name: digest[:16] for name, digest in cases},
            }
            for group, cases in groups.items()
        },
    }
    GOLDEN_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
