"""CLI surface: config parsing, exit codes, train/separate/evaluate round trip."""

import dataclasses
import os
import platform
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dpsep import cli
from dpsep.cli import ConfigError, RunConfig, parse_config

MANIFEST = (
    "train\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n"
    "train\tsynth:modulated-noise:3\tsynth:harmonic:4\t2.0\n"
    "valid\tsynth:chirp:5\tsynth:modulated-noise:6\t-2.0\n"
    "test\tsynth:harmonic:7\tsynth:chirp:8\t1.0\n"
)

TOY_CONFIG = """
# toy run
num_filters=4
window=8
num_sources=2
num_blocks=1
hidden=4
chunk_len=10
epochs=2
segment_seconds=0.1
batch_size=2
patience=10
seed=3
manifest={manifest}
run_dir={run_dir}
"""


def _write_toy(tmp_path):
    manifest = tmp_path / "m.tsv"
    manifest.write_text(MANIFEST)
    config = tmp_path / "toy.cfg"
    run_dir = tmp_path / "run"
    config.write_text(TOY_CONFIG.format(manifest=manifest, run_dir=run_dir))
    return config, manifest, run_dir


def _wav_pair(tmp_path, length, silent=slice(0, 0)):
    """Manifest specs of two noise WAVs of `length` samples; the second is
    zero over `silent`."""
    from dpsep.data import write_wav

    specs = []
    for seed in (1, 2):
        sig = np.random.default_rng(seed).uniform(-0.5, 0.5, length)
        if seed == 2:
            sig[silent] = 0.0
        path = tmp_path / f"noise{seed}.wav"
        write_wav(path, sig, 8000)
        specs.append(f"wav:{path}")
    return specs


class TestConfig:
    def test_defaults_match_published_recipe(self):
        from dpsep.training import optim

        config = RunConfig()
        assert config.num_filters == 64
        assert config.window == 2
        assert config.num_blocks == 6
        assert config.hidden == 128
        assert config.lr_init == pytest.approx(1e-3)
        assert optim.LR_DECAY == pytest.approx(0.98)
        assert optim.LR_DECAY_EVERY == 2
        assert optim.CLIP_NORM == pytest.approx(5.0)
        assert (optim.BETA1, optim.BETA2, optim.ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert config.patience == 10
        assert config.segment_seconds == pytest.approx(4.0)
        assert config.epochs == 100

    def test_parse_with_comments_and_types(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("window=4  # samples\n\nlr_init=2e-3\n")
        config = parse_config(path)
        assert config.window == 4
        assert config.lr_init == pytest.approx(2e-3)

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("wndow=4\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert "wndow" in str(exc.value)

    @pytest.mark.parametrize(
        "key", ["beta1", "beta2", "adam_eps", "lr_decay", "lr_decay_every", "clip_norm"]
    )
    def test_fixed_recipe_key_exits_2_as_unknown(self, key, tmp_path, capsys):
        # the optimizer's values are the recipe's constants, not config keys
        config = _toy_with(tmp_path, **{key: 1})
        assert cli.main(["train", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"unknown config key {key!r}" in err, err

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("window=4\nwindow=8\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_readme_lists_every_config_key(self):
        readme = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
        listing = readme.split("The keys are ", 1)[1].split(". ", 1)[0]
        keys = re.findall(r"`(\w+)`", listing)
        assert keys == [f.name for f in dataclasses.fields(RunConfig)]

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(tmp_path / "nope.cfg")
        assert "nope.cfg" in str(exc.value)


class TestTrainCommand:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "absent.cfg" in capsys.readouterr().err

    def test_bad_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("nonsense=1\n")
        assert cli.main(["train", str(path)]) == 2

    def test_toy_train_writes_best_checkpoint(self, tmp_path):
        config, _, run_dir = _write_toy(tmp_path)
        assert cli.main(["train", str(config)]) == 0
        assert (run_dir / "best.ckpt").exists()
        assert (run_dir / "last.ckpt").exists()
        assert (run_dir / "metrics.tsv").exists()

    def test_rerun_reproduces_metrics_byte_identically(self, tmp_path):
        config, _, run_dir = _write_toy(tmp_path)
        assert cli.main(["train", str(config)]) == 0
        first = (run_dir / "metrics.tsv").read_bytes()
        assert cli.main(["train", str(config)]) == 0
        assert (run_dir / "metrics.tsv").read_bytes() == first

    @pytest.mark.parametrize("split", ["train", "valid"])
    def test_segment_with_a_silent_source_is_dropped(self, split, tmp_path, capsys):
        # two 0.1 s segments, the second with a silent source: SI-SNR cannot
        # score it, so it is left out instead of aborting the run
        config, manifest, run_dir = _write_toy(tmp_path)
        s1, s2 = _wav_pair(tmp_path, 1600, silent=slice(800, None))
        with open(manifest, "a") as fh:
            fh.write(f"{split}\t{s1}\t{s2}\t0.0\n")
        assert cli.main(["train", str(config)]) == 0, capsys.readouterr().err
        assert (run_dir / "best.ckpt").exists()

    def test_run_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        config, _, run_dir = _write_toy(tmp_path)
        run_dir.write_text("not a directory")
        assert cli.main(["train", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_dir_env_override(self, tmp_path, monkeypatch):
        config, _, _ = _write_toy(tmp_path)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(cli.RUN_DIR_ENV, str(override))
        assert cli.main(["train", str(config)]) == 0
        assert (override / "best.ckpt").exists()


def _toy_with(tmp_path, **overrides):
    """The toy config with some keys replaced or added."""
    config, _, _ = _write_toy(tmp_path)
    lines = [
        line for line in config.read_text().splitlines()
        if line.split("=", 1)[0] not in overrides
    ]
    config.write_text("\n".join(lines + [f"{k}={v}" for k, v in overrides.items()]) + "\n")
    return config


CONFIG_FAULTS = {
    "hidden=0": dict(hidden=0),
    "num_blocks=0": dict(num_blocks=0),
    "odd chunk_len": dict(chunk_len=3),
    "negative chunk_len": dict(chunk_len=-2),
    "chunk_len above the cap": dict(chunk_len=2 * 65536),
    "epochs=0": dict(epochs=0),
    "batch_size=0": dict(batch_size=0),
    "lr_init=0": dict(lr_init=0),
    "patience=0": dict(patience=0),
    "segment too short to derive chunk_len": dict(segment_seconds=0.001, window=16, chunk_len=0),
    "num_sources=3": dict(num_sources=3),
    "lr_init=nan": dict(lr_init="nan"),
    "segment_seconds * sample_rate overflows": dict(segment_seconds=1e308),
    "sample_rate above the cap": dict(sample_rate=192001),
}


def test_exit_code_policy_by_exception_type():
    # main exits 2 for an InputError and 3 for a NumericFault
    from dpsep import InputError, NumericFault, data
    from dpsep.numerics import CheckpointError, NumericsError
    from dpsep.training import TrainingAbort

    for error in (ConfigError, CheckpointError, data.ManifestError, data.MixingError,
                  data.WavFormatError):
        assert issubclass(error, InputError), error
    for error in (NumericsError, TrainingAbort):
        assert issubclass(error, NumericFault), error


def _overflowing_checkpoint(tmp_path):
    """A toy checkpoint whose weights are finite but whose forward overflows."""
    from dpsep import tasnet

    model = tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
    )
    model.params["mask_head.weight"].data[...] = 3e38
    path = tmp_path / "overflow.ckpt"
    tasnet.save_model(model, path)
    return path


class TestConfigFaults:
    """Every config that cannot run exits 2 with an error line, never a traceback."""

    @pytest.mark.parametrize("overrides", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS.keys())
    def test_bad_value_exits_2(self, overrides, tmp_path, capsys):
        config = _toy_with(tmp_path, **overrides)
        assert cli.main(["train", str(config)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("overrides", CONFIG_FAULTS.values(), ids=CONFIG_FAULTS.keys())
    def test_library_run_config_rejects_bad_value_naming_its_key(self, overrides, tmp_path):
        # RunConfig checks itself: a library caller cannot build a config that
        # parse_config rejects, and both give the same message
        types = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
        with pytest.raises(ValueError) as exc:
            RunConfig(**{key: types[key](value) for key, value in overrides.items()})
        message = str(exc.value)
        assert any(key in message for key in overrides), message
        path = tmp_path / "c.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in overrides.items()))
        with pytest.raises(ConfigError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"window=4 # \xff\xfe\n")
        assert cli.main(["train", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_directory_config_exits_2(self, tmp_path, capsys):
        assert cli.main(["train", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


OUT_OF_RANGE_SIZES = {
    "hidden=0": ("hidden", 0),
    "window=0": ("window", 0),
    "num_filters=-1": ("num_filters", -1),
    "num_sources=0": ("num_sources", 0),
    "num_blocks=0": ("num_blocks", 0),
    "odd chunk_len": ("chunk_len", 3),
    "negative chunk_len": ("chunk_len", -2),
    "chunk_len above the cap": ("chunk_len", 2 * 65536),
    "sample_rate=0": ("sample_rate", 0),
    "sample_rate above the cap": ("sample_rate", 192001),
}


@pytest.mark.parametrize("key, value", OUT_OF_RANGE_SIZES.values(),
                         ids=OUT_OF_RANGE_SIZES.keys())
def test_build_load_and_config_reject_a_size_alike(key, value, tmp_path):
    # one Geometry holds the rules of the model's sizes, for the library, a
    # checkpoint and a config alike
    from dpsep import tasnet
    from dpsep.numerics import CheckpointError, ShapeError, load_arrays, save_arrays

    with pytest.raises(ShapeError) as exc:
        tasnet.build_model(**{key: value})
    message = str(exc.value)
    assert message.startswith(f"{key} must be "), message
    with pytest.raises(ValueError) as exc:
        RunConfig(**{key: value})
    assert str(exc.value) == message
    path = tmp_path / "toy.ckpt"
    tasnet.save_model(tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
    ), path)
    meta, arrays = load_arrays(path)
    meta[key] = str(value)
    save_arrays(path, arrays.items(), meta=meta)
    with pytest.raises(CheckpointError) as exc:
        tasnet.load_model(path)
    assert str(exc.value) == f"{path}: {message}"


def _float64_checkpoint(tmp_path):
    from dpsep import tasnet

    model = tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10,
        dtype=np.float64,
    )
    path = tmp_path / "toy64.ckpt"
    tasnet.save_model(model, path)
    return path


class TestSeparateCommand:
    @pytest.fixture
    def trained(self, tmp_path):
        config, manifest, run_dir = _write_toy(tmp_path)
        assert cli.main(["train", str(config)]) == 0
        return run_dir / "best.ckpt", manifest

    def test_writes_one_file_per_source_with_input_length(self, trained, tmp_path):
        ckpt, _ = trained
        from dpsep.data import read_wav, synth_source, write_wav

        wav_in = tmp_path / "mix.wav"
        mix = 0.5 * synth_source("harmonic", 0.2, 8000, seed=9)
        write_wav(wav_in, mix[0], 8000)
        out_dir = tmp_path / "sep"
        assert cli.main(["separate", str(ckpt), str(wav_in), str(out_dir)]) == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["source1.wav", "source2.wav"]
        for name in files:
            audio, rate = read_wav(out_dir / name)
            assert rate == 8000
            assert audio.shape[1] == mix.shape[1]

    def test_separate_keeps_freed_memory_before_it_loads(self, tmp_path, monkeypatch):
        # the allocator policy of train and evaluate holds for separate too,
        # so the forward reuses the checkpoint's freed read buffer
        from dpsep import tasnet
        from dpsep.data import write_wav

        ckpt = tmp_path / "toy.ckpt"
        tasnet.save_model(tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        ), ckpt)
        wav = tmp_path / "mix.wav"
        write_wav(wav, np.random.default_rng(0).uniform(-0.5, 0.5, 500), 8000)
        calls = []
        load_model = tasnet.load_model
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append("policy"))
        monkeypatch.setattr(
            tasnet, "load_model", lambda path: calls.append("load") or load_model(path)
        )
        assert cli.main(["separate", str(ckpt), str(wav), str(tmp_path / "sep")]) == 0
        assert calls == ["policy", "load"]

    def test_written_sources_are_peak_matched_and_never_clip(self, trained, tmp_path):
        from dpsep import tasnet
        from dpsep.data import read_wav, synth_source, write_wav
        from dpsep.numerics import Tensor
        from dpsep.training import si_snr

        # SI-SNR cannot tell a model from one with a louder decoder, so a
        # trained model may well produce estimates far above full scale
        model, _ = tasnet.load_model(trained[0])
        model.params["decoder.kernels"].data *= 64.0
        ckpt = tmp_path / "loud.ckpt"
        tasnet.save_model(model, ckpt)
        wav_in = tmp_path / "mix.wav"
        mix = synth_source("harmonic", 0.2, 8000, seed=9) + synth_source(
            "chirp", 0.2, 8000, seed=10
        )
        write_wav(wav_in, 0.9 * mix[0] / np.abs(mix).max(), 8000)
        out_dir = tmp_path / "sep"
        assert cli.main(["separate", str(ckpt), str(wav_in), str(out_dir)]) == 0
        samples, _ = read_wav(wav_in)
        est = tasnet.separate(Tensor(samples), model).data
        mix_peak = np.abs(samples).max()
        assert np.abs(est).max() > 1.0
        for c in range(2):
            audio, _ = read_wav(out_dir / f"source{c + 1}.wav")
            assert np.abs(audio).max() <= mix_peak
            score = si_snr(audio[0].astype(np.float64), est[c].astype(np.float64))
            assert float(score) >= 60.0

    def test_silent_input_writes_silent_sources(self, trained, tmp_path):
        ckpt, _ = trained
        from dpsep.data import read_wav, write_wav

        wav_in = tmp_path / "silence.wav"
        write_wav(wav_in, np.zeros(800), 8000)
        out_dir = tmp_path / "sep"
        assert cli.main(["separate", str(ckpt), str(wav_in), str(out_dir)]) == 0
        for c in range(2):
            audio, _ = read_wav(out_dir / f"source{c + 1}.wav")
            np.testing.assert_array_equal(audio, np.zeros((1, 800), dtype=np.float32))

    def test_rate_mismatch_exits_2(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        from dpsep.data import synth_source, write_wav

        wav_in = tmp_path / "mix16k.wav"
        write_wav(wav_in, 0.3 * synth_source("chirp", 0.1, 16000, seed=4)[0], 16000)
        assert cli.main(["separate", str(ckpt), str(wav_in), str(tmp_path / "o")]) == 2
        assert "sample rate" in capsys.readouterr().err

    @pytest.mark.parametrize("data_bytes", [16, 17])
    def test_data_chunk_shorter_than_header_exits_2(self, data_bytes, trained, tmp_path, capsys):
        # the header declares 4000 frames (8000 bytes) but the data chunk
        # holds 8 whole frames, or 8 and a half
        ckpt, _ = trained
        from dpsep.data import write_wav

        wav_in = tmp_path / "cut.wav"
        write_wav(wav_in, 0.5 * np.sin(np.arange(4000) * 0.1), 8000)
        wav_in.write_bytes(wav_in.read_bytes()[: 44 + data_bytes])
        out_dir = tmp_path / "o"
        assert cli.main(["separate", str(ckpt), str(wav_in), str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    def test_missing_checkpoint_exits_2(self, tmp_path):
        assert cli.main(["separate", str(tmp_path / "no.ckpt"), "x.wav", "o"]) == 2

    def test_output_dir_that_is_a_file_exits_2(self, trained, tmp_path, capsys):
        ckpt, _ = trained
        from dpsep.data import write_wav

        wav_in = tmp_path / "mix.wav"
        write_wav(wav_in, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert cli.main(["separate", str(ckpt), str(wav_in), str(taken)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_finite_estimates_exit_3_writing_nothing(self, tmp_path, capsys):
        from dpsep.data import write_wav

        wav_in = tmp_path / "mix.wav"
        write_wav(wav_in, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        out_dir = tmp_path / "sep"
        ckpt = _overflowing_checkpoint(tmp_path)
        assert cli.main(["separate", str(ckpt), str(wav_in), str(out_dir)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_dir.exists()

    def test_non_finite_estimates_error_names_the_op(self, tmp_path, capsys):
        from dpsep.data import write_wav

        wav_in = tmp_path / "mix.wav"
        write_wav(wav_in, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        ckpt = _overflowing_checkpoint(tmp_path)
        assert cli.main(["separate", str(ckpt), str(wav_in), str(tmp_path / "sep")]) == 3
        assert capsys.readouterr().err.startswith("error: non-finite values produced by op '")

    def test_float64_checkpoint_separates(self, tmp_path, capsys):
        # the float32 mixture runs in the checkpoint's dtype
        from dpsep.data import read_wav, write_wav

        wav_in = tmp_path / "mix.wav"
        write_wav(wav_in, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        out_dir = tmp_path / "sep"
        code = cli.main(["separate", str(_float64_checkpoint(tmp_path)), str(wav_in),
                         str(out_dir)])
        assert code == 0, capsys.readouterr().err
        for c in range(2):
            audio, _ = read_wav(out_dir / f"source{c + 1}.wav")
            assert audio.shape == (1, 400)

    def test_short_inputs_give_sources_of_input_length(self, trained, tmp_path):
        # the toy model needs 24 samples (W=8, K=10); shorter input is padded
        ckpt, _ = trained
        from dpsep.data import read_wav, write_wav

        rng = np.random.default_rng(5)
        for length in (5, 20, 30):
            wav_in = tmp_path / f"mix{length}.wav"
            write_wav(wav_in, 0.5 * rng.uniform(-1, 1, length), 8000)
            out_dir = tmp_path / f"sep{length}"
            assert cli.main(["separate", str(ckpt), str(wav_in), str(out_dir)]) == 0
            for c in range(2):
                audio, _ = read_wav(out_dir / f"source{c + 1}.wav")
                assert audio.shape == (1, length)


class TestMalformedCheckpoint:
    """Every corrupt checkpoint exits 2 with an error line, never a traceback."""

    @pytest.fixture
    def sections(self, tmp_path):
        """(meta, header, data) bytes of a saved toy checkpoint."""
        from dpsep import tasnet

        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        )
        path = tmp_path / "toy.ckpt"
        tasnet.save_model(model, path)
        blob = path.read_bytes()
        meta_len = struct.unpack_from("<I", blob, 8)[0]
        meta = blob[12 : 12 + meta_len]
        pos = 12 + meta_len
        header_len = struct.unpack_from("<I", blob, pos)[0]
        header = blob[pos + 4 : pos + 4 + header_len]
        return meta, header, blob[pos + 4 + header_len :]

    @staticmethod
    def _blob(meta, header, data):
        return (
            b"DPSP" + struct.pack("<I", 1) + struct.pack("<I", len(meta)) + meta
            + struct.pack("<I", len(header)) + header + data
        )

    @staticmethod
    def _separate_exits_2(path, capsys):
        # a readable mixture, so that only the checkpoint can be at fault
        from dpsep.data import write_wav

        wav = path.parent / "mix.wav"
        if not wav.exists():
            write_wav(wav, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        code = cli.main(["separate", str(path), str(wav), str(path.parent / "o")])
        err = capsys.readouterr().err
        return code == 2 and err.startswith("error: ")

    def test_every_cut_through_the_header_exits_2(self, sections, tmp_path, capsys):
        meta, header, data = sections
        blob = self._blob(meta, header, data)
        path = tmp_path / "cut.ckpt"
        header_end = len(blob) - len(data)
        for cut in range(header_end + 1):
            path.write_bytes(blob[:cut])
            assert self._separate_exits_2(path, capsys), f"cut at byte {cut}"

    def test_crafted_blobs_exit_2(self, sections, tmp_path, capsys):
        meta, header, data = sections
        first, rest = header.split(b"\n", 1)
        name, dtype, _ = first.split(b"\t")
        crafted = {
            "non-UTF-8 metadata": (meta + b"\nnote=\xff\xfe", header),
            "non-integer shape": (meta, b"\t".join([name, dtype, b"4,x"]) + b"\n" + rest),
            "non-integer metadata": (meta.replace(b"window=8", b"window=eight"), header),
            "missing geometry key": (
                b"\n".join(l for l in meta.split(b"\n") if not l.startswith(b"hidden=")),
                header,
            ),
            # same element count, so the file's data still matches its header
            "rank-1 LSTM weight": (
                meta,
                header.replace(b"block0.intra.lstm_fwd.wh\tfloat32\t16,4",
                               b"block0.intra.lstm_fwd.wh\tfloat32\t64"),
            ),
        }
        for label, (m, h) in crafted.items():
            assert (m, h) != (meta, header), label
            path = tmp_path / "crafted.ckpt"
            path.write_bytes(self._blob(m, h, data))
            assert self._separate_exits_2(path, capsys), label


    def test_zero_block_checkpoint_exits_2(self, tmp_path, capsys):
        from dpsep import tasnet
        from dpsep.numerics import load_arrays, save_arrays

        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        )
        path = tmp_path / "noblocks.ckpt"
        tasnet.save_model(model, path)
        meta, arrays = load_arrays(path)
        meta["num_blocks"] = "0"
        heads = [(name, a) for name, a in arrays.items() if not name.startswith("block")]
        save_arrays(path, heads, meta=meta)
        assert self._separate_exits_2(path, capsys)

    @staticmethod
    def _resaved(tmp_path, edit):
        """A toy checkpoint whose (meta, arrays) went through `edit`."""
        from dpsep import tasnet
        from dpsep.numerics import load_arrays, save_arrays

        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        )
        path = tmp_path / "edited.ckpt"
        tasnet.save_model(model, path)
        meta, arrays = load_arrays(path)
        edit(meta, arrays)
        save_arrays(path, arrays.items(), meta=meta)
        return path

    def test_inflated_geometry_exits_2(self, tmp_path, capsys):
        # the tensors are checked against the metadata before any model is
        # built, so a 10^7-filter claim allocates nothing
        def inflate(meta, arrays):
            meta["num_filters"] = meta["hidden"] = "10000000"

        assert self._separate_exits_2(self._resaved(tmp_path, inflate), capsys)

    def test_huge_block_count_exits_2_naming_the_missing_block(self, tmp_path, capsys):
        # the tensors are read down the layout, which stops at the first one
        # the file lacks, so a 10^12-block claim allocates no block
        from dpsep.data import write_wav

        def inflate(meta, arrays):
            meta["num_blocks"] = str(10**12)

        path = self._resaved(tmp_path, inflate)
        wav = tmp_path / "mix.wav"
        write_wav(wav, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        tracemalloc.start()
        try:
            code = cli.main(["separate", str(path), str(wav), str(tmp_path / "o")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing tensor 'block1.intra.lstm_fwd.wx'" in err
        assert peak < 1 << 20

    def test_huge_chunk_len_exits_2_naming_the_cap(self, tmp_path, capsys):
        # no tensor pins chunk_len, and separate pads every input to K/2 frames
        from dpsep import MAX_CHUNK_LEN
        from dpsep.data import write_wav

        def widen(meta, arrays):
            meta["chunk_len"] = "2000000000000000"

        path = self._resaved(tmp_path, widen)
        wav = tmp_path / "mix.wav"
        write_wav(wav, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        assert cli.main(["separate", str(path), str(wav), str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at most {MAX_CHUNK_LEN}" in err

    def test_extra_tensors_exit_2_naming_them(self, tmp_path, capsys):
        # a two-block file whose metadata says one block
        from dpsep.data import write_wav

        def second_block(meta, arrays):
            for name in [n for n in arrays if n.startswith("block0.")]:
                arrays["block1" + name[len("block0"):]] = arrays[name]

        path = self._resaved(tmp_path, second_block)
        wav = tmp_path / "mix.wav"
        write_wav(wav, 0.5 * np.sin(np.arange(400) * 0.1), 8000)
        assert cli.main(["separate", str(path), str(wav), str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "block1.intra.lstm_fwd.wx" in err

    def test_sample_rate_above_the_cap_exits_2_before_synthesis(
        self, tmp_path, capsys, monkeypatch
    ):
        from dpsep import MAX_SAMPLE_RATE, data

        def raise_rate(meta, arrays):
            meta["sample_rate"] = "2000000000"

        def no_synthesis(*args):
            raise AssertionError("evaluate synthesised a test set")

        monkeypatch.setattr(data, "make_dataset", no_synthesis)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(MANIFEST)
        path = self._resaved(tmp_path, raise_rate)
        assert cli.main(["evaluate", str(path), str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at most {MAX_SAMPLE_RATE}" in err

    @pytest.mark.parametrize("value, stored", [(np.nan, np.float32), (1e300, np.float64)],
                             ids=["nan", "float64 beyond float32"])
    def test_non_finite_weight_exits_2(self, value, stored, tmp_path, capsys):
        def poison(meta, arrays):
            kernels = arrays["encoder.kernels"].astype(stored)
            kernels[1, 2] = value
            arrays["encoder.kernels"] = kernels

        assert self._separate_exits_2(self._resaved(tmp_path, poison), capsys)

    def test_per_gate_checkpoint_exits_2(self, tmp_path, capsys):
        # the layout of earlier versions: twelve tensors per cell, one per gate
        from dpsep import tasnet
        from dpsep.numerics import load_arrays, save_arrays

        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        )
        arrays = []
        for name, t in model.parameters():
            prefix, _, group = name.rpartition(".")
            if group in ("wx", "wh", "b"):
                for k, gate in enumerate("ifgo"):
                    arrays.append((f"{prefix}.{group}_{gate}", t.data[4 * k : 4 * k + 4]))
            else:
                arrays.append((name, t.data))
        path = tmp_path / "per_gate.ckpt"
        tasnet.save_model(model, path)
        meta, _ = load_arrays(path)
        save_arrays(path, arrays, meta=meta)
        assert self._separate_exits_2(path, capsys)


class TestEvaluateCommand:
    def test_reports_per_example_and_mean(self, tmp_path, capsys):
        config, manifest, run_dir = _write_toy(tmp_path)
        assert cli.main(["train", str(config)]) == 0
        code = cli.main(["evaluate", str(run_dir / "best.ckpt"), str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "example 0:" in out
        assert "mean si_snri=" in out
        assert "snri=" not in out.replace("si_snri=", "")

    def test_float64_checkpoint_evaluates(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(MANIFEST)
        code = cli.main(["evaluate", str(_float64_checkpoint(tmp_path)), str(manifest)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "mean si_snri=" in captured.out

    def test_one_sample_tail_is_dropped(self, tmp_path, capsys):
        # 4 s evaluation segments plus one sample: the 1-sample tail is a
        # constant reference, which SI-SNR cannot score
        from dpsep import tasnet

        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        )
        ckpt = tmp_path / "toy.ckpt"
        tasnet.save_model(model, ckpt)
        s1, s2 = _wav_pair(tmp_path, 32001)
        manifest = tmp_path / "tail.tsv"
        manifest.write_text(f"test\t{s1}\t{s2}\t0.0\n")
        assert cli.main(["evaluate", str(ckpt), str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "example 0:" in out and "over 1 examples" in out
        # a pair of one sample leaves no segment: the empty split exits 2
        s1, s2 = _wav_pair(tmp_path, 1)
        manifest.write_text(f"test\t{s1}\t{s2}\t0.0\n")
        assert cli.main(["evaluate", str(ckpt), str(manifest)]) == 2
        assert "no test segments" in capsys.readouterr().err

    def test_manifest_without_test_split_exits_2(self, tmp_path, capsys):
        config, _, run_dir = _write_toy(tmp_path)
        assert cli.main(["train", str(config)]) == 0
        other = tmp_path / "train_only.tsv"
        other.write_text("train\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n")
        assert cli.main(["evaluate", str(run_dir / "best.ckpt"), str(other)]) == 2

    def test_checkpoint_with_other_than_two_sources_exits_2(self, tmp_path, capsys, monkeypatch):
        # the checkpoint is refused before any test example is synthesised
        from dpsep import data, tasnet

        def no_synthesis(*args):
            raise AssertionError("evaluate synthesised a test set")

        monkeypatch.setattr(data, "make_dataset", no_synthesis)
        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=3, num_blocks=1, hidden=4, chunk_len=10
        )
        ckpt = tmp_path / "three.ckpt"
        tasnet.save_model(model, ckpt)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(MANIFEST)
        assert cli.main(["evaluate", str(ckpt), str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_silent_test_sources_exit_2(self, tmp_path, capsys):
        from dpsep import tasnet
        from dpsep.data import write_wav

        model = tasnet.build_model(
            num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
        )
        ckpt = tmp_path / "toy.ckpt"
        tasnet.save_model(model, ckpt)
        silent = tmp_path / "silent.wav"
        write_wav(silent, np.zeros(800), 8000)
        manifest = tmp_path / "silent.tsv"
        manifest.write_text(f"test\twav:{silent}\twav:{silent}\t0.0\n")
        assert cli.main(["evaluate", str(ckpt), str(manifest)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    def test_non_finite_estimates_exit_3_naming_the_example(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(MANIFEST)
        code = cli.main(["evaluate", str(_overflowing_checkpoint(tmp_path)), str(manifest)])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: example 0: ")

    def test_non_finite_estimates_error_names_the_op(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_text(MANIFEST)
        code = cli.main(["evaluate", str(_overflowing_checkpoint(tmp_path)), str(manifest)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: example 0: non-finite values produced by op '")


def _assert_manifest_fault_exits_2(tmp_path, capsys, blob):
    """`train` and `evaluate` on a manifest holding `blob` both exit 2 with an error line."""
    from dpsep import tasnet

    config, manifest, _ = _write_toy(tmp_path)
    manifest.write_bytes(blob)
    assert cli.main(["train", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    model = tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
    )
    ckpt = tmp_path / "toy.ckpt"
    tasnet.save_model(model, ckpt)
    assert cli.main(["evaluate", str(ckpt), str(manifest)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


class TestManifestFaults:
    def test_non_utf8_manifest_exits_2(self, tmp_path, capsys):
        blob = MANIFEST.encode() + b"test\tsynth:harmonic:7\tsynth:chirp:8\t1.0 # \xff\xfe\n"
        _assert_manifest_fault_exits_2(tmp_path, capsys, blob)

    def test_negative_synth_seed_exits_2(self, tmp_path, capsys):
        blob = (MANIFEST + "test\tsynth:harmonic:-1\tsynth:chirp:8\t1.0\n").encode()
        _assert_manifest_fault_exits_2(tmp_path, capsys, blob)


def test_gradcheck_command_passes(capsys):
    from dpsep.checks import GRADCHECK_CASES

    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    for name in ("tiny_separator", "padded_separator", "bilstm_batched_t1", "bilstm_batched_t5",
                 "bilstm_batched_t5_axis1"):
        assert f"{name}: pass" in out
    names = [line.split(":")[0] for line in out.splitlines()]
    assert "lstm_step" not in names and "bilstm" not in names
    count = len(GRADCHECK_CASES)
    assert f"{count}/{count} gradient checks passed" in out


# Two optimizer steps of a model whose per-op arrays exceed glibc's default
# 128 KiB mmap threshold; prints the minor faults of each step.
TWO_STEPS = """
import resource
import numpy as np
from dpsep import cli, tasnet
from dpsep.numerics import GradTape, Tensor
from dpsep.training import Adam
from dpsep.training.loss import upit_loss

cli._keep_freed_memory()
model = tasnet.build_model(num_filters=32, hidden=64, window=2, num_blocks=1,
                           nominal_samples=2000, seed=0)
optimizer = Adam(model.parameter_tensors())
rng = np.random.default_rng(0)
mixture = Tensor(rng.standard_normal((1, 2000)), dtype=np.float32)
refs = Tensor(rng.standard_normal((2, 2000)), dtype=np.float32)
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    optimizer.zero_grads()
    with GradTape() as tape:
        loss, _ = upit_loss(tasnet.separate(mixture, model), refs)
    tape.backward(loss)
    optimizer.step(1e-3)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
def test_second_step_reuses_the_first_steps_memory():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OPENBLAS_NUM_THREADS="1",
        NUMPY_MADVISE_HUGEPAGE="0",
    )
    proc = subprocess.run(
        [sys.executable, "-c", TWO_STEPS], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    first, second = map(int, proc.stdout.split())
    assert second < 0.1 * first, (first, second)


def test_importing_the_cli_leaves_numpy_unloaded():
    # the thread count reaches the BLAS environment only if numpy loads after
    # the config is read, so the CLI and the training settings it checks
    # must import without it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    code = "import sys, dpsep.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
