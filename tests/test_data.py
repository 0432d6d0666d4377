"""WAV round trips, synthetic sources, SNR mixing, manifests, datasets."""

import numpy as np
import pytest

from dpsep.data import (
    ManifestError,
    MixingError,
    WavFormatError,
    make_dataset,
    mix_at_snr,
    parse_manifest,
    read_wav,
    split_records,
    synth_source,
    write_wav,
)


class TestWavIO:
    def test_round_trip_random_int16_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500, dtype=np.int16)
        samples = ints.astype(np.float32) / 32768.0
        path = tmp_path / "x.wav"
        write_wav(path, samples, 8000)
        back, rate = read_wav(path)
        assert rate == 8000
        np.testing.assert_array_equal(back[0], samples)

    def test_extreme_values_survive(self, tmp_path):
        samples = np.array([-32768, 32767, 0, -1, 1], dtype=np.int16)
        path = tmp_path / "x.wav"
        write_wav(path, samples.astype(np.float32) / 32768.0, 16000)
        back, rate = read_wav(path)
        np.testing.assert_array_equal((back[0] * 32768.0).astype(np.int16), samples)

    def test_header_rate_respected(self, tmp_path):
        path = tmp_path / "x.wav"
        write_wav(path, np.zeros(10) + 0.25, 8000)
        _, rate = read_wav(path)
        assert rate == 8000

    def test_malformed_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"NOTAWAVEFILE" * 10)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_stereo_rejected_naming_field(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 40)
        with pytest.raises(WavFormatError) as exc:
            read_wav(path)
        assert "channels=2" in str(exc.value)

    def test_wrong_width_rejected(self, tmp_path):
        import wave

        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 40)
        with pytest.raises(WavFormatError) as exc:
            read_wav(path)
        assert "width" in str(exc.value)


class TestSynth:
    @pytest.mark.parametrize("kind", ["harmonic", "chirp", "modulated-noise"])
    def test_deterministic_and_unit_rms(self, kind):
        a = synth_source(kind, 0.5, 8000, seed=42)
        b = synth_source(kind, 0.5, 8000, seed=42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 4000)
        rms = np.sqrt(np.mean(a.astype(np.float64) ** 2))
        assert rms == pytest.approx(1.0, abs=1e-4)

    def test_different_seeds_differ(self):
        a = synth_source("chirp", 0.25, 8000, seed=1)
        b = synth_source("chirp", 0.25, 8000, seed=2)
        assert not np.array_equal(a, b)

    def test_harmonic_energy_concentrated_low(self):
        # DFT oracle: >= 95% of spectral energy below 2 kHz at 8 kHz rate
        x = synth_source("harmonic", 1.0, 8000, seed=7)[0].astype(np.float64)
        spectrum = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(x.size, d=1.0 / 8000)
        low = spectrum[freqs < 2000].sum()
        assert low / spectrum.sum() >= 0.95

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_source("square", 1.0, 8000, seed=0)


class TestMixing:
    def test_zero_snr_equal_energy_keeps_scale(self):
        rng = np.random.default_rng(3)
        s1 = rng.standard_normal((1, 1000)).astype(np.float32)
        s2 = rng.standard_normal((1, 1000)).astype(np.float32)
        s2 *= np.linalg.norm(s1) / np.linalg.norm(s2)  # equalize energy
        ex = mix_at_snr(s1, s2, 0.0)
        np.testing.assert_allclose(ex.sources[1], s2[0], rtol=1e-6)

    @pytest.mark.parametrize("snr_db", [-5.0, -2.5, 0.0, 2.5, 5.0])
    def test_energy_ratio_matches_request(self, snr_db):
        rng = np.random.default_rng(int(snr_db * 10) % 100)
        ex = mix_at_snr(
            rng.standard_normal((1, 2000)).astype(np.float32) * 0.3,
            rng.standard_normal((1, 2000)).astype(np.float32) * 1.7,
            snr_db,
        )
        e1 = float((ex.sources[0].astype(np.float64) ** 2).sum())
        e2 = float((ex.sources[1].astype(np.float64) ** 2).sum())
        measured = 10.0 * np.log10(e1 / e2)
        assert measured == pytest.approx(snr_db, abs=1e-4)

    def test_mixture_is_exact_sum_of_sources(self):
        rng = np.random.default_rng(4)
        ex = mix_at_snr(
            rng.standard_normal((1, 512)).astype(np.float32),
            rng.standard_normal((1, 512)).astype(np.float32),
            3.0,
        )
        np.testing.assert_array_equal(ex.mixture[0], ex.sources.sum(axis=0))

    def test_silent_source_rejected(self):
        with pytest.raises(MixingError):
            mix_at_snr(np.zeros((1, 100)), np.ones((1, 100)), 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MixingError):
            mix_at_snr(np.ones((1, 10)), np.ones((1, 12)), 0.0)


MANIFEST_TEXT = (
    "train\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n"
    "# comment line\n"
    "valid\tsynth:modulated-noise:3\tsynth:harmonic:4\t-5.0\n"
    "test\tsynth:chirp:5\tsynth:modulated-noise:6\t5.0\n"
)


class TestManifest:
    def test_parse_and_split(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(MANIFEST_TEXT)
        records = parse_manifest(path)
        assert len(records) == 3
        assert [r.split for r in records] == ["train", "valid", "test"]
        assert split_records(records, "valid")[0].snr_db == -5.0
        assert records[0].spec1.synth_kind == "harmonic"

    def test_rejects_bad_split(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("dev\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_rejects_out_of_range_snr(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("train\tsynth:harmonic:1\tsynth:chirp:2\t9.0\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_rejects_bad_spec(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("train\tflac:x\tsynth:chirp:2\t0.0\n")
        with pytest.raises(ManifestError) as exc:
            parse_manifest(path)
        assert "flac" in str(exc.value)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("train\tsynth:harmonic:1\tsynth:chirp:2\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_error_lists_unresolvable_record(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("train\twav:/nonexistent/x.wav\tsynth:chirp:2\t0.0\n")
        records = parse_manifest(path)
        with pytest.raises(ManifestError) as exc:
            make_dataset(records, 0.5, 8000)
        assert "line 1" in str(exc.value)
        assert "/nonexistent/x.wav" in str(exc.value)


class TestMakeDataset:
    def test_segment_arithmetic_with_wav_sources(self, tmp_path):
        # 10 s pair chopped into 4 s segments: 3 segments, last one padded 2 s
        rng = np.random.default_rng(5)
        for name, seed in (("a.wav", 1), ("b.wav", 2)):
            sig = np.random.default_rng(seed).uniform(-0.5, 0.5, 80000).astype(np.float32)
            write_wav(tmp_path / name, sig, 8000)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"train\twav:{tmp_path}/a.wav\twav:{tmp_path}/b.wav\t0.0\n")
        examples = make_dataset(parse_manifest(manifest), 4.0, 8000)
        assert len(examples) == 3
        assert all(ex.mixture.shape[1] == 32000 for ex in examples)
        assert examples[0].valid_len == 32000
        assert examples[2].valid_len == 16000
        np.testing.assert_array_equal(examples[2].mixture[0, 16000:], np.zeros(16000))

    def test_drops_segments_with_a_constant_source(self, tmp_path):
        # 3 segments of 400 samples and a 1-sample tail; b is silent over the
        # second segment, and any 1-sample segment is constant
        a = np.random.default_rng(1).uniform(-0.5, 0.5, 1201).astype(np.float32)
        b = np.random.default_rng(2).uniform(-0.5, 0.5, 1201).astype(np.float32)
        b[400:800] = 0.0
        write_wav(tmp_path / "a.wav", a, 8000)
        write_wav(tmp_path / "b.wav", b, 8000)
        manifest = tmp_path / "m.tsv"
        manifest.write_text(f"train\twav:{tmp_path}/a.wav\twav:{tmp_path}/b.wav\t0.0\n")
        examples = make_dataset(parse_manifest(manifest), 0.05, 8000)
        assert [ex.valid_len for ex in examples] == [400, 400]
        full = mix_at_snr(read_wav(tmp_path / "a.wav")[0], read_wav(tmp_path / "b.wav")[0], 0.0)
        np.testing.assert_array_equal(examples[0].sources, full.sources[:, :400])
        np.testing.assert_array_equal(examples[1].sources, full.sources[:, 800:1200])

    def test_empty_manifest_gives_empty_dataset(self):
        assert make_dataset([], 1.0, 8000) == []

    def test_regeneration_is_deterministic(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(MANIFEST_TEXT)
        records = parse_manifest(path)
        a = make_dataset(records, 0.5, 8000)
        b = make_dataset(records, 0.5, 8000)
        assert len(a) == len(b) == 3
        for ex_a, ex_b in zip(a, b):
            np.testing.assert_array_equal(ex_a.mixture, ex_b.mixture)
            np.testing.assert_array_equal(ex_a.sources, ex_b.sources)

    def test_mixture_snr_contract_end_to_end(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(MANIFEST_TEXT)
        records = parse_manifest(path)
        examples = make_dataset(records, 0.5, 8000)
        assert len(examples) == len(records)  # one segment per synthetic record
        for rec, ex in zip(records, examples):
            e1 = float((ex.sources[0].astype(np.float64) ** 2).sum())
            e2 = float((ex.sources[1].astype(np.float64) ** 2).sum())
            assert 10 * np.log10(e1 / e2) == pytest.approx(rec.snr_db, abs=1e-4)
