"""Seeded synthetic source signals standing in for speech corpora.

Three spectrally disjoint families keep oracle separation well-posed at any
pairing: harmonic tones live below ~1.9 kHz, chirps sweep inside 2.0-2.9 kHz,
and amplitude-modulated band noise occupies 3.0-3.9 kHz. All outputs are
unit-RMS and fully determined by (kind, duration, rate, seed).
"""

from __future__ import annotations

import numpy as np

SOURCE_KINDS = ("harmonic", "chirp", "modulated-noise")


def _band_noise(rng, n, sample_rate, lo_hz, hi_hz):
    # shape white noise in the frequency domain, then return to time domain
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectrum = np.zeros(freqs.size, dtype=np.complex128)
    band = (freqs >= lo_hz) & (freqs < hi_hz)
    count = int(band.sum())
    spectrum[band] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return np.fft.irfft(spectrum, n)


def synth_source(kind, duration_s, sample_rate, seed):
    """Deterministic unit-RMS (1, T) float32 waveform of the given kind."""
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    if kind not in SOURCE_KINDS:
        raise ValueError(f"unknown source kind {kind!r} (have {SOURCE_KINDS})")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n, dtype=np.float64) / sample_rate

    if kind == "harmonic":
        base = rng.uniform(150.0, 300.0)
        x = np.zeros(n)
        for k in range(1, 7):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += np.sin(2.0 * np.pi * k * base * t + phase) / k
    elif kind == "chirp":
        lo = rng.uniform(2000.0, 2200.0)
        hi = rng.uniform(2700.0, 2900.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sweep = (hi - lo) / (2.0 * duration_s)
        x = np.sin(2.0 * np.pi * (lo * t + sweep * t * t) + phase)
    else:  # modulated-noise
        mod_hz = rng.uniform(2.0, 8.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        envelope = 0.55 + 0.45 * np.sin(2.0 * np.pi * mod_hz * t + phase)
        x = _band_noise(rng, n, sample_rate, 3000.0, 3900.0) * envelope

    rms = np.sqrt(np.mean(x * x))
    return (x / rms).astype(np.float32).reshape(1, -1)
