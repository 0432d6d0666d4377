"""Mono PCM16 WAV reading and writing via the stdlib wave module.

Samples map to [-1, 1) as int16/32768 on read and invert exactly on write, so
round trips are bit-lossless for every int16 value.
"""

from __future__ import annotations

import wave

import numpy as np

from .. import InputError


class WavFormatError(InputError):
    """Raised for non-RIFF files, unsupported codec parameters or a data chunk
    shorter than the header declares."""


def read_wav(path):
    """Read a mono PCM16 WAV file; returns ((1, T) float32 in [-1, 1), rate)."""
    try:
        with wave.open(str(path), "rb") as fh:
            channels = fh.getnchannels()
            sample_width = fh.getsampwidth()
            compression = fh.getcomptype()
            rate = fh.getframerate()
            n_frames = fh.getnframes()
            payload = fh.readframes(n_frames)
    except wave.Error as err:
        raise WavFormatError(f"{path}: not a readable RIFF/WAVE file ({err})") from None
    except EOFError:
        raise WavFormatError(f"{path}: truncated RIFF/WAVE file") from None
    except RuntimeError:
        # what the wave module raises for a chunk smaller than its own fields
        raise WavFormatError(f"{path}: RIFF chunk size disagrees with its contents") from None
    if compression != "NONE":
        raise WavFormatError(f"{path}: compression type {compression!r} (PCM required)")
    if channels != 1:
        raise WavFormatError(f"{path}: channels={channels} (mono required)")
    if sample_width != 2:
        raise WavFormatError(f"{path}: sample width {sample_width} bytes (16-bit required)")
    if n_frames == 0:
        raise WavFormatError(f"{path}: empty audio stream")
    if len(payload) < n_frames * sample_width:
        raise WavFormatError(
            f"{path}: data chunk holds {len(payload)} bytes, header declares "
            f"{n_frames} frames of {sample_width} bytes"
        )
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float32) / 32768.0
    return samples.reshape(1, -1), rate


def write_wav(path, samples, sample_rate):
    """Write float samples in [-1, 1) as mono PCM16; inverse of read_wav."""
    flat = np.asarray(samples, dtype=np.float64).reshape(-1)
    ints = np.clip(np.round(flat * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(sample_rate))
        fh.writeframes(ints.tobytes())
