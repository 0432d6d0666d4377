"""SNR-controlled additive mixing of two sources."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import InputError


class MixingError(InputError):
    """Raised for silent or mismatched mixing inputs."""


@dataclass
class MixtureExample:
    """A mixture with its references: mixture (1, T), sources (C, T).

    `valid_len` marks how many samples are real; the tail beyond it is
    zero padding from fixed-length segmenting and is masked out of losses.
    Its source and sample counts are `sources.shape[0]` and
    `mixture.shape[1]`; the SNR it was mixed at is its manifest record's.
    """

    mixture: np.ndarray
    sources: np.ndarray
    sample_rate: int
    valid_len: int

    def __post_init__(self):
        if self.mixture.shape != (1, self.sources.shape[1]):
            raise MixingError(
                f"mixture {self.mixture.shape} does not match sources {self.sources.shape}"
            )
        if not 0 < self.valid_len <= self.mixture.shape[1]:
            raise MixingError(f"valid_len {self.valid_len} out of range")
        if self.sources.shape[0] == 2 and not np.array_equal(
            self.mixture[0], self.sources[0] + self.sources[1]
        ):
            raise MixingError("mixture must equal the exact sum of the stored sources")


def mix_at_snr(s1, s2, snr_db, sample_rate=8000):
    """Mix two (1, T) sources at the requested relative SNR in dB.

    s2 is rescaled so 10*log10(E1/E2') equals snr_db exactly, then the
    mixture is the plain sum; sources are stored post-scaling so the mixture
    equals their sum bit-for-bit.
    """
    s1 = np.asarray(s1, dtype=np.float32).reshape(1, -1)
    s2 = np.asarray(s2, dtype=np.float32).reshape(1, -1)
    if s1.shape != s2.shape:
        raise MixingError(f"source lengths differ: {s1.shape[1]} vs {s2.shape[1]}")
    e1 = float(np.sum(s1.astype(np.float64) ** 2))
    e2 = float(np.sum(s2.astype(np.float64) ** 2))
    if e1 == 0.0 or e2 == 0.0:
        raise MixingError("cannot mix silent sources")
    scale = np.sqrt(e1 / (e2 * 10.0 ** (snr_db / 10.0)))
    s2_scaled = (s2 * np.float32(scale)).astype(np.float32)
    sources = np.concatenate([s1, s2_scaled], axis=0)
    mixture = s1 + s2_scaled
    return MixtureExample(
        mixture=mixture,
        sources=sources,
        sample_rate=sample_rate,
        valid_len=s1.shape[1],
    )
