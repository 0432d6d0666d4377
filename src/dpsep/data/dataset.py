"""Dataset assembly: resolve manifest records, mix, and cut fixed segments.

Synthetic sources are generated at exactly the segment length; WAV sources
use their file length and are chopped into segments, zero-padding the final
partial one (its real extent is kept in `valid_len`). A segment in which a
source is constant over its real samples is dropped: SI-SNR cannot score it.
"""

from __future__ import annotations

import numpy as np

from .manifest import ManifestError
from .mixing import MixtureExample, mix_at_snr
from .synth import synth_source
from .wavio import WavFormatError, read_wav


def _resolve_source(spec, segment_seconds, sample_rate, context):
    if spec.kind == "synth":
        return synth_source(spec.synth_kind, segment_seconds, sample_rate, spec.seed)
    try:
        samples, rate = read_wav(spec.path)
    except (OSError, WavFormatError) as err:
        raise ManifestError(f"{context}: cannot load {spec.path!r}: {err}") from None
    if rate != sample_rate:
        raise ManifestError(
            f"{context}: {spec.path!r} has sample rate {rate}, expected {sample_rate}"
        )
    return samples


def make_dataset(records, segment_seconds, sample_rate):
    """Turn manifest records into fixed-length MixtureExamples, deterministically.

    Drops each segment in which a source is constant over its `valid_len`
    samples (a silent stretch, or a 1-sample tail): its reference has no
    energy after mean removal, so SI-SNR is undefined."""
    seg_len = int(round(segment_seconds * sample_rate))
    if seg_len < 1:
        raise ValueError(f"segment of {segment_seconds}s at {sample_rate}Hz is empty")
    examples = []
    for rec in records:
        context = f"manifest line {rec.line_no}"
        s1 = _resolve_source(rec.spec1, segment_seconds, sample_rate, context)
        s2 = _resolve_source(rec.spec2, segment_seconds, sample_rate, context)
        length = min(s1.shape[1], s2.shape[1])
        full = mix_at_snr(s1[:, :length], s2[:, :length], rec.snr_db, sample_rate=sample_rate)
        for start in range(0, length, seg_len):
            stop = min(start + seg_len, length)
            if np.any(np.ptp(full.sources[:, start:stop], axis=1) == 0):
                continue
            mixture = np.zeros((1, seg_len), dtype=np.float32)
            sources = np.zeros((full.sources.shape[0], seg_len), dtype=np.float32)
            mixture[:, : stop - start] = full.mixture[:, start:stop]
            sources[:, : stop - start] = full.sources[:, start:stop]
            examples.append(
                MixtureExample(
                    mixture=mixture,
                    sources=sources,
                    sample_rate=sample_rate,
                    valid_len=stop - start,
                )
            )
    return examples
