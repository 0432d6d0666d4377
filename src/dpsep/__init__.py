"""Self-contained time-domain source separation: a dual-path recurrent
separator inside an encoder/masker/decoder, with its own reverse-mode
differentiation core, uPIT/SI-SNR training, and a synthetic-mixture harness."""

__version__ = "0.1.0"

# The largest chunk length K a config or checkpoint may set. The sqrt(2L) rule
# reaches it only at L = 2^31 encoder frames, and `separate` pads every input
# to at least K/2 frames, so a larger K would only allocate and run padding.
MAX_CHUNK_LEN = 1 << 16

# The highest sample rate a config or checkpoint may set: the highest PCM
# rate in common use. `dpsep evaluate` synthesises its test set at the
# checkpoint's rate, so an unbounded one would allocate without limit.
MAX_SAMPLE_RATE = 192_000


def encoder_hop(window):
    """The encoder's hop in samples for a window of `window`: half the
    window, at least 1."""
    return max(window // 2, 1)


# The exit-code policy, by exception type: `dpsep.cli.main` exits 2 for an
# InputError (or an OSError) and 3 for a NumericFault.
class InputError(ValueError):
    """An input that cannot run: a config, manifest, WAV or checkpoint."""


class NumericFault(RuntimeError):
    """A numeric failure of a run on inputs that were accepted."""
