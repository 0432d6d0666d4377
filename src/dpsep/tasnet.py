"""Encoder/masker/decoder assembly operating directly on waveform samples.

A learned conv front-end encodes the mixture (N, L), the dual-path stack
runs over its (K, S, N) chunks and the mask head maps each chunk frame's N
features to C*N before overlap-add gives one nonnegative mask per source,
(C, N, L). A transposed-conv decoder maps each masked representation back to
a waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import MAX_CHUNK_LEN, MAX_SAMPLE_RATE, encoder_hop
from . import dualpath as dp
from . import numerics as nt
from .numerics import ShapeError, Tensor


# the model's sizes, each at least 1 (chunk_len also even), as a checkpoint's
# metadata holds them, in its order
_GEOMETRY = ("num_filters", "window", "num_sources", "num_blocks", "hidden", "chunk_len",
            "sample_rate")


@dataclass
class SeparatorModel:
    num_filters: int
    window: int
    num_sources: int
    num_blocks: int
    hidden: int
    chunk_len: int
    sample_rate: int
    encoder_kernels: Tensor  # (N, W)
    decoder_kernels: Tensor  # (N, W)
    mask_weight: Tensor  # (C*N, N)
    mask_bias: Tensor  # (C*N,)
    blocks: list = field(default_factory=list)

    def __post_init__(self):
        """Check the whole tree against the geometry, so that a model built
        from any arrays, a checkpoint's included, can run."""
        for name in _GEOMETRY:
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.chunk_len % 2 or self.chunk_len > MAX_CHUNK_LEN:
            raise ShapeError(
                f"chunk_len must be even and at most {MAX_CHUNK_LEN}, got {self.chunk_len}"
            )
        if self.sample_rate > MAX_SAMPLE_RATE:
            raise ShapeError(
                f"sample_rate must be at most {MAX_SAMPLE_RATE}, got {self.sample_rate}"
            )
        n, w, c, h = self.num_filters, self.window, self.num_sources, self.hidden
        if self.encoder_kernels.shape != (n, w) or self.decoder_kernels.shape != (n, w):
            raise ShapeError(
                f"encoder/decoder kernels must be ({n},{w}), got "
                f"{self.encoder_kernels.shape}/{self.decoder_kernels.shape}"
            )
        if self.mask_weight.shape != (c * n, n) or self.mask_bias.shape != (c * n,):
            raise ShapeError(
                f"mask head must map {n} -> {c * n}, got weight {self.mask_weight.shape} "
                f"bias {self.mask_bias.shape}"
            )
        if len(self.blocks) != self.num_blocks:
            raise ShapeError(f"expected {self.num_blocks} blocks, got {len(self.blocks)}")
        # each sub-pass checks its FC and norm against its forward cell
        for b, block in enumerate(self.blocks):
            for side, sub in (("intra", block.intra), ("inter", block.inter)):
                for cell in (sub.lstm_fwd, sub.lstm_bwd):
                    if (cell.input_size, cell.hidden_size) != (n, h):
                        raise ShapeError(
                            f"block{b}.{side}: LSTM maps {cell.input_size} features with "
                            f"{cell.hidden_size} hidden units, the model {n} with {h}"
                        )

    @property
    def stride(self):
        """Encoder hop, `encoder_hop(window)`."""
        return encoder_hop(self.window)

    def parameters(self):
        """(name, tensor) pairs in the fixed checkpoint order."""
        yield "encoder.kernels", self.encoder_kernels
        yield "decoder.kernels", self.decoder_kernels
        yield "mask_head.weight", self.mask_weight
        yield "mask_head.bias", self.mask_bias
        for b, block in enumerate(self.blocks):
            for name, t in block.tensors():
                yield f"block{b}.{name}", t

    def parameter_tensors(self):
        return [t for _, t in self.parameters()]


def parameter_count(model):
    """Exact number of scalars across all parameter tensors."""
    return sum(t.size for _, t in model.parameters())


def frame_count(num_samples, window, stride):
    if num_samples < window:
        raise ShapeError(f"input too short: {num_samples} samples < window {window}")
    return (num_samples - window) // stride + 1


def build_model(
    num_filters=64,
    window=2,
    num_sources=2,
    num_blocks=6,
    hidden=128,
    chunk_len=None,
    nominal_samples=32000,
    sample_rate=8000,
    seed=0,
    dtype=np.float32,
):
    """Construct a randomly initialized model.

    When `chunk_len` is None it is derived from the encoder frame count of a
    nominal input (training segments of `nominal_samples` samples).
    """
    if chunk_len is None:
        frames = frame_count(nominal_samples, window, encoder_hop(window))
        chunk_len = dp.choose_chunk_size(frames)
    rng = np.random.default_rng(seed)
    kb = 1.0 / np.sqrt(window)
    mb = 1.0 / np.sqrt(num_filters)

    def uni(shape, bound):
        return Tensor(rng.uniform(-bound, bound, size=shape), dtype=dtype, requires_grad=True)

    return SeparatorModel(
        num_filters=num_filters,
        window=window,
        num_sources=num_sources,
        num_blocks=num_blocks,
        hidden=hidden,
        chunk_len=chunk_len,
        sample_rate=sample_rate,
        encoder_kernels=uni((num_filters, window), kb),
        decoder_kernels=uni((num_filters, window), kb),
        mask_weight=uni((num_sources * num_filters, num_filters), mb),
        mask_bias=Tensor(
            np.zeros(num_sources * num_filters), dtype=dtype, requires_grad=True
        ),
        blocks=[
            dp.init_block_params(rng, num_filters, hidden, dtype=dtype)
            for _ in range(num_blocks)
        ],
    )


def encode(mixture, model):
    """mixture (1, T) -> nonnegative representation (N, L)."""
    return nt.relu(nt.conv1d(mixture, model.encoder_kernels, model.stride))


def estimate_masks(rep, model):
    """rep (N, L) -> C nonnegative masks (C, N, L).

    Pipeline: segment to (K, S, N) -> dual-path stack -> per-position affine
    N -> C*N -> overlap-add to (C*N, L) -> relu -> reshape to (C, N, L).
    """
    n, length = rep.shape
    x = dp.dprnn_stack(dp.segment(rep, model.chunk_len), model.blocks)  # (K, S, N)
    x = nt.affine(x, model.mask_weight, model.mask_bias)  # (K, S, C*N)
    maps = dp.overlap_add(x, length)  # (C*N, L)
    return nt.reshape(nt.relu(maps), (model.num_sources, n, length))


def apply_masks(rep, masks):
    """out[c] = rep (*) masks[c]; shapes (N, L) x (C, N, L) -> (C, N, L)."""
    if masks.shape[1:] != rep.shape:
        raise ShapeError(f"masks {masks.shape} do not match representation {rep.shape}")
    return nt.mul(nt.reshape(rep, (1,) + rep.shape), masks)


def decode(masked, model):
    """masked (C, N, L) -> waveforms (C, T'), T' = (L-1)*stride + W."""
    return nt.transposed_conv1d(masked, model.decoder_kernels, model.stride)


def separate(mixture, model):
    """Full pipeline: mixture (1, T) -> C estimated sources (C, T).

    The mixture is scaled to unit RMS before encoding and the estimates are
    scaled back by that RMS, on the tape, so gradients with respect to the
    mixture stay exact. Separation is therefore gain-equivariant:
    separate(g*x) == g*separate(x), bit for bit when g is a power of two.
    SI-SNR training is scale-invariant and would not teach the model this.
    A silent (all-zero) mixture skips the scaling and gives silent estimates.
    Nor does SI-SNR training fix the estimates' own gain, so `dpsep separate`
    rescales each one to the mixture's peak before writing it as a WAV.
    A mixture shorter than the model's minimum input (T >= W and K <= 2L) is
    zero-padded to that minimum, and the estimates are cut back to T.
    """
    t_len = mixture.shape[1]
    rms = None
    if np.any(mixture.data):
        rms = nt.sqrt(nt.tmean(nt.mul(mixture, mixture)))
        mixture = nt.div(mixture, rms)
    min_len = model.window + (max(model.chunk_len // 2, 1) - 1) * model.stride
    mixture = nt.pad_last_axis(mixture, max(t_len, min_len))
    rep = encode(mixture, model)
    masks = estimate_masks(rep, model)
    est = decode(apply_masks(rep, masks), model)
    if est.shape[1] < t_len:
        est = nt.pad_last_axis(est, t_len)
    elif est.shape[1] > t_len:
        est = nt.slice_axis(est, 1, 0, t_len)
    return est if rms is None else nt.mul(est, rms)


def save_model(model, path):
    meta = {
        "format": "dpsep-separator",
        **{key: getattr(model, key) for key in _GEOMETRY},
        "dtype": model.encoder_kernels.data.dtype.name,
    }
    nt.save_arrays(path, ((name, t.data) for name, t in model.parameters()), meta=meta)


def load_model(path):
    """Read a separator checkpoint -> (model, metadata). Raises CheckpointError
    for a file that cannot run or whose tensors are not exactly the model's.
    The model is built from the file's arrays alone, and `SeparatorModel`
    checks them against the geometry, so no metadata makes it allocate more
    than the file holds."""
    meta, arrays = nt.load_arrays(path)
    if meta.get("format") != "dpsep-separator":
        raise nt.CheckpointError(f"{path} is not a separator checkpoint")
    try:
        geometry = {key: int(meta[key]) for key in _GEOMETRY}
    except (KeyError, ValueError) as err:
        raise nt.CheckpointError(f"{path}: missing or non-integer metadata {err}") from None
    dtype_name = meta.get("dtype", "float32")
    if dtype_name not in ("float32", "float64"):
        raise nt.CheckpointError(f"{path}: unsupported dtype {dtype_name!r}")

    def tensor(name):
        if name not in arrays:
            raise nt.CheckpointError(f"{path}: checkpoint missing tensor {name!r}")
        try:
            with np.errstate(over="ignore"):  # Tensor rejects what overflows
                return Tensor(arrays[name], dtype=dtype_name, requires_grad=True)
        except nt.NumericsError:
            raise nt.CheckpointError(
                f"{path}: checkpoint tensor {name!r} holds values that are not finite "
                f"in {dtype_name}"
            ) from None

    try:
        model = _model_from_params(geometry, tensor)
    except ShapeError as err:
        raise nt.CheckpointError(f"{path}: {err}") from None
    extra = sorted(arrays.keys() - {name for name, _ in model.parameters()})
    if extra:
        raise nt.CheckpointError(
            f"{path}: checkpoint holds tensors the model does not use: {', '.join(extra)}"
        )
    return model, meta


def _model_from_params(geometry, tensor):
    """The model of `geometry` whose tensors are `tensor(name)`, named as in
    `parameters()`."""

    def cell(prefix):
        return nt.LstmCellParams(*(tensor(f"{prefix}.{key}") for key in ("wx", "wh", "b")))

    def sub(prefix):
        return dp.DprnnSubParams(
            lstm_fwd=cell(f"{prefix}.lstm_fwd"),
            lstm_bwd=cell(f"{prefix}.lstm_bwd"),
            fc_weight=tensor(f"{prefix}.fc.weight"),
            fc_bias=tensor(f"{prefix}.fc.bias"),
            ln_scale=tensor(f"{prefix}.ln.scale"),
            ln_bias=tensor(f"{prefix}.ln.bias"),
        )

    return SeparatorModel(
        **geometry,
        encoder_kernels=tensor("encoder.kernels"),
        decoder_kernels=tensor("decoder.kernels"),
        mask_weight=tensor("mask_head.weight"),
        mask_bias=tensor("mask_head.bias"),
        blocks=[
            dp.DprnnBlockParams(intra=sub(f"block{b}.intra"), inter=sub(f"block{b}.inter"))
            for b in range(geometry["num_blocks"])
        ],
    )
