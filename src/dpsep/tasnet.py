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

from . import MAX_CHUNK_LEN, encoder_hop
from . import dualpath as dp
from . import numerics as nt
from .numerics import ShapeError, Tensor


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
        n, w, c = self.num_filters, self.window, self.num_sources
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
        if self.num_blocks < 1:
            raise ShapeError(f"num_blocks must be at least 1, got {self.num_blocks}")
        if len(self.blocks) != self.num_blocks:
            raise ShapeError(f"expected {self.num_blocks} blocks, got {len(self.blocks)}")

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
    if chunk_len % 2 != 0:
        raise ShapeError(f"chunk_len must be even, got {chunk_len}")
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
        "num_filters": model.num_filters,
        "window": model.window,
        "stride": model.stride,
        "num_sources": model.num_sources,
        "num_blocks": model.num_blocks,
        "hidden": model.hidden,
        "chunk_len": model.chunk_len,
        "sample_rate": model.sample_rate,
        "dtype": model.encoder_kernels.data.dtype.name,
    }
    nt.save_arrays(path, ((name, t.data) for name, t in model.parameters()), meta=meta)


# geometry keys read back from a checkpoint, with the least value each may take
_GEOMETRY_MINIMA = {
    "num_filters": 1, "window": 1, "num_sources": 1, "num_blocks": 1,
    "hidden": 1, "chunk_len": 2, "sample_rate": 1,
}


def _parameter_shapes(num_filters, window, num_sources, num_blocks, hidden, **_):
    """(name, shape) of each parameter `build_model` makes, in checkpoint
    order, without allocating any."""
    n, h = num_filters, hidden
    yield "encoder.kernels", (n, window)
    yield "decoder.kernels", (n, window)
    yield "mask_head.weight", (num_sources * n, n)
    yield "mask_head.bias", (num_sources * n,)
    cell = (("wx", (4 * h, n)), ("wh", (4 * h, h)), ("b", (4 * h,)))
    head = (("fc.weight", (n, 2 * h)), ("fc.bias", (n,)), ("ln.scale", (n,)), ("ln.bias", (n,)))
    for b in range(num_blocks):
        for side in ("intra", "inter"):
            for lstm in ("lstm_fwd", "lstm_bwd"):
                for name, shape in cell:
                    yield f"block{b}.{side}.{lstm}.{name}", shape
            for name, shape in head:
                yield f"block{b}.{side}.{name}", shape


def load_model(path):
    """Read a separator checkpoint -> (model, metadata). Raises CheckpointError
    for a file that cannot run. Every tensor is checked before the model is
    built from the checked arrays, so that no metadata makes it allocate more
    than the file holds."""
    meta, arrays = nt.load_arrays(path)
    if meta.get("format") != "dpsep-separator":
        raise nt.CheckpointError(f"{path} is not a separator checkpoint")
    try:
        geometry = {key: int(meta[key]) for key in _GEOMETRY_MINIMA}
    except (KeyError, ValueError) as err:
        raise nt.CheckpointError(f"{path}: missing or non-integer metadata {err}") from None
    dtype_name = meta.get("dtype", "float32")
    if (
        any(geometry[key] < least for key, least in _GEOMETRY_MINIMA.items())
        or dtype_name not in ("float32", "float64")
    ):
        raise nt.CheckpointError(
            f"{path}: invalid model geometry {geometry} or dtype {dtype_name!r}"
        )
    chunk_len = geometry["chunk_len"]
    if chunk_len % 2 or chunk_len > MAX_CHUNK_LEN:
        raise nt.CheckpointError(
            f"{path}: chunk_len must be even and at most {MAX_CHUNK_LEN}, got {chunk_len}"
        )
    params = {}
    for name, shape in _parameter_shapes(**geometry):
        found = arrays[name].shape if name in arrays else "missing"
        if found != shape:
            raise nt.CheckpointError(f"checkpoint tensor {name!r}: {found}, expected {shape}")
        try:
            with np.errstate(over="ignore"):  # Tensor rejects what overflows
                params[name] = Tensor(arrays[name], dtype=dtype_name, requires_grad=True)
        except nt.NumericsError:
            raise nt.CheckpointError(
                f"checkpoint tensor {name!r} holds values that are not finite in {dtype_name}"
            ) from None
    return _model_from_params(geometry, params), meta


def _model_from_params(geometry, params):
    """The model whose tensors are `params`, named as in `parameters()`."""

    def cell(prefix):
        return nt.LstmCellParams(*(params[f"{prefix}.{key}"] for key in ("wx", "wh", "b")))

    def sub(prefix):
        return dp.DprnnSubParams(
            lstm_fwd=cell(f"{prefix}.lstm_fwd"),
            lstm_bwd=cell(f"{prefix}.lstm_bwd"),
            fc_weight=params[f"{prefix}.fc.weight"],
            fc_bias=params[f"{prefix}.fc.bias"],
            ln_scale=params[f"{prefix}.ln.scale"],
            ln_bias=params[f"{prefix}.ln.bias"],
        )

    return SeparatorModel(
        **geometry,
        encoder_kernels=params["encoder.kernels"],
        decoder_kernels=params["decoder.kernels"],
        mask_weight=params["mask_head.weight"],
        mask_bias=params["mask_head.bias"],
        blocks=[
            dp.DprnnBlockParams(intra=sub(f"block{b}.intra"), inter=sub(f"block{b}.inter"))
            for b in range(geometry["num_blocks"])
        ],
    )
