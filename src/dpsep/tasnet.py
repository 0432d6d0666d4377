"""Encoder/masker/decoder assembly operating directly on waveform samples.

Each stage is one tape op over numpy. `encode` is a learned strided conv
with its relu, giving a nonnegative representation (N, L). The dual-path
stack runs over its (K, S, N) chunks, and `mask_head` maps each chunk
frame's N features to C*N and overlap-adds them into one nonnegative mask
per source, (C, N, L). `apply_masks` weights the representation with each
mask, and `decode`, a transposed conv, maps each masked representation back
to a waveform of the mixture's length and gain.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import dualpath as dp
from . import numerics as nt
from .config import Geometry
from .dualpath import _chunk
from .numerics import NumericsError, ShapeError, Tensor
from .numerics.tensor import recording_tape


def _layout(geometry):
    """(name, shape) of each parameter of a `geometry` separator, in checkpoint
    order, which is also the order `build_model` draws them in: the encoder
    and decoder kernels (N, W), the mask head (C*N, N) and (C*N,), then per
    block an intra and an inter sub-pass, each a BLSTM (two packed LSTM
    cells, gate rows i, f, g, o), its FC 2H -> N and its norm's scale and
    bias."""
    n, w, c, h = geometry.num_filters, geometry.window, geometry.num_sources, geometry.hidden
    yield "encoder.kernels", (n, w)
    yield "decoder.kernels", (n, w)
    yield "mask_head.weight", (c * n, n)
    yield "mask_head.bias", (c * n,)
    for b in range(geometry.num_blocks):
        for side in ("intra", "inter"):
            prefix = f"block{b}.{side}"
            for cell in ("lstm_fwd", "lstm_bwd"):
                yield f"{prefix}.{cell}.wx", (4 * h, n)
                yield f"{prefix}.{cell}.wh", (4 * h, h)
                yield f"{prefix}.{cell}.b", (4 * h,)
            yield f"{prefix}.fc.weight", (n, 2 * h)
            yield f"{prefix}.fc.bias", (n,)
            yield f"{prefix}.ln.scale", (n,)
            yield f"{prefix}.ln.bias", (n,)


def _initial(rng, name, shape, dtype):
    """The initial value of the parameter `name` of `shape`, drawn from rng:
    an LSTM bias is 1 on its forget gate's rows and 0 elsewhere, an LSTM
    `wh` an orthogonal (H, H) block per gate, a norm scale 1, any other bias
    0, and any other weight uniform in +-1/sqrt(fan-in), its shape[1]."""
    kind = name.rpartition(".")[2]
    if kind == "wh":
        h = shape[1]
        value = np.concatenate([_orthogonal(rng.standard_normal((h, h))) for _ in range(4)])
    elif kind == "b":
        value = np.zeros(shape)
        value[shape[0] // 4 : shape[0] // 2] = 1.0
    elif kind == "scale":
        value = np.ones(shape)
    elif kind == "bias":
        value = np.zeros(shape)
    else:
        bound = 1.0 / np.sqrt(shape[1])
        value = rng.uniform(-bound, bound, size=shape)
    return Tensor(value, dtype=dtype, requires_grad=True)


def _orthogonal(a):
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))  # fix sign for determinism


@dataclass(kw_only=True)
class SeparatorModel(Geometry):
    """A `Geometry` and its parameters: `params` maps each name of `_layout`
    to its tensor, in layout order. The ops read them by name, and the
    dual-path stack in layout order."""

    params: dict

    def __post_init__(self):
        """Check the parameters against the geometry's layout, so that a model
        built from any arrays, a checkpoint's included, can run."""
        super().__post_init__()
        if self.chunk_len < 2:
            raise ShapeError(f"chunk_len must be at least 2, got {self.chunk_len}")
        pairs = zip_longest(_layout(self), self.params.items(), fillvalue=(None, None))
        for (name, shape), (key, t) in pairs:
            if name is None:
                raise ShapeError(f"parameter {key!r} is not in the model's layout")
            if key != name:
                raise ShapeError(f"expected parameter {name!r} {shape}, got {key!r}")
            if t.shape != shape:
                raise ShapeError(f"parameter {name!r} must be {shape}, got {t.shape}")

    def parameters(self):
        """(name, tensor) pairs in the fixed checkpoint order."""
        return iter(self.params.items())

    def parameter_tensors(self):
        return list(self.params.values())


def build_model(nominal_samples=32000, seed=0, dtype=np.float32, **sizes):
    """Construct a randomly initialized model of `Geometry(**sizes)`, drawing
    each parameter with `_initial` in layout order.

    A `chunk_len` of 0, the default, is derived from the encoder frame count
    of a nominal input (training segments of `nominal_samples` samples).
    """
    geometry = Geometry(**sizes)
    if geometry.chunk_len == 0:
        chunk_len = dp.choose_chunk_size(geometry.frames(nominal_samples))
        geometry = dataclasses.replace(geometry, chunk_len=chunk_len)
    rng = np.random.default_rng(seed)
    params = {name: _initial(rng, name, shape, dtype) for name, shape in _layout(geometry)}
    return SeparatorModel(**geometry.sizes(), params=params)


def _windows(sig, width, stride, count):
    # (..., count, width) strided view over the last axis; read-only.
    view = np.lib.stride_tricks.sliding_window_view(sig, width, axis=-1)
    return view[..., ::stride, :][..., :count, :]


def encode(mixture, model):
    """mixture (1, T) -> nonnegative representation (N, L), L = (T-W)//stride
    + 1: each stride-hop window dotted with the N encoder kernels, then relu.

    One tape op. The relu runs in place over the conv output, and backward
    keeps that output: out > 0 exactly where the conv is positive. The
    mixture is data, so one with `requires_grad` is a ShapeError and
    backward gives the kernels' gradient alone, (g * (out > 0)) @ windows.
    """
    kernels, stride = model.params["encoder.kernels"], model.stride
    if mixture.data.ndim != 2 or mixture.shape[0] != 1:
        raise ShapeError(f"encode: mixture must be (1, T), got {mixture.shape}")
    if mixture.requires_grad:
        raise ShapeError("encode: the mixture is data and takes no gradient")
    t_len, width = mixture.shape[1], kernels.shape[1]
    if t_len < width:
        raise ShapeError(f"encode: input too short, T={t_len} < window W={width}")
    win = _windows(mixture.data[0], width, stride, (t_len - width) // stride + 1)
    kd = kernels.data
    out = None

    def forward_fn():
        nonlocal out
        out = kd @ win.T
        return np.maximum(out, 0, out=out)

    return nt.apply_op(
        "encode", (mixture, kernels), forward_fn, lambda g: (None, (g * (out > 0)) @ win)
    )


_HEAD_ROWS = 8  # chunk rows per affine block of the mask head's forward


def mask_head(x, weight, bias, length):
    """relu(overlap_add(affine(x, weight, bias), L)) as C masks, bit for bit:
    x (K, S, N) -> nonnegative (C, N, L), for weight (C*N, N) and bias (C*N,).

    One tape op. The forward runs the affine on blocks of `_HEAD_ROWS` chunk
    rows, each inside one chunk half, and adds each block's (rows, S, C*N)
    result straight into one (C*N, S+1, P) array, so neither the (K, S, C*N)
    affine output nor a (K, S, N) scratch exists. Each entry is the same
    N-term dot product as in the whole GEMM, and the blocks run in
    ascending chunk row, so every folded entry gets its first-half term
    before its second-half term, as in `overlap_add`. The relu runs in place
    over the halved (C*N, L) view of that array, and the masks are a view of
    it, so no second mask-sized array joins the fold buffer while the
    stack's output, x, is still alive. Backward keeps the masks, whose
    entries are positive exactly where the fold's are, masks g with them,
    then runs overlap-add's backward and the affine's.
    """
    chunk_len, s, n = x.shape
    rows = weight.shape[0]
    if weight.shape != (rows, n) or bias.shape != (rows,) or rows % n:
        raise ShapeError(
            f"mask_head: weight {weight.shape} / bias {bias.shape} must map {n} features "
            f"to a multiple of {n}"
        )
    if chunk_len % 2 or s != dp.chunk_count(length, chunk_len):
        raise ShapeError(f"mask_head: chunks {x.shape} do not tile length {length}")
    inputs = (x, weight, bias)
    shape, hop = x.shape, chunk_len // 2
    xd, wd, bd = x.data, weight.data, bias.data
    x2 = xd.reshape(-1, n)
    need_x, need_w, need_b = x.requires_grad, weight.requires_grad, bias.requires_grad
    out = None

    def forward_fn():
        nonlocal out
        folded = np.zeros((rows, s + 1, hop), dtype=xd.dtype)
        y = np.empty((min(_HEAD_ROWS, hop) * s, rows), dtype=xd.dtype)
        # chunk row k of the first half lands in columns :-1, of the second in 1:
        for start, dst in ((0, folded[:, :-1]), (hop, folded[:, 1:])):
            for lo in range(0, hop, _HEAD_ROWS):
                hi = min(lo + _HEAD_ROWS, hop)
                block = y[: (hi - lo) * s]
                np.matmul(xd[start + lo : start + hi].reshape(-1, n), wd.T, out=block)
                block += bd
                dst[:, :, lo:hi] += block.reshape(hi - lo, s, rows).transpose(2, 1, 0)
        out = folded.reshape(rows, -1)[:, hop : hop + length]
        out /= 2
        np.maximum(out, 0, out=out)
        out = out.reshape(rows // n, n, length)
        return out

    def backward_fn(g):
        g2 = _chunk((g * (out > 0)).reshape(rows, length), hop, s).reshape(-1, rows)
        g2 /= 2
        gx = (g2 @ wd).reshape(shape) if need_x else None
        gw = g2.T @ x2 if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        return gx, gw, gb

    return nt.apply_op("mask_head", inputs, forward_fn, backward_fn)


def estimate_masks(rep, model):
    """rep (N, L) -> C nonnegative masks (C, N, L).

    Pipeline: segment to (K, S, N) -> dual-path stack -> mask head (a
    per-position affine N -> C*N, overlap-added to (C*N, L), relu, as
    (C, N, L)).

    It drops its reference to `rep` once `segment` has chunked it, so a
    caller that keeps none frees the encoder output before the stack runs.
    """
    length = rep.shape[1]
    chunks = [dp.segment(rep, model.chunk_len)]  # (K, S, N)
    del rep
    p = model.params
    blocks = [t for name, t in p.items() if name.startswith("block")]  # in layout order
    # no local holds the chunk tensor or the stack's output, so the stack
    # frees the first after its first sub-pass and the head the second
    return mask_head(
        dp.dprnn_stack(chunks.pop(), blocks), p["mask_head.weight"], p["mask_head.bias"], length
    )


def apply_masks(rep, masks, *, _overwrite=False):
    """out[c] = rep (*) masks[c]; shapes (N, L) x (C, N, L) -> (C, N, L).

    One tape op. `_overwrite`, passed only by `separate`, lets a product
    that no tape records be written over masks' array, which the caller
    must not read again; the bits are the same.
    """
    if masks.shape[1:] != rep.shape:
        raise ShapeError(f"masks {masks.shape} do not match representation {rep.shape}")
    rd, md = rep.data, masks.data
    out = md if _overwrite and recording_tape((rep, masks)) is None else None
    return nt.apply_op(
        "apply_masks",
        (rep, masks),
        lambda: np.multiply(rd, md, out=out),
        lambda g: ((g * md).sum(0), g * rd),
    )


def decode(masked, model, length, gain):
    """masked (C, N, L) -> waveforms (C, length): the transposed conv with the
    decoder kernels, (L-1)*stride + W samples, cut or zero-padded to
    `length`, then times `gain`, a scalar, or None for no scaling.

    One tape op, the adjoint of `encode`'s conv: each kernel tap w adds its
    (C, L) frame products at samples w, w + stride, ..., in ascending w, and
    only those below `length` are kept.
    """
    kernels, stride = model.params["decoder.kernels"], model.stride
    if masked.data.ndim != 3 or masked.shape[1] != kernels.shape[0]:
        raise ShapeError(f"decode: kernels {kernels.shape} do not match frames {masked.shape}")
    num_sets, _, frames = masked.shape
    width = kernels.shape[1]
    full = (frames - 1) * stride + width
    fd, kd = masked.data, kernels.data
    need_f, need_k = masked.requires_grad, kernels.requires_grad

    def forward_fn():
        out = np.zeros((num_sets, length), dtype=fd.dtype)
        for w in range(min(width, length)):
            count = min(frames, (length - 1 - w) // stride + 1)
            out[:, w : w + count * stride : stride] += (kd[:, w] @ fd)[:, :count]
        if gain is not None:
            out *= gain
        return out

    def backward_fn(g):
        if gain is not None:
            g = g * gain
        if length < full:
            g = np.pad(g, ((0, 0), (0, full - length)))
        win = _windows(g, width, stride, frames)  # (C, L, W)
        gf = kd @ win.transpose(0, 2, 1) if need_f else None
        gk = (fd @ win).sum(axis=0) if need_k else None
        return gf, gk

    return nt.apply_op("decode", (masked, kernels), forward_fn, backward_fn)


def separate(mixture, model):
    """Full pipeline: mixture (1, T) -> C estimated sources (C, T).

    The mixture is data, as the references are to `upit_loss`: one with
    `requires_grad` is a ShapeError, so every leaf a tape reaches is a model
    parameter. A mixture of any shape other than (1, T) is a ShapeError
    too. It is cast to the model's dtype and scaled to unit RMS in numpy,
    and `decode` scales the estimates back by that RMS. Separation is
    therefore gain-equivariant: separate(g*x) == g*separate(x), bit for bit
    when g is a power of two. SI-SNR training is scale-invariant and would
    not teach the model this. A mixture whose squares would go subnormal, or
    whose sum of squares could overflow, is first scaled by the power of two
    that brings its peak into [0.5, 1), which is exact, so every finite
    mixture separates. A silent (all-zero) mixture skips the scaling and
    gives silent estimates; one that overflows the model's dtype when cast
    is a NumericsError. Nor does SI-SNR training fix the estimates' own
    gain, so `dpsep separate` rescales each one to the mixture's peak before
    writing it as a WAV.
    A mixture shorter than the model's minimum input (T >= W and K <= 2L) is
    zero-padded to that minimum, and `decode` cuts the estimates back to T.
    With no tape recording it, it frees the encoder output once `segment`
    has chunked it, encodes the mixture again for `apply_masks` (the same
    bits, for one conv) and writes the masked representation over the
    masks, so the dual-path stack runs next to no other (N, L)-sized array.
    """
    if mixture.requires_grad:
        raise ShapeError("separate: the mixture is data and takes no gradient")
    if mixture.data.ndim != 2 or mixture.shape[0] != 1:
        raise ShapeError(f"separate: need a (1, T) mixture, got shape {mixture.shape}")
    dtype = model.params["encoder.kernels"].dtype
    t_len = mixture.shape[1]
    rms = None
    with np.errstate(over="ignore"):  # an overflow is refused or scaled away below
        x = mixture.data.astype(dtype, copy=False)
        peak = max(x.max(), -x.min())
        if not peak < np.inf:
            raise NumericsError(f"separate: the mixture overflows {dtype.name}")
        if peak > 0:
            info, shift = np.finfo(dtype), 0
            # squares that go subnormal, whose rounding could add up to an ulp
            # of the sum, or a sum that could overflow: first scale by the
            # power of two that brings the peak into [0.5, 1), which is exact
            if not t_len * info.tiny <= peak * peak <= info.max / t_len:
                shift = np.frexp(peak)[1]
                x = np.ldexp(x, -shift)
            rms = np.sqrt((x * x).sum() * dtype.type(1 / t_len))
            x = x / rms
            rms = np.ldexp(rms, shift)
    pad = model.samples(model.chunk_len // 2) - t_len
    mixture = Tensor(np.pad(x, ((0, 0), (0, pad))) if pad > 0 else x)
    if recording_tape(model.parameter_tensors()) is not None:
        rep = encode(mixture, model)
        masked = apply_masks(rep, estimate_masks(rep, model))
    else:
        # no local may hold the encoder output: estimate_masks drops it once
        # it is chunked
        masks = estimate_masks(encode(mixture, model), model)
        masked = apply_masks(encode(mixture, model), masks, _overwrite=True)
    return decode(masked, model, t_len, rms)


def save_model(model, path):
    meta = {
        "format": "dpsep-separator",
        **model.sizes(),
        "dtype": model.params["encoder.kernels"].dtype.name,
    }
    nt.save_arrays(path, ((name, t.data) for name, t in model.parameters()), meta=meta)


def load_model(path):
    """Read a separator checkpoint -> (model, metadata). Raises CheckpointError
    for a file that cannot run or whose tensors are not exactly the model's.
    The model's parameters are the file's arrays, read by name down the
    metadata's layout, which stops at the first missing one, and
    `SeparatorModel` checks their shapes, so no metadata makes it allocate
    more than the file holds."""
    meta, arrays = nt.load_arrays(path)
    if meta.get("format") != "dpsep-separator":
        raise nt.CheckpointError(f"{path} is not a separator checkpoint")
    try:
        sizes = {f.name: int(meta[f.name]) for f in dataclasses.fields(Geometry)}
    except (KeyError, ValueError) as err:
        raise nt.CheckpointError(f"{path}: missing or non-integer metadata {err}") from None
    dtype_name = meta.get("dtype", "float32")
    if dtype_name not in ("float32", "float64"):
        raise nt.CheckpointError(f"{path}: unsupported dtype {dtype_name!r}")

    def tensor(name):
        if name not in arrays:
            raise nt.CheckpointError(f"{path}: checkpoint missing tensor {name!r}")
        try:
            return Tensor(arrays[name], dtype=dtype_name, requires_grad=True)
        except nt.NumericsError:
            raise nt.CheckpointError(
                f"{path}: checkpoint tensor {name!r} holds values that are not finite "
                f"in {dtype_name}"
            ) from None

    try:
        params = {name: tensor(name) for name, _ in _layout(Geometry(**sizes))}
        model = SeparatorModel(**sizes, params=params)
    except ShapeError as err:
        raise nt.CheckpointError(f"{path}: {err}") from None
    extra = sorted(arrays.keys() - params.keys())
    if extra:
        raise nt.CheckpointError(
            f"{path}: checkpoint holds tensors the model does not use: {', '.join(extra)}"
        )
    return model, meta
