"""Dual-path restructuring of long sequences: segmentation into 50%-overlapped
chunks, stacked intra/inter-chunk BLSTM blocks with FC + global layer norm +
residual, and the inverse overlap-add.

Chunking a length-L sequence with chunk length K ~= sqrt(2L) gives S =
ceil(2L/K)+1 chunks, so both recurrent directions see O(sqrt(L)) steps
instead of O(L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nt
from .numerics import LstmCellParams, ShapeError, Tensor
from .numerics.tensor import _needs, apply_op

LN_EPS = 1e-8


def choose_chunk_size(frame_count):
    """Chunk length K (even) and hop P = K/2 for a length-L frame sequence.

    K is the smallest even integer >= sqrt(2L), keeping both chunk length and
    chunk count near sqrt(2L). Callers may override K from config; empirical
    choices in deployed models round to nicer values.
    """
    if frame_count < 4:
        raise ShapeError(f"choose_chunk_size: need at least 4 frames, got {frame_count}")
    k = 2 * math.ceil(math.sqrt(2.0 * frame_count) / 2.0)
    return k, k // 2


def chunk_count(frame_count, chunk_len):
    """S = ceil(2L/K) + 1, the number of 50%-overlapped chunks."""
    return -(-2 * frame_count // chunk_len) + 1


@dataclass
class ChunkTensor:
    """3-D chunk tensor (N, K, S) with the geometry needed to invert it."""

    data: Tensor
    chunk_len: int
    hop: int
    original_len: int

    def __post_init__(self):
        n, k, s = self.data.shape
        if k != self.chunk_len:
            raise ShapeError(f"chunk tensor K={k} disagrees with chunk_len={self.chunk_len}")
        if self.chunk_len % self.hop != 0:
            raise ShapeError(f"chunk_len {self.chunk_len} not a multiple of hop {self.hop}")
        expected = chunk_count(self.original_len, self.chunk_len)
        if s != expected:
            raise ShapeError(
                f"chunk tensor S={s} inconsistent with L={self.original_len}, "
                f"K={self.chunk_len} (expected {expected})"
            )

    @property
    def feature_dim(self):
        return self.data.shape[0]

    @property
    def num_chunks(self):
        return self.data.shape[2]

    def with_data(self, data):
        return ChunkTensor(data, self.chunk_len, self.hop, self.original_len)


def segment(w, chunk_len, hop):
    """Split w (N, L) into the (N, K, S) chunk tensor with 50% overlap.

    Zero-pads hop frames at the front and enough at the tail that every
    original frame lands in exactly K/P = 2 chunks and the last chunk is full.
    """
    if chunk_len % 2 != 0 or hop != chunk_len // 2:
        raise ShapeError(f"segment: need even K with P=K/2, got K={chunk_len}, P={hop}")
    if w.data.ndim != 2:
        raise ShapeError(f"segment: expected (N, L), got {w.shape}")
    n, length = w.shape
    if chunk_len > 2 * length:
        raise ShapeError(
            f"segment: K={chunk_len} exceeds 2L={2 * length}; choose a smaller chunk size"
        )
    s = chunk_count(length, chunk_len)
    padded_len = (s - 1) * hop + chunk_len

    def forward_fn():
        padded = np.zeros((n, padded_len), dtype=w.data.dtype)
        padded[:, hop : hop + length] = w.data
        win = np.lib.stride_tricks.sliding_window_view(padded, chunk_len, axis=1)
        return np.ascontiguousarray(win[:, ::hop].transpose(0, 2, 1))

    def backward_fn(g):
        if not _needs(w):
            return (None,)
        gp = np.zeros((n, padded_len), dtype=g.dtype)
        for i in range(s):
            gp[:, i * hop : i * hop + chunk_len] += g[:, :, i]
        return (np.ascontiguousarray(gp[:, hop : hop + length]),)

    data = apply_op("segment", (w,), forward_fn, backward_fn)
    return ChunkTensor(data, chunk_len, hop, length)


def overlap_add(t):
    """Invert `segment`: sum chunks at their source offsets, trim the padding,
    divide by K/P so that overlap_add(segment(w)) == w."""
    n, chunk_len, s = t.data.shape
    hop, length = t.hop, t.original_len
    overlap = chunk_len // hop
    x = t.data

    def forward_fn():
        folded = np.zeros((n, (s - 1) * hop + chunk_len), dtype=x.data.dtype)
        for i in range(s):
            folded[:, i * hop : i * hop + chunk_len] += x.data[:, :, i]
        return np.ascontiguousarray(folded[:, hop : hop + length]) / overlap

    def backward_fn(g):
        if not _needs(x):
            return (None,)
        gp = np.zeros((n, (s - 1) * hop + chunk_len), dtype=g.dtype)
        gp[:, hop : hop + length] = g
        win = np.lib.stride_tricks.sliding_window_view(gp, chunk_len, axis=1)
        return (np.ascontiguousarray(win[:, ::hop].transpose(0, 2, 1)) / overlap,)

    return apply_op("overlap_add", (x,), forward_fn, backward_fn)


def global_layer_norm(x, scale, bias, eps=LN_EPS):
    """Normalize x (N, K, S) by the mean/variance of all N*K*S entries, then
    rescale per feature: out = (x - mu)/sqrt(var + eps) * scale + bias.

    One tape op. With xhat = (x - mu)/sqrt(var + eps) and gy = g * scale,
    the input gradient is (gy - mean(gy) - xhat * mean(gy * xhat)) / sqrt(var + eps).
    """
    if eps <= 0:
        raise ShapeError(f"global_layer_norm: eps must be positive, got {eps}")
    n = x.shape[0]
    if scale.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"global_layer_norm: scale {scale.shape} / bias {bias.shape} must be ({n},)"
        )
    xd, sd, bd = x.data, scale.data, bias.data
    inv_size = xd.dtype.type(1.0 / x.size)
    xhat = std = None

    def forward_fn():
        nonlocal xhat, std
        centered = xd - xd.sum() * inv_size
        std = np.sqrt((centered * centered).sum() * inv_size + xd.dtype.type(eps))
        xhat = centered / std
        return xhat * sd[:, None, None] + bd[:, None, None]

    def backward_fn(g):
        g_scale = (g * xhat).sum(axis=(1, 2))
        g_bias = g.sum(axis=(1, 2))
        gx = None
        if _needs(x):
            # mean(gy) = scale . g_bias / size, mean(gy * xhat) = scale . g_scale / size
            gx = g * sd[:, None, None]
            gx -= (sd @ g_bias) * inv_size
            gx -= xhat * ((sd @ g_scale) * inv_size)
            gx /= std
        return (
            gx,
            g_scale if _needs(scale) else None,
            g_bias if _needs(bias) else None,
        )

    return apply_op("global_layer_norm", (x, scale, bias), forward_fn, backward_fn)


@dataclass
class DprnnSubParams:
    """One direction of a block: BLSTM cells, FC 2H -> N, LN scale/bias."""

    lstm_fwd: LstmCellParams
    lstm_bwd: LstmCellParams
    fc_weight: Tensor  # (N, 2H)
    fc_bias: Tensor  # (N,)
    ln_scale: Tensor  # (N,)
    ln_bias: Tensor  # (N,)

    def __post_init__(self):
        h = self.lstm_fwd.hidden_size
        n = self.lstm_fwd.input_size
        if self.fc_weight.shape != (n, 2 * h):
            raise ShapeError(
                f"fc_weight {self.fc_weight.shape} must map 2H={2 * h} -> N={n}"
            )
        for name in ("fc_bias", "ln_scale", "ln_bias"):
            if getattr(self, name).shape != (n,):
                raise ShapeError(f"{name} must be ({n},), got {getattr(self, name).shape}")

    def tensors(self):
        for prefix, cell in (("lstm_fwd", self.lstm_fwd), ("lstm_bwd", self.lstm_bwd)):
            for name, t in cell.tensors():
                yield f"{prefix}.{name}", t
        yield "fc.weight", self.fc_weight
        yield "fc.bias", self.fc_bias
        yield "ln.scale", self.ln_scale
        yield "ln.bias", self.ln_bias


@dataclass
class DprnnBlockParams:
    intra: DprnnSubParams
    inter: DprnnSubParams

    def tensors(self):
        for name, t in self.intra.tensors():
            yield f"intra.{name}", t
        for name, t in self.inter.tensors():
            yield f"inter.{name}", t


def init_sub_params(rng, feature_dim, hidden, dtype=np.float32):
    fc_bound = 1.0 / np.sqrt(2 * hidden)
    return DprnnSubParams(
        lstm_fwd=nt.init_lstm_params(rng, feature_dim, hidden, dtype=dtype),
        lstm_bwd=nt.init_lstm_params(rng, feature_dim, hidden, dtype=dtype),
        fc_weight=Tensor(
            rng.uniform(-fc_bound, fc_bound, size=(feature_dim, 2 * hidden)),
            dtype=dtype,
            requires_grad=True,
        ),
        fc_bias=Tensor(np.zeros(feature_dim), dtype=dtype, requires_grad=True),
        ln_scale=Tensor(np.ones(feature_dim), dtype=dtype, requires_grad=True),
        ln_bias=Tensor(np.zeros(feature_dim), dtype=dtype, requires_grad=True),
    )


def init_block_params(rng, feature_dim, hidden, dtype=np.float32):
    return DprnnBlockParams(
        intra=init_sub_params(rng, feature_dim, hidden, dtype=dtype),
        inter=init_sub_params(rng, feature_dim, hidden, dtype=dtype),
    )


def _sub_pass(x, params, time_axis):
    """Shared intra/inter body: BLSTM along `time_axis` of x (N, K, S), FC back
    to N features, global LN, residual."""
    n, k, s = x.shape
    if time_axis == 1:  # intra: S sequences of length K
        fwd_axes, inv_axes = (1, 2, 0), (2, 0, 1)
    else:  # inter: K sequences of length S
        fwd_axes, inv_axes = (2, 1, 0), (2, 1, 0)
    seq = nt.transpose(x, fwd_axes)  # (T, B, N)
    hs = nt.bilstm_batched(seq, params.lstm_fwd, params.lstm_bwd)  # (T, B, 2H)
    proj = nt.affine(hs, params.fc_weight, params.fc_bias)  # (T, B, N)
    back = nt.transpose(proj, inv_axes)  # (N, K, S)
    normed = global_layer_norm(back, params.ln_scale, params.ln_bias)
    return nt.add(x, normed)


def intra_chunk_pass(x, params):
    """Process each of the S chunks independently along its K frames."""
    return _sub_pass(x, params, time_axis=1)


def inter_chunk_pass(x, params):
    """Process each of the K aligned frame positions along the S chunks."""
    return _sub_pass(x, params, time_axis=2)


def dprnn_stack(t, blocks):
    """Apply B blocks, each an intra pass followed by an inter pass."""
    if not blocks:
        raise ShapeError("dprnn_stack: need at least one block")
    x = t.data
    for block in blocks:
        x = intra_chunk_pass(x, block.intra)
        x = inter_chunk_pass(x, block.inter)
    return t.with_data(x)
