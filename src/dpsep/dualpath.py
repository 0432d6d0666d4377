"""Dual-path restructuring of long sequences: segmentation into 50%-overlapped
chunks, stacked intra/inter-chunk BLSTM blocks with FC + global layer norm +
residual, and the inverse overlap-add.

Chunking a length-L sequence with chunk length K ~= sqrt(2L) gives S =
ceil(2L/K)+1 chunks, so both recurrent directions see O(sqrt(L)) steps
instead of O(L).

Chunks are one plain (K, S, N) tensor, features last, from `segment` to
`overlap_add`. The intra and inter passes are one sub-pass run along axis 0
(S sequences of K steps) and axis 1 (K sequences of S steps) of it: the
BLSTM op reads and writes the chunk tensor along either axis, so no pass
copies it into another layout.

A sub-pass is two tape ops, `bilstm` and `global_layer_norm`: the FC
2H -> N runs inside the BLSTM op, which projects each step's hidden state as
it goes, so no forward forms the BLSTM's 2H-wide activations, with or
without a tape, and the residual add runs inside the norm, which takes its
variance through a small scratch. Without a tape the norm writes its output
over the BLSTM output, which nothing else reads, so an untaped sub-pass
holds two chunk-sized arrays: its input and the BLSTM output. Under a tape
the norm writes a third, since its backward reads the BLSTM output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nt
from .numerics import LstmCellParams, ShapeError, Tensor
from .numerics.tensor import apply_op, recording_tape

LN_EPS = 1e-8
_SUM_BLOCK = 1 << 16  # entries of the variance scratch


def choose_chunk_size(frame_count):
    """Chunk length K (even) for a length-L frame sequence; the hop is K/2.

    K is the smallest even integer >= sqrt(2L), keeping both chunk length and
    chunk count near sqrt(2L). Callers may override K from config; empirical
    choices in deployed models round to nicer values.
    """
    if frame_count < 4:
        raise ShapeError(f"choose_chunk_size: need at least 4 frames, got {frame_count}")
    return 2 * math.ceil(math.sqrt(2.0 * frame_count) / 2.0)


def chunk_count(frame_count, chunk_len):
    """S = ceil(2L/K) + 1, the number of 50%-overlapped chunks."""
    return -(-2 * frame_count // chunk_len) + 1


def _chunk(w, hop, s):
    """(F, L) -> the (2P, S, F) chunks of w padded with P zero frames in front
    and zeros to (S+1)*P frames in all: chunk s holds frames s*P .. s*P + 2P.

    The frames are copied straight from w.T into the chunks, so no padded
    copy of w exists: the second half of chunk j holds frames j*P .. j*P + P
    of w, and the first half is the second half of chunk j - 1."""
    f, length = w.shape
    out = np.zeros((2, hop, s, f), dtype=w.dtype)
    frames, full = w.T, length // hop
    out[1, :, :full] = frames[: full * hop].reshape(full, hop, f).transpose(1, 0, 2)
    out[1, : length - full * hop, full] = frames[full * hop :]
    out[0, :, 1:] = out[1, :, :-1]
    return out.reshape(2 * hop, s, f)


def _fold(x, length, folded=None):
    """Adjoint of `_chunk`: add the (K, S, F) chunks x at their offsets into
    `folded` (F, S+1, P), zeros if not given, and return its (F, L) view
    without the padding."""
    k, s, f = x.shape
    hop = k // 2
    if folded is None:
        folded = np.zeros((f, s + 1, hop), dtype=x.dtype)
    folded[:, :-1] += x[:hop].transpose(2, 1, 0)
    folded[:, 1:] += x[hop:].transpose(2, 1, 0)
    return folded.reshape(f, -1)[:, hop : hop + length]


def segment(w, chunk_len):
    """Split w (N, L) into the (K, S, N) chunk tensor with hop P = K/2.

    Zero-pads P frames at the front and enough at the tail that every
    original frame lands in exactly two chunks and the last chunk is full.
    """
    if chunk_len < 2 or chunk_len % 2:
        raise ShapeError(f"segment: need an even chunk length K >= 2, got {chunk_len}")
    if w.data.ndim != 2:
        raise ShapeError(f"segment: expected (N, L), got {w.shape}")
    length = w.shape[1]
    if chunk_len > 2 * length:
        raise ShapeError(
            f"segment: K={chunk_len} exceeds 2L={2 * length}; choose a smaller chunk size"
        )
    hop, s = chunk_len // 2, chunk_count(length, chunk_len)

    def backward_fn(g):
        return (_fold(g, length),)

    return apply_op("segment", (w,), lambda: _chunk(w.data, hop, s), backward_fn)


def overlap_add(x, length):
    """Invert `segment`: x (K, S, F) -> (F, L). Sums the chunks at their
    offsets, trims the padding and divides by the two chunks every frame is
    in, so that overlap_add(segment(w, K), L) == w. The separator's mask head
    does not call it: `tasnet.mask_head` fuses it with the affine before it,
    with the same bits."""
    chunk_len, s, _ = x.shape
    if chunk_len % 2 or s != chunk_count(length, chunk_len):
        raise ShapeError(f"overlap_add: chunks {x.shape} do not tile length {length}")
    hop = chunk_len // 2

    def backward_fn(g):
        return (_chunk(g, hop, s) / 2,)

    return apply_op("overlap_add", (x,), lambda: _fold(x.data, length) / 2, backward_fn)


def _centred_square_sum(a, mu):
    """((a - mu) ** 2).sum() for an array `a` and a scalar `mu` of its dtype,
    bit for bit, without a temporary of a's size when `a` is C-contiguous.

    numpy sums a C-contiguous array over one pairwise tree of its flat
    entries: it splits n entries at n // 2 rounded down to a multiple of 8,
    down to blocks of at most 128. This follows the same splits down to
    blocks of at most `_SUM_BLOCK` entries, squares each block into one
    scratch and sums it with numpy, so every add is numpy's own. Any other
    layout is squared into one temporary of a's size and summed as numpy
    sums that layout.
    """
    if not a.flags.c_contiguous:
        d = a - mu
        d *= d
        return d.sum()
    flat = a.reshape(-1)
    return _pairwise_square_sum(flat, mu, np.empty(min(flat.size, _SUM_BLOCK), a.dtype))


def _pairwise_square_sum(flat, mu, scratch):
    n = flat.size
    if n <= scratch.size:
        d = scratch[:n]
        np.subtract(flat, mu, out=d)
        d *= d
        return d.sum()
    half = n // 2
    half -= half % 8
    return _pairwise_square_sum(flat[:half], mu, scratch) + _pairwise_square_sum(
        flat[half:], mu, scratch
    )


def global_layer_norm(x, scale, bias, residual=None, *, _overwrite=False):
    """Normalize x (..., N) by the mean/variance of all its entries, then
    rescale per feature and add the residual, if any:
    out = (x - mu)/sqrt(var + LN_EPS) * scale + bias + residual.

    One tape op. With xhat = (x - mu)/sqrt(var + LN_EPS) and gy = g * scale,
    the input gradient is
    (gy - mean(gy) - xhat * mean(gy * xhat)) / sqrt(var + LN_EPS),
    and the residual's is g. The tape keeps only the scalars mu and
    sqrt(var + LN_EPS): backward rebuilds xhat from the input with the
    forward's own two ops, bit for bit.

    The output is the only full-size array the forward writes. `_overwrite`,
    passed only by `_sub_pass`, lets an op that no tape records write it
    over x's array, which the caller must not read again.
    """
    n = x.shape[-1]
    if scale.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"global_layer_norm: scale {scale.shape} / bias {bias.shape} must be ({n},)"
        )
    inputs = (x, scale, bias)
    if residual is not None:
        if residual.shape != x.shape:
            raise ShapeError(
                f"global_layer_norm: residual {residual.shape} must have the input's "
                f"shape {x.shape}"
            )
        inputs += (residual,)
    xd, sd, bd = x.data, scale.data, bias.data
    rd = None if residual is None else residual.data
    need_x = x.requires_grad
    in_place = _overwrite and recording_tape(inputs) is None
    inv_size = xd.dtype.type(1.0 / x.size)
    mu = std = None

    def forward_fn():
        nonlocal mu, std
        mu = xd.sum() * inv_size
        std = np.sqrt(_centred_square_sum(xd, mu) * inv_size + xd.dtype.type(LN_EPS))
        out = xd if in_place else np.empty_like(xd)
        np.subtract(xd, mu, out=out)
        out /= std
        out *= sd
        out += bd
        if rd is not None:
            out += rd  # addition commutes, so this is residual + gLN(x)
        return out

    def backward_fn(g):
        xhat = xd - mu
        xhat /= std
        g_scale = (g * xhat).reshape(-1, n).sum(axis=0)
        g_bias = g.reshape(-1, n).sum(axis=0)
        gx = None
        if need_x:
            # mean(gy) = scale . g_bias / size, mean(gy * xhat) = scale . g_scale / size
            gx = g * sd
            gx -= (sd @ g_bias) * inv_size
            gx -= xhat * ((sd @ g_scale) * inv_size)
            gx /= std
        return (gx, g_scale, g_bias) if rd is None else (gx, g_scale, g_bias, g)

    return apply_op("global_layer_norm", inputs, forward_fn, backward_fn)


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


def _sub_pass(x, params, axis):
    """x (K, S, N) plus the global LN of the BLSTM along `axis` of x, with
    its FC back to N features."""
    proj = nt.bilstm_batched(
        x, params.lstm_fwd, params.lstm_bwd, params.fc_weight, params.fc_bias, axis
    )  # (K, S, N)
    # nothing else reads proj, so an untaped norm writes its output over it
    return global_layer_norm(
        proj, params.ln_scale, params.ln_bias, residual=x, _overwrite=True
    )


def intra_chunk_pass(x, params):
    """Run each of the S chunks of x (K, S, N) along its K frames, plus the
    residual."""
    return _sub_pass(x, params, 0)


def inter_chunk_pass(x, params):
    """Run each of the K aligned frame positions of x (K, S, N) along the S
    chunks, plus the residual."""
    return _sub_pass(x, params, 1)


def dprnn_stack(x, blocks):
    """Apply B blocks to x (K, S, N), each an intra pass then an inter pass."""
    if not blocks:
        raise ShapeError("dprnn_stack: need at least one block")
    for block in blocks:
        x = intra_chunk_pass(x, block.intra)
        x = inter_chunk_pass(x, block.inter)
    return x
