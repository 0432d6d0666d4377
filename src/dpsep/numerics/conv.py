"""Strided 1-D convolution and its transpose, as single tape ops.

conv1d frames a (1, T) signal into L = floor((T-W)/stride)+1 windows and
dots each against N kernels; its signal is data, so only the kernels get a
gradient. transposed_conv1d is its exact adjoint, applied to each of C frame
sets, scattering weighted kernels back by overlap-add.
"""

import numpy as np

from .tensor import ShapeError, apply_op


def _windows(sig, width, stride, count):
    # (..., count, width) strided view over the last axis; read-only.
    view = np.lib.stride_tricks.sliding_window_view(sig, width, axis=-1)
    return view[..., ::stride, :][..., :count, :]


def conv1d(signal, kernels, stride):
    """signal (1, T), kernels (N, W), stride >= 1 -> (N, L). A signal with
    `requires_grad` is a ShapeError: backward gives the kernels' gradient
    alone."""
    if signal.data.ndim != 2 or signal.shape[0] != 1:
        raise ShapeError(f"conv1d: signal must be (1, T), got {signal.shape}")
    if signal.requires_grad:
        raise ShapeError("conv1d: the signal is data and takes no gradient")
    if kernels.data.ndim != 2:
        raise ShapeError(f"conv1d: kernels must be (N, W), got {kernels.shape}")
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    t_len = signal.shape[1]
    width = kernels.shape[1]
    if t_len < width:
        raise ShapeError(f"conv1d: input too short, T={t_len} < window W={width}")
    frames = (t_len - width) // stride + 1
    kd = kernels.data
    win = _windows(signal.data[0], width, stride, frames)
    return apply_op("conv1d", (signal, kernels), lambda: kd @ win.T, lambda g: (None, g @ win))


def transposed_conv1d(frames, kernels, stride):
    """frames (C, N, L), kernels (N, W), stride >= 1 -> (C, T), T = (L-1)*stride + W.

    Each of the C frame sets is decoded by the same kernels. Adjoint of conv1d:
    <conv1d(x, k), y[c]> == <x, transposed_conv1d(y, k)[c]> for every c.
    """
    if frames.data.ndim != 3:
        raise ShapeError(f"transposed_conv1d: frames must be (C, N, L), got {frames.shape}")
    if kernels.data.ndim != 2 or kernels.shape[0] != frames.shape[1]:
        raise ShapeError(
            f"transposed_conv1d: kernels {kernels.shape} do not match frames {frames.shape}"
        )
    if stride < 1:
        raise ShapeError(f"transposed_conv1d: stride must be >= 1, got {stride}")
    num_sets, _, n_frames = frames.shape
    width = kernels.shape[1]
    t_len = (n_frames - 1) * stride + width
    fd, kd = frames.data, kernels.data
    need_f, need_k = frames.requires_grad, kernels.requires_grad

    def forward_fn():
        out = np.zeros((num_sets, t_len), dtype=fd.dtype)
        for w in range(width):
            out[:, w : w + n_frames * stride : stride] += kd[:, w] @ fd
        return out

    def backward_fn(g):
        win = _windows(g, width, stride, n_frames)  # (C, L, W)
        gf = kd @ win.transpose(0, 2, 1) if need_f else None
        gk = (fd @ win).sum(axis=0) if need_k else None
        return gf, gk

    return apply_op("transposed_conv1d", (frames, kernels), forward_fn, backward_fn)
