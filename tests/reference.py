"""Reference ops that no command runs, kept as test oracles.

`affine` is the per-position linear map that `tasnet.mask_head` and the FC
of `numerics.bilstm_batched` fuse into their own ops. `conv1d`, `relu`,
`reshape`, `transposed_conv1d` and `pad_last_axis` (with `slice_axis` and
`mul`) compose, op by op, what `tasnet.encode`, `mask_head` and `decode`
compute as one op each. `codec` and `encoder_conv` reach the linear part of
`encode` through `encode` itself, at any stride. `si_snr` and
`upit_loss` are the uPIT SI-SNR loss composed op by op from generic tape
ops, `sub`, `div`, `log`, `sqrt` and `tmean` among them, which
`training.upit_loss` computes as one op with the same loss bits. `div`,
`sqrt` and `tmean` also compose the unit-RMS scaling that `tasnet.separate`
runs in numpy.
"""

from itertools import permutations
from types import SimpleNamespace

import numpy as np

from dpsep import numerics as nt
from dpsep import tasnet
from dpsep.numerics import NumericsError, ShapeError, Tensor
from dpsep.numerics.tensor import _binary
from dpsep.training.loss import SI_SNR_EPS


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y, lambda x, y: (lambda g: g, lambda g: -g))


def div(a, b):
    return _binary(
        "div", a, b, lambda x, y: x / y, lambda x, y: (lambda g: g / y, lambda g: -g * x / (y * y))
    )


def log(x):
    xd = x.data
    return nt.apply_op("log", (x,), lambda: np.log(xd), lambda g: (g / xd,))


def sqrt(x):
    out = None

    def forward_fn():
        nonlocal out
        out = np.sqrt(x.data)
        return out

    return nt.apply_op("sqrt", (x,), forward_fn, lambda g: (g * 0.5 / out,))


def tmean(x, axis=None):
    total = nt.tsum(x, axis)
    # an int ratio divides exactly once, so this is 1/n correctly rounded
    return nt.mul(total, total.size / x.size)


def relu(x):
    """max(x, 0). Backward keeps the output, not x: out > 0 exactly where
    x > 0."""
    out = None

    def forward_fn():
        nonlocal out
        out = np.maximum(x.data, 0)
        return out

    return nt.apply_op("relu", (x,), forward_fn, lambda g: (g * (out > 0),))


def reshape(x, shape):
    shape, in_shape = tuple(shape), x.shape
    return nt.apply_op(
        "reshape", (x,), lambda: x.data.reshape(shape), lambda g: (g.reshape(in_shape),)
    )


def pad_last_axis(x, total):
    """Zero-pad the last axis up to length `total`."""
    cur = x.shape[-1]
    widths = [(0, 0)] * (x.data.ndim - 1) + [(0, total - cur)]
    return nt.apply_op("pad", (x,), lambda: np.pad(x.data, widths), lambda g: (g[..., :cur],))


def _windows(sig, width, stride, count):
    # (..., count, width) strided view over the last axis; read-only.
    view = np.lib.stride_tricks.sliding_window_view(sig, width, axis=-1)
    return view[..., ::stride, :][..., :count, :]


def conv1d(signal, kernels, stride):
    """signal (1, T) as data, kernels (N, W) -> (N, L), L = (T-W)//stride + 1."""
    frames = (signal.shape[1] - kernels.shape[1]) // stride + 1
    kd = kernels.data
    win = _windows(signal.data[0], kernels.shape[1], stride, frames)
    return nt.apply_op("conv1d", (signal, kernels), lambda: kd @ win.T, lambda g: (None, g @ win))


def transposed_conv1d(frames, kernels, stride):
    """frames (C, N, L), kernels (N, W) -> (C, T), T = (L-1)*stride + W."""
    num_sets, _, n_frames = frames.shape
    width = kernels.shape[1]
    t_len = (n_frames - 1) * stride + width
    fd, kd = frames.data, kernels.data

    def forward_fn():
        out = np.zeros((num_sets, t_len), dtype=fd.dtype)
        for w in range(width):
            out[:, w : w + n_frames * stride : stride] += kd[:, w] @ fd
        return out

    def backward_fn(g):
        win = _windows(g, width, stride, n_frames)  # (C, L, W)
        return kd @ win.transpose(0, 2, 1), (fd @ win).sum(axis=0)

    return nt.apply_op("transposed_conv1d", (frames, kernels), forward_fn, backward_fn)


def codec(kernels, stride):
    """A stand-in model for `tasnet.encode` and `tasnet.decode`, which read
    only its kernels and stride, so any stride can be tried, not only the
    model's W // 2."""
    return SimpleNamespace(encoder_kernels=kernels, decoder_kernels=kernels, stride=stride)


def encoder_conv(x, kernels, stride):
    """The conv of `tasnet.encode` before its relu, as an array, through
    `encode` itself: relu(z) - relu(-z) == z, and the conv with -k is minus
    the conv with k, both exactly."""
    negated = Tensor(-kernels.data)
    return (
        tasnet.encode(x, codec(kernels, stride)).data
        - tasnet.encode(x, codec(negated, stride)).data
    )


def affine(x, weight, bias=None):
    """out = weight . x (+ bias) over the last axis of x.

    x: (..., In), weight: (Out, In), bias: (Out,) or None -> (..., Out).
    """
    in_dim = x.shape[-1]
    if weight.data.ndim != 2 or weight.shape[1] != in_dim:
        raise ShapeError(
            f"affine: weight shape {weight.shape} does not match input shape {x.shape}"
        )
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(
            f"affine: bias shape {bias.shape} does not match weight shape {weight.shape}"
        )
    inputs = (x, weight) if bias is None else (x, weight, bias)
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, in_dim)
    wd = weight.data
    bd = None if bias is None else bias.data
    need_x, need_w = x.requires_grad, weight.requires_grad
    need_b = bias is not None and bias.requires_grad

    def forward_fn():
        y = x2 @ wd.T
        if bd is not None:
            y += bd
        return y.reshape(lead + (wd.shape[0],))

    def backward_fn(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = (g2 @ wd).reshape(lead + (in_dim,)) if need_x else None
        gw = g2.T @ x2 if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        return (gx, gw, gb) if bd is not None else (gx, gw)

    return nt.apply_op("affine", inputs, forward_fn, backward_fn)


def si_snr(est, ref):
    """SI-SNR in dB of Tensors est against ref along their last axis,
    broadcasting as `training.si_snr` does, composed from generic tape ops."""
    ref_zm = sub(ref, tmean(ref, -1))
    ref_energy = nt.tsum(nt.mul(ref_zm, ref_zm), -1)
    if np.any(ref_energy.data == 0.0):
        raise NumericsError("si_snr: reference has zero energy after mean removal")
    est_zm = sub(est, tmean(est, -1))
    est_energy = nt.tsum(nt.mul(est_zm, est_zm), -1)
    silent = est_energy.data == 0.0
    if np.any(silent):
        # divide the silent rows by sqrt(0 + 1) = 1 instead
        est_energy = nt.add(est_energy, silent.astype(est_energy.dtype))
    est_zm = div(est_zm, sqrt(est_energy))
    proj = div(nt.tsum(nt.mul(est_zm, ref_zm), -1), ref_energy)
    target = nt.mul(ref_zm, proj)
    residual = sub(est_zm, target)
    target_energy = nt.add(nt.tsum(nt.mul(target, target), -1), SI_SNR_EPS)
    residual_energy = nt.add(nt.tsum(nt.mul(residual, residual), -1), SI_SNR_EPS)
    ratio_log = sub(log(target_energy), log(residual_energy))
    db = nt.mul(ratio_log, 10.0 / float(np.log(10.0)))
    return reshape(db, db.shape[:-1])


def upit_loss(est, ref):
    """(loss, best_perm, mean_db) for (C, T) Tensors, by `si_snr` on the
    broadcast pair matrix and the same permutation search and weights as
    `training.upit_loss`."""
    num_sources, t_len = est.shape
    pair = si_snr(
        reshape(est, (num_sources, 1, t_len)), reshape(ref, (1, num_sources, t_len))
    )
    values = pair.data.tolist()
    best_perm, best_value = None, -np.inf
    for perm in permutations(range(num_sources)):
        value = sum(values[a][b] for a, b in enumerate(perm)) / num_sources
        if value > best_value:
            best_value, best_perm = value, perm
    weights = np.zeros(pair.shape, dtype=pair.dtype)
    weights[range(num_sources), best_perm] = -1.0 / num_sources
    return nt.tsum(nt.mul(pair, weights)), best_perm, best_value
