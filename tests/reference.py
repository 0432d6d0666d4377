"""Reference ops that no command runs, kept as test oracles.

`add`, `mul`, `tsum` and `slice_axis` are generic tape ops, with numpy's
broadcasting for operands of equal rank or a 0-d scalar. Tests read other
ops out through them (as sum(out * g)), and they compose what `training`
computes as one op each: `slice_axis` then `upit_loss` is the loss over a
zero-padded segment's real samples that `training.upit_loss` scores from a
shorter reference, and an `add` chain then a `mul` is the batch mean.
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
from dpsep.training.loss import SI_SNR_EPS


def _as_tensor(x, like):
    return x if isinstance(x, Tensor) else Tensor(x, dtype=like.dtype)


def _broadcast_spec(name, a_shape, b_shape):
    """Validate numpy's broadcast rule for equal-rank operands (or a 0-d
    scalar on either side) and return the axes each operand is expanded along.
    """
    if a_shape == b_shape:
        return (), ()
    if a_shape == ():
        return ("scalar",), ()
    if b_shape == ():
        return (), ("scalar",)
    if len(a_shape) != len(b_shape):
        raise ShapeError(f"{name}: rank mismatch {a_shape} vs {b_shape} (reshape explicitly)")
    a_axes, b_axes = [], []
    for i, (da, db) in enumerate(zip(a_shape, b_shape)):
        if da == db:
            continue
        if da == 1:
            a_axes.append(i)
        elif db == 1:
            b_axes.append(i)
        else:
            raise ShapeError(f"{name}: incompatible shapes {a_shape} vs {b_shape}")
    return tuple(a_axes), tuple(b_axes)


def _unbroadcast(g, axes):
    if not axes:
        return g
    if axes == ("scalar",):
        return np.asarray(g.sum())
    return g.sum(axis=axes, keepdims=True)


def _binary(name, a, b, fwd, grad_fns):
    """`grad_fns(ad, bd)` gives, per operand, g -> its gradient before
    unbroadcasting. Backward keeps only the ones for operands needing grads."""
    if isinstance(a, Tensor):
        b = _as_tensor(b, a)
    else:
        a = _as_tensor(a, b)
    a_axes, b_axes = _broadcast_spec(name, a.shape, b.shape)
    ad, bd = a.data, b.data
    da_fn, db_fn = grad_fns(ad, bd)
    da_fn = da_fn if a.requires_grad else None
    db_fn = db_fn if b.requires_grad else None

    def backward_fn(g):
        ga = None if da_fn is None else _unbroadcast(da_fn(g), a_axes)
        gb = None if db_fn is None else _unbroadcast(db_fn(g), b_axes)
        return ga, gb

    return nt.apply_op(name, (a, b), lambda: fwd(ad, bd), backward_fn)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y, lambda x, y: (lambda g: g, lambda g: g))


def mul(a, b):
    return _binary(
        "mul", a, b, lambda x, y: x * y, lambda x, y: (lambda g: g * y, lambda g: g * x)
    )


def tsum(x, axis=None):
    """Sum over all entries (axis=None, scalar output) or over the given axes,
    which are kept with extent 1."""
    shape = x.shape

    def backward_fn(g):
        return (np.broadcast_to(g, shape),)

    if axis is None:
        return nt.apply_op("sum", (x,), lambda: np.array(x.data.sum()), backward_fn)
    return nt.apply_op("sum", (x,), lambda: x.data.sum(axis=axis, keepdims=True), backward_fn)


def slice_axis(x, axis, start, stop):
    """Contiguous slice [start:stop) along one axis."""
    idx = tuple(slice(None) if a != axis else slice(start, stop) for a in range(x.data.ndim))
    shape, dtype = x.shape, x.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype=dtype)
        gx[idx] = g
        return (gx,)

    return nt.apply_op("slice", (x,), lambda: x.data[idx].copy(), backward_fn)


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
    total = tsum(x, axis)
    # an int ratio divides exactly once, so this is 1/n correctly rounded
    return mul(total, total.size / x.size)


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
    ref_energy = tsum(mul(ref_zm, ref_zm), -1)
    if np.any(ref_energy.data == 0.0):
        raise NumericsError("si_snr: reference has zero energy after mean removal")
    est_zm = sub(est, tmean(est, -1))
    est_energy = tsum(mul(est_zm, est_zm), -1)
    silent = est_energy.data == 0.0
    if np.any(silent):
        # divide the silent rows by sqrt(0 + 1) = 1 instead
        est_energy = add(est_energy, silent.astype(est_energy.dtype))
    est_zm = div(est_zm, sqrt(est_energy))
    proj = div(tsum(mul(est_zm, ref_zm), -1), ref_energy)
    target = mul(ref_zm, proj)
    residual = sub(est_zm, target)
    target_energy = add(tsum(mul(target, target), -1), SI_SNR_EPS)
    residual_energy = add(tsum(mul(residual, residual), -1), SI_SNR_EPS)
    ratio_log = sub(log(target_energy), log(residual_energy))
    db = mul(ratio_log, 10.0 / float(np.log(10.0)))
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
    return tsum(mul(pair, weights)), best_perm, best_value
