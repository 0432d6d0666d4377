"""Reference ops that no command runs, kept as test oracles.

`affine` is the per-position linear map that `tasnet.mask_head` and the FC
of `numerics.bilstm_batched` fuse into their own ops. `si_snr` and
`upit_loss` are the uPIT SI-SNR loss composed op by op from generic tape
ops, `sub`, `div`, `log`, `sqrt` and `tmean` among them, which
`training.upit_loss` computes as one op with the same loss bits. `div`,
`sqrt` and `tmean` also compose the unit-RMS scaling that `tasnet.separate`
runs in numpy.
"""

from itertools import permutations

import numpy as np

from dpsep import numerics as nt
from dpsep.numerics import NumericsError, ShapeError
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
    return nt.reshape(db, db.shape[:-1])


def upit_loss(est, ref):
    """(loss, best_perm, mean_db) for (C, T) Tensors, by `si_snr` on the
    broadcast pair matrix and the same permutation search and weights as
    `training.upit_loss`."""
    num_sources, t_len = est.shape
    pair = si_snr(
        nt.reshape(est, (num_sources, 1, t_len)), nt.reshape(ref, (1, num_sources, t_len))
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
