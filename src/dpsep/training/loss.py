"""Scale-invariant SNR and the utterance-level permutation-invariant loss.

SI-SNR of an estimate against a reference: remove both means, project the
estimate onto the reference, and compare target vs residual energy in dB.
The estimate is rescaled to unit norm first (a mathematical no-op for a
scale-invariant ratio) so the numeric result is identical for any positive
rescaling of the input; 1e-8 is added to both energies to keep identical and
orthogonal pairs finite.

`si_snr` is the one SI-SNR: a numpy function, which scoring calls directly.
`upit_loss` is one tape op whose forward scores every estimate against every
reference with it and whose backward is the SI-SNR gradient of the chosen
pairs, derived by hand.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from ..numerics import NumericsError, ShapeError, apply_op

SI_SNR_EPS = 1e-8
_DB_PER_LOG = 10.0 / float(np.log(10.0))  # dB per unit of natural log


def _si_snr_terms(est, ref):
    """The arrays SI-SNR is made of, each sum over the last axis kept with
    extent 1: est's zero-mean rows, their norm and the rows scaled to unit
    norm, ref's zero-mean rows and their energy, the target and the residual,
    and the target and residual energies plus SI_SNR_EPS."""
    dtype = np.result_type(est, ref).type
    inv_len = dtype(1 / est.shape[-1])
    ref_zm = ref - ref.sum(-1, keepdims=True) * inv_len
    ref_energy = (ref_zm * ref_zm).sum(-1, keepdims=True)
    if np.any(ref_energy == 0.0):
        raise NumericsError("si_snr: reference has zero energy after mean removal")
    est_zm = est - est.sum(-1, keepdims=True) * inv_len
    norm = (est_zm * est_zm).sum(-1, keepdims=True)
    if not (np.isfinite(ref_energy).all() and np.isfinite(norm).all()):
        # every later term is bounded once both energies are finite
        raise NumericsError("si_snr: non-finite signal energy")
    norm[norm == 0.0] = 1  # a zero-energy row is divided by sqrt(0 + 1) = 1
    norm = np.sqrt(norm)
    unit = est_zm / norm
    proj = (unit * ref_zm).sum(-1, keepdims=True) / ref_energy
    target = ref_zm * proj
    residual = unit - target
    eps = dtype(SI_SNR_EPS)
    target_energy = (target * target).sum(-1, keepdims=True) + eps
    residual_energy = (residual * residual).sum(-1, keepdims=True) + eps
    return est_zm, norm, unit, ref_zm, ref_energy, target, residual, target_energy, residual_energy


def si_snr(est, ref):
    """SI-SNR in dB of est against ref along their last axis.

    est and ref are float arrays of equal rank and T samples whose leading
    axes broadcast. The result has their broadcast shape without the last
    axis: two (T,) signals give a 0-d array, and est (C, 1, T) against ref
    (1, C, T) gives the (C, C) matrix of every pair. A zero-energy estimate
    is left unscaled, row by row; a zero-energy reference is a NumericsError.
    """
    if est.ndim != ref.ndim or est.ndim == 0 or est.shape[-1] != ref.shape[-1]:
        raise ShapeError(
            f"si_snr: need equal-rank signals of one length, got {est.shape} vs {ref.shape}"
        )
    *_, target_energy, residual_energy = _si_snr_terms(est, ref)
    db_per_log = target_energy.dtype.type(_DB_PER_LOG)
    db = (np.log(target_energy) - np.log(residual_energy)) * db_per_log
    return db.reshape(db.shape[:-1])


def _best_assignment(est, ref):
    """(pair, perm, mean_db) for (C, T) arrays: the (C, C) SI-SNR matrix,
    the ref index assigned to each estimate by the first permutation, in
    lexicographic order, with the highest mean SI-SNR, and that mean."""
    if est.shape != ref.shape or est.ndim != 2:
        raise ShapeError(f"upit_loss: need matching (C, T), got {est.shape} vs {ref.shape}")
    num_sources, t_len = est.shape
    if num_sources > 6:
        raise ShapeError(
            f"upit_loss: exhaustive search supports at most 6 sources, got {num_sources}"
        )
    pair = si_snr(est.reshape(num_sources, 1, t_len), ref.reshape(1, num_sources, t_len))
    values = pair.tolist()
    best_perm = None
    best_value = -np.inf
    for perm in permutations(range(num_sources)):
        value = sum(values[a][b] for a, b in enumerate(perm)) / num_sources
        if value > best_value:
            best_value = value
            best_perm = perm
    return pair, best_perm, best_value


def _si_snr_grad(est, ref, g_db):
    """The gradient in est of sum(g_db * si_snr(est, ref)) for (C, T) arrays
    est and ref and a scalar g_db, with the terms rebuilt from the inputs.

    The chain runs backward through si_snr's own terms, with the operations
    the backward rules of the generic ops in `tests/reference.py` would use,
    composed as its op-by-op `upit_loss`: the two energies, the target
    and residual, the projection onto the zero-mean reference, the scaling to
    unit norm and the mean removal. A zero-energy row has a zero unit
    estimate, target and residual, so its gradient is zero.
    """
    est_zm, norm, unit, ref_zm, ref_energy, target, residual, target_energy, residual_energy = (
        _si_snr_terms(est, ref)
    )
    g_log = g_db * est_zm.dtype.type(_DB_PER_LOG)
    g_residual = residual * (2 * g_log / -residual_energy)
    g_target = target * (2 * g_log / target_energy) - g_residual
    g_unit = g_residual + ref_zm * ((g_target * ref_zm).sum(-1, keepdims=True) / ref_energy)
    g_energy = (-g_unit * est_zm / (norm * norm)).sum(-1, keepdims=True) * 0.5 / norm
    g_zm = g_unit / norm
    # the energy squares est_zm, so est_zm's gradient gets two adds; one at a
    # time, as the reference's `mul` of est_zm by itself gives them, keeps the bits
    g_zm += g_energy * est_zm
    g_zm += g_energy * est_zm
    return g_zm - g_zm.sum(-1, keepdims=True) * est_zm.dtype.type(1 / est.shape[-1])


def upit_loss(est, ref):
    """Utterance-level PIT: maximize mean SI-SNR over all C! assignments.

    est: a (C, T) Tensor; ref: a (C, n) Tensor of its dtype with n <= T, the
    real samples of a zero-padded segment, against which est[:, :n] is
    scored. Returns (loss, mean_db): the scalar
    -max_perm mean_c si_snr(est[c, :n], ref[perm[c]]) and that maximum as a
    float. Ties break toward the lexicographically smallest permutation.

    One tape op, differentiable in est; ref is a constant, and a ref that
    requires grad is a ShapeError. The loss is sum(pair * weights) over the
    (C, C) pair matrix, with -1/C on the chosen pairs. Backward is the
    SI-SNR gradient of the C chosen pairs, rebuilt from est[:, :n] and ref,
    so the tape keeps no (C, C, T) array; past n it is zero.
    """
    if ref.requires_grad:
        raise ShapeError("upit_loss: ref is a constant of the loss and cannot require grad")
    if not (est.data.ndim == ref.data.ndim == 2 and ref.shape[0] == est.shape[0]
            and ref.shape[1] <= est.shape[1]):
        raise ShapeError(
            f"upit_loss: need est (C, T) and ref (C, n), n <= T, got {est.shape} vs {ref.shape}"
        )
    t_len, n = est.shape[1], ref.shape[1]
    ed, rd = est.data[:, :n], ref.data
    perm = mean_db = None

    def forward_fn():
        nonlocal perm, mean_db
        pair, perm, mean_db = _best_assignment(ed, rd)
        weights = np.zeros(pair.shape, dtype=pair.dtype)
        weights[range(len(perm)), perm] = -1.0 / len(perm)
        return np.array((pair * weights).sum())

    def backward_fn(g):
        g_db = g * ed.dtype.type(-1.0 / len(perm))
        g_est = _si_snr_grad(ed, rd[list(perm)], g_db)
        if n < t_len:
            g_est = np.pad(g_est, ((0, 0), (0, t_len - n)))
        return g_est, None

    loss = apply_op("upit_loss", (est, ref), forward_fn, backward_fn)
    return loss, mean_db


def mixture_si_snr(mixture, refs):
    """Mean SI-SNR of the unprocessed mixture against each reference, scored
    in float64 (floats)."""
    mix = np.reshape(np.asarray(mixture, dtype=np.float64), (1, -1))
    return float(np.mean(si_snr(mix, np.asarray(refs, dtype=np.float64))))


def upit_si_snri(est, refs, mixture):
    """uPIT-aligned SI-SNR improvement over the mixture, in dB, scored in
    float64 (a float)."""
    est64, refs64 = (np.asarray(x, dtype=np.float64) for x in (est, refs))
    _, _, mean_db = _best_assignment(est64, refs64)
    return mean_db - mixture_si_snr(mixture, refs)
