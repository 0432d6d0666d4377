"""Scale-invariant SNR and utterance-level permutation-invariant objectives.

SI-SNR of an estimate against a reference: remove both means, project the
estimate onto the reference, and compare target vs residual energy in dB.
The estimate is rescaled to unit norm first (a mathematical no-op for a
scale-invariant ratio) so the numeric result is identical for any positive
rescaling of the input; 1e-8 is added to both energies to keep identical and
orthogonal pairs finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .. import numerics as nt
from ..numerics import NumericsError, ShapeError, Tensor

SI_SNR_EPS = 1e-8
_LOG10 = float(np.log(10.0))


def si_snr(est, ref):
    """SI-SNR in dB of est against ref along their last axis, differentiable.

    est and ref are equal-rank signals of T samples whose leading axes
    broadcast. The result has their broadcast shape without the last axis:
    two (T,) signals give a scalar, and est (C, 1, T) against ref (1, C, T)
    gives the (C, C) matrix of every pair. A zero-energy estimate is left
    unscaled, row by row.
    """
    if est.data.ndim != ref.data.ndim or est.data.ndim == 0 or est.shape[-1] != ref.shape[-1]:
        raise ShapeError(
            f"si_snr: need equal-rank signals of one length, got {est.shape} vs {ref.shape}"
        )
    ref_zm = nt.sub(ref, nt.tmean(ref, -1))
    ref_energy = nt.tsum(nt.mul(ref_zm, ref_zm), -1)
    if np.any(ref_energy.data == 0.0):
        raise NumericsError("si_snr: reference has zero energy after mean removal")
    est_zm = nt.sub(est, nt.tmean(est, -1))
    est_energy = nt.tsum(nt.mul(est_zm, est_zm), -1)
    silent = est_energy.data == 0.0
    if np.any(silent):
        # divide the silent rows by sqrt(0 + 1) = 1 instead
        est_energy = nt.add(est_energy, silent.astype(est_energy.dtype))
    est_zm = nt.div(est_zm, nt.sqrt(est_energy))
    proj = nt.div(nt.tsum(nt.mul(est_zm, ref_zm), -1), ref_energy)
    target = nt.mul(ref_zm, proj)
    residual = nt.sub(est_zm, target)
    target_energy = nt.add(nt.tsum(nt.mul(target, target), -1), SI_SNR_EPS)
    residual_energy = nt.add(nt.tsum(nt.mul(residual, residual), -1), SI_SNR_EPS)
    ratio_log = nt.sub(nt.log(target_energy), nt.log(residual_energy))
    db = nt.mul(ratio_log, 10.0 / _LOG10)
    return nt.reshape(db, db.shape[:-1])


@dataclass
class PermutationResult:
    """Best source-to-reference assignment and its mean SI-SNR."""

    best_perm: tuple  # ref index assigned to each estimate index
    mean_db: float


def upit_loss(est, ref):
    """Utterance-level PIT: maximize mean SI-SNR over all C! assignments.

    est, ref: (C, T). Returns (loss, PermutationResult) where loss is the
    differentiable scalar -max_perm mean_c si_snr(est[c], ref[perm[c]]).
    Ties break toward the lexicographically smallest permutation.
    """
    if est.shape != ref.shape or est.data.ndim != 2:
        raise ShapeError(f"upit_loss: need matching (C, T), got {est.shape} vs {ref.shape}")
    num_sources, t_len = est.shape
    if num_sources > 6:
        raise ShapeError(
            f"upit_loss: exhaustive search supports at most 6 sources, got {num_sources}"
        )
    # pair[a, b] = si_snr(est[a], ref[b]) for every pair, in one broadcast
    pair = si_snr(
        nt.reshape(est, (num_sources, 1, t_len)), nt.reshape(ref, (1, num_sources, t_len))
    )
    values = pair.data.tolist()
    best_perm = None
    best_value = -np.inf
    for perm in permutations(range(num_sources)):
        value = sum(values[a][b] for a, b in enumerate(perm)) / num_sources
        if value > best_value:
            best_value = value
            best_perm = perm
    weights = np.zeros(pair.shape, dtype=pair.dtype)
    weights[range(num_sources), best_perm] = -1.0 / num_sources
    loss = nt.tsum(nt.mul(pair, weights))
    return loss, PermutationResult(best_perm=best_perm, mean_db=best_value)


def mixture_si_snr(mixture, refs):
    """Mean SI-SNR of the unprocessed mixture against each reference (floats)."""
    mix = Tensor(np.reshape(mixture, (1, -1)), dtype=np.float64)
    return float(np.mean(si_snr(mix, Tensor(refs, dtype=np.float64)).data))


def upit_si_snri(est, refs, mixture):
    """uPIT-aligned SI-SNR improvement over the mixture, in dB, scored in float64."""
    _, result = upit_loss(Tensor(est, dtype=np.float64), Tensor(refs, dtype=np.float64))
    return result.mean_db - mixture_si_snr(mixture, refs), result
