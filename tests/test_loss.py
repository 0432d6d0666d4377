"""SI-SNR semantics and the permutation-invariant objective."""

from itertools import permutations

import numpy as np
import pytest

from dpsep import numerics as nt
from dpsep.numerics import NumericsError, ShapeError, Tensor
from dpsep.training import mixture_si_snr, si_snr, upit_loss


def _t64(arr):
    return Tensor(np.asarray(arr), dtype=np.float64)


def _si_snr_db(est, ref):
    """SI-SNR in dB of two 1-D arrays, scored in float64."""
    return float(si_snr(_t64(est), _t64(ref)).data)


def _numpy_si_snr_oracle(est, ref, eps=1e-8):
    """Straight formula transcription, independent of the tape ops."""
    est = est - est.mean()
    ref = ref - ref.mean()
    est = est / np.linalg.norm(est)
    target = (est @ ref) / (ref @ ref) * ref
    err = est - target
    return 10.0 * np.log10((target @ target + eps) / (err @ err + eps))


def test_scaled_copies_hit_the_cap_identically():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(128)
    values = [float(si_snr(_t64(a * ref), _t64(ref)).data) for a in (0.5, 1.0, 2.0)]
    assert values[0] == pytest.approx(values[1], abs=1e-9)
    assert values[1] == pytest.approx(values[2], abs=1e-9)
    assert values[1] > 75.0  # eps-capped maximum, ~80 dB


def test_orthogonal_estimate_is_strongly_negative():
    t = np.arange(256)
    ref = np.sin(2 * np.pi * t / 16)
    est = np.cos(2 * np.pi * t / 16)  # orthogonal over full periods
    assert float(si_snr(_t64(est), _t64(ref)).data) < -40.0


def test_constructed_ten_db_pair():
    # build noise orthogonal to ref with energy ratio 10 after mean removal
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(200)
    ref -= ref.mean()
    noise = rng.standard_normal(200)
    noise -= noise.mean()
    noise -= (noise @ ref) / (ref @ ref) * ref  # orthogonalize
    noise *= np.linalg.norm(ref) / (np.linalg.norm(noise) * np.sqrt(10.0))
    est = ref + noise
    assert float(si_snr(_t64(est), _t64(ref)).data) == pytest.approx(10.0, abs=1e-6)


def test_scale_invariance_property():
    rng = np.random.default_rng(2)
    for _ in range(40):
        est = rng.standard_normal(96)
        ref = rng.standard_normal(96)
        base = float(si_snr(_t64(est), _t64(ref)).data)
        for alpha in (1e-3, 0.1, 10.0, 1e3):
            scaled = float(si_snr(_t64(alpha * est), _t64(ref)).data)
            assert scaled == pytest.approx(base, abs=1e-6)


def test_zero_energy_reference_rejected():
    with pytest.raises(NumericsError):
        si_snr(_t64(np.ones(8)), _t64(np.full(8, 3.0)))  # constant ref


def test_matches_independent_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        est = rng.standard_normal(64)
        ref = rng.standard_normal(64)
        assert _si_snr_db(est, ref) == pytest.approx(
            _numpy_si_snr_oracle(est, ref), abs=1e-9
        )


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        si_snr(_t64(np.ones(4)), _t64(np.ones(5)))


class TestUpit:
    def test_single_source_identity(self):
        rng = np.random.default_rng(4)
        est = rng.standard_normal((1, 32))
        ref = rng.standard_normal((1, 32))
        loss, result = upit_loss(_t64(est), _t64(ref))
        assert result.best_perm == (0,)
        assert float(loss.data) == pytest.approx(-_si_snr_db(est[0], ref[0]), abs=1e-9)

    def test_swapped_references_pick_swap(self):
        rng = np.random.default_rng(5)
        refs = rng.standard_normal((2, 64))
        est = refs[::-1].copy()
        loss, result = upit_loss(_t64(est), _t64(refs))
        assert result.best_perm == (1, 0)
        assert float(loss.data) < -75.0  # capped maximum on both pairs

    @pytest.mark.parametrize("num_sources", [2, 3])
    def test_matches_brute_force_oracle(self, num_sources):
        rng = np.random.default_rng(6 + num_sources)
        est = rng.standard_normal((num_sources, 48))
        ref = rng.standard_normal((num_sources, 48))
        loss, result = upit_loss(_t64(est), _t64(ref))
        # independent brute force over all assignments
        best = max(
            permutations(range(num_sources)),
            key=lambda p: np.mean([_si_snr_db(est[a], ref[b]) for a, b in enumerate(p)]),
        )
        best_mean = np.mean([_si_snr_db(est[a], ref[b]) for a, b in enumerate(best)])
        assert result.best_perm == best
        assert result.mean_db == pytest.approx(best_mean, abs=1e-9)
        assert float(loss.data) == pytest.approx(-best_mean, abs=1e-9)

    def test_mean_is_average_of_per_source(self):
        rng = np.random.default_rng(9)
        est, ref = rng.standard_normal((3, 40)), rng.standard_normal((3, 40))
        loss, result = upit_loss(_t64(est), _t64(ref))
        per_source = [_si_snr_db(est[a], ref[b]) for a, b in enumerate(result.best_perm)]
        assert result.mean_db == pytest.approx(np.mean(per_source))
        assert sorted(result.best_perm) == [0, 1, 2]

    def test_reference_permutation_invariance(self):
        rng = np.random.default_rng(10)
        est = rng.standard_normal((3, 32))
        ref = rng.standard_normal((3, 32))
        loss_a, res_a = upit_loss(_t64(est), _t64(ref))
        shuffle = (2, 0, 1)
        ref_shuffled = ref[list(shuffle)]
        loss_b, res_b = upit_loss(_t64(est), _t64(ref_shuffled))
        assert float(loss_a.data) == pytest.approx(float(loss_b.data), abs=1e-12)
        # the new assignment composes the shuffle with the old one
        recovered = tuple(shuffle[b] for b in res_b.best_perm)
        assert recovered == res_a.best_perm

    def test_too_many_sources_rejected(self):
        big = _t64(np.random.default_rng(11).standard_normal((7, 8)))
        with pytest.raises(ShapeError):
            upit_loss(big, big)

    def test_gradient_flows_only_through_best_assignment(self):
        rng = np.random.default_rng(12)
        refs = rng.standard_normal((2, 32))
        est = np.stack([refs[1] + 0.01 * rng.standard_normal(32), refs[0]])
        x = Tensor(est, dtype=np.float64, requires_grad=True)
        ref_t = _t64(refs)
        with nt.GradTape() as tape:
            loss, result = upit_loss(x, ref_t)
        tape.backward(loss)
        assert result.best_perm == (1, 0)
        assert np.abs(x.grad).sum() > 0


@pytest.mark.parametrize("num_refs", [2, 3])
def test_mixture_si_snr_is_the_mean_over_references(num_refs):
    # one broadcast si_snr call gives the same bits as one call per reference
    rng = np.random.default_rng(30 + num_refs)
    refs = rng.standard_normal((num_refs, 1200)).astype(np.float32)
    mixture = (refs.sum(axis=0) + 0.3 * rng.standard_normal(1200)).astype(np.float32)
    refs64 = refs.astype(np.float64)
    expected = float(
        np.mean([_si_snr_db(mixture.astype(np.float64), refs64[c]) for c in range(num_refs)])
    )
    assert mixture_si_snr(mixture, refs) == expected
    assert mixture_si_snr(mixture.reshape(1, -1), refs) == expected
