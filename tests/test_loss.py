"""SI-SNR semantics and the permutation-invariant objective."""

from itertools import permutations

import numpy as np
import pytest

import reference
from dpsep import numerics as nt
from dpsep.numerics import NumericsError, ShapeError, Tensor
from dpsep.training import mixture_si_snr, si_snr, upit_loss


def _t64(arr):
    return Tensor(np.asarray(arr), dtype=np.float64)


def _si_snr_db(est, ref):
    """SI-SNR in dB of two 1-D arrays, scored in float64."""
    return float(si_snr(np.asarray(est, dtype=np.float64), np.asarray(ref, dtype=np.float64)))


def _numpy_si_snr_oracle(est, ref, eps=1e-8):
    """Straight formula transcription, independent of si_snr."""
    est = est - est.mean()
    ref = ref - ref.mean()
    est = est / np.linalg.norm(est)
    target = (est @ ref) / (ref @ ref) * ref
    err = est - target
    return 10.0 * np.log10((target @ target + eps) / (err @ err + eps))


def test_scaled_copies_hit_the_cap_identically():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(128)
    values = [_si_snr_db(a * ref, ref) for a in (0.5, 1.0, 2.0)]
    assert values[0] == pytest.approx(values[1], abs=1e-9)
    assert values[1] == pytest.approx(values[2], abs=1e-9)
    assert values[1] > 75.0  # eps-capped maximum, ~80 dB


def test_orthogonal_estimate_is_strongly_negative():
    t = np.arange(256)
    ref = np.sin(2 * np.pi * t / 16)
    est = np.cos(2 * np.pi * t / 16)  # orthogonal over full periods
    assert _si_snr_db(est, ref) < -40.0


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
    assert _si_snr_db(est, ref) == pytest.approx(10.0, abs=1e-6)


def test_scale_invariance_property():
    rng = np.random.default_rng(2)
    for _ in range(40):
        est = rng.standard_normal(96)
        ref = rng.standard_normal(96)
        base = _si_snr_db(est, ref)
        for alpha in (1e-3, 0.1, 10.0, 1e3):
            scaled = _si_snr_db(alpha * est, ref)
            assert scaled == pytest.approx(base, abs=1e-6)


def test_zero_energy_reference_rejected():
    with pytest.raises(NumericsError):
        si_snr(np.ones(8), np.full(8, 3.0))  # constant ref


def test_matches_independent_numpy_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        est = rng.standard_normal(64)
        ref = rng.standard_normal(64)
        assert _si_snr_db(est, ref) == pytest.approx(
            _numpy_si_snr_oracle(est, ref), abs=1e-9
        )


def test_overflowing_energy_rejected():
    # float32 estimates near 1e30 are finite, but their energy is not
    est = Tensor(np.array([[1e30, -1e30, 2e30]], dtype=np.float32), requires_grad=True)
    ref = Tensor(np.array([[1.0, -1.0, 0.5]], dtype=np.float32))
    with nt.GradTape() as tape:
        with pytest.raises(NumericsError, match="non-finite signal energy"):
            upit_loss(est, ref)
    assert len(tape) == 0


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        si_snr(np.ones(4), np.ones(5))


def _pair_matrix(est, ref):
    return np.array([[_si_snr_db(e, r) for r in ref] for e in est])


def _weighted(pair, perm):
    """The loss of choosing `perm`: -1/C on its pairs and 0 elsewhere."""
    weights = np.zeros_like(pair)
    weights[range(len(perm)), perm] = -1.0 / len(perm)
    return (pair * weights).sum()


def _chosen(pair, loss):
    """The permutation whose loss has the bits of `loss`."""
    perms = permutations(range(len(pair)))
    return next(p for p in perms if _weighted(pair, p) == float(loss.data))


class TestUpit:
    def test_single_source_identity(self):
        rng = np.random.default_rng(4)
        est = rng.standard_normal((1, 32))
        ref = rng.standard_normal((1, 32))
        loss, mean_db = upit_loss(_t64(est), _t64(ref))
        assert mean_db == _si_snr_db(est[0], ref[0])
        assert float(loss.data) == -mean_db

    def test_swapped_references_pick_swap(self):
        rng = np.random.default_rng(5)
        refs = rng.standard_normal((2, 64))
        est = refs[::-1].copy()
        loss, _ = upit_loss(_t64(est), _t64(refs))
        assert float(loss.data) == _weighted(_pair_matrix(est, refs), (1, 0))
        assert float(loss.data) < -75.0  # capped maximum on both pairs

    @pytest.mark.parametrize("num_sources", [2, 3])
    def test_matches_brute_force_oracle(self, num_sources):
        rng = np.random.default_rng(6 + num_sources)
        est = rng.standard_normal((num_sources, 48))
        ref = rng.standard_normal((num_sources, 48))
        loss, mean_db = upit_loss(_t64(est), _t64(ref))
        # independent brute force over all assignments
        best = max(
            permutations(range(num_sources)),
            key=lambda p: np.mean([_si_snr_db(est[a], ref[b]) for a, b in enumerate(p)]),
        )
        best_mean = np.mean([_si_snr_db(est[a], ref[b]) for a, b in enumerate(best)])
        assert float(loss.data) == _weighted(_pair_matrix(est, ref), best)
        assert mean_db == pytest.approx(best_mean, abs=1e-9)
        assert float(loss.data) == pytest.approx(-best_mean, abs=1e-9)

    def test_mean_is_average_of_per_source(self):
        rng = np.random.default_rng(9)
        est, ref = rng.standard_normal((3, 40)), rng.standard_normal((3, 40))
        loss, mean_db = upit_loss(_t64(est), _t64(ref))
        pair = _pair_matrix(est, ref)
        perm = _chosen(pair, loss)
        assert mean_db == pytest.approx(np.mean([pair[a, b] for a, b in enumerate(perm)]))

    def test_reference_permutation_invariance(self):
        rng = np.random.default_rng(10)
        est = rng.standard_normal((3, 32))
        ref = rng.standard_normal((3, 32))
        loss_a, mean_a = upit_loss(_t64(est), _t64(ref))
        shuffle = (2, 0, 1)
        ref_shuffled = ref[list(shuffle)]
        loss_b, mean_b = upit_loss(_t64(est), _t64(ref_shuffled))
        assert float(loss_a.data) == pytest.approx(float(loss_b.data), abs=1e-12)
        assert mean_a == pytest.approx(mean_b, abs=1e-12)
        # the new assignment composes the shuffle with the old one
        perm_a = _chosen(_pair_matrix(est, ref), loss_a)
        perm_b = _chosen(_pair_matrix(est, ref_shuffled), loss_b)
        assert tuple(shuffle[b] for b in perm_b) == perm_a

    def test_too_many_sources_rejected(self):
        big = _t64(np.random.default_rng(11).standard_normal((7, 8)))
        with pytest.raises(ShapeError):
            upit_loss(big, big)

    def test_gradient_flows_only_through_best_assignment(self):
        # against the references swapped back, the identity is chosen: the
        # same pairs give the same loss and gradient bits
        rng = np.random.default_rng(12)
        refs = rng.standard_normal((2, 32))
        est = np.stack([refs[1] + 0.01 * rng.standard_normal(32), refs[0]])
        results = []
        for ref in (refs, refs[::-1]):
            x = Tensor(est, dtype=np.float64, requires_grad=True)
            with nt.GradTape() as tape:
                loss, _ = upit_loss(x, _t64(ref))
            tape.backward(loss)
            results.append((loss.data, x.grad))
        assert float(results[0][0]) == _weighted(_pair_matrix(est, refs), (1, 0))
        assert np.abs(results[0][1]).sum() > 0
        for got, expected in zip(*results):
            np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("silent", [False, True], ids=["active", "silent"])
@pytest.mark.parametrize("t_len", [2, 300])
@pytest.mark.parametrize("num_sources", [1, 2, 3])
def test_upit_loss_op_matches_op_by_op_reference(num_sources, t_len, silent, dtype):
    # one tape node with the reference composition's loss bits and, in
    # float64, its gradients; a zero-energy estimate row included
    rng = np.random.default_rng(num_sources * 1000 + t_len)
    est = rng.standard_normal((num_sources, t_len))
    ref = rng.standard_normal((num_sources, t_len))
    if silent:
        est[-1] = 0.0
    results = []
    for loss_fn in (upit_loss, reference.upit_loss):
        x = Tensor(est, dtype=dtype, requires_grad=True)
        with nt.GradTape() as tape:
            loss, *rest = loss_fn(x, Tensor(ref, dtype=dtype))
        names = [name for name, _, _ in tape._nodes]
        tape.backward(loss)
        results.append((loss.data, rest[-1], x.grad, names))
    (loss, mean_db, grad, names), (ref_loss, ref_mean_db, ref_grad, _) = results
    assert names == ["upit_loss"]
    assert loss.dtype == ref_loss.dtype == dtype
    assert loss.tobytes() == ref_loss.tobytes()
    assert mean_db == ref_mean_db
    if dtype is np.float64:
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())
    with pytest.raises(ShapeError, match="cannot require grad"):
        upit_loss(Tensor(est, dtype=dtype), Tensor(ref, dtype=dtype, requires_grad=True))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("num_sources, t_len, n", [(1, 40, 2), (2, 301, 257), (3, 64, 63)])
def test_upit_loss_scores_the_head_of_a_longer_estimate(num_sources, t_len, n, dtype):
    # against a shorter reference: the loss and gradient bits of slicing the
    # estimate to the reference's length first, with a zero gradient past it
    rng = np.random.default_rng(t_len + n)
    est = rng.standard_normal((num_sources, t_len))
    ref = Tensor(rng.standard_normal((num_sources, n)), dtype=dtype)
    results = []
    for head in (lambda x: x, lambda x: reference.slice_axis(x, 1, 0, n)):
        x = Tensor(est, dtype=dtype, requires_grad=True)
        with nt.GradTape() as tape:
            loss, mean_db = upit_loss(head(x), ref)
        tape.backward(loss)
        results.append((loss.data.tobytes(), mean_db, x.grad.tobytes()))
    assert results[0] == results[1]
    assert not x.grad[:, n:].any()


@pytest.mark.parametrize(
    "est_shape, ref_shape",
    [((2, 10), (2, 11)), ((2, 10), (3, 10)), ((2, 10), (1, 10)), ((20,), (20,))],
    ids=["longer-ref", "more-refs", "fewer-refs", "rank-1"],
)
def test_upit_loss_rejects_a_reference_that_does_not_fit(est_shape, ref_shape):
    rng = np.random.default_rng(13)
    est, ref = (Tensor(rng.standard_normal(shape)) for shape in (est_shape, ref_shape))
    with pytest.raises(ShapeError, match="upit_loss: need est"):
        upit_loss(est, ref)


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
