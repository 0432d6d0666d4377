"""conv1d / transposed_conv1d: length formulas, oracles, adjoint identity."""

import numpy as np
import pytest

from dpsep import numerics as nt
from dpsep.numerics import ShapeError, Tensor


def test_identity_kernel_copies_input():
    sig = Tensor(np.arange(6, dtype=np.float32).reshape(1, 6))
    out = nt.conv1d(sig, Tensor([[1.0]]), stride=1)
    np.testing.assert_array_equal(out.data, sig.data)


def test_length_formula_small():
    sig = Tensor(np.ones((1, 4)))
    out = nt.conv1d(sig, Tensor(np.ones((2, 2))), stride=1)
    assert out.shape == (2, 3)


def test_length_formula_sample_level_window():
    # 4 s at 8 kHz with a 2-sample window, stride 1: more than 30000 frames.
    sig = Tensor(np.zeros((1, 32000)))
    out = nt.conv1d(sig, Tensor(np.ones((1, 2))), stride=1)
    assert out.shape[1] == 31999


def test_conv_matches_scalar_loop_oracle():
    rng = np.random.default_rng(5)
    sig = rng.standard_normal((1, 20)).astype(np.float32)
    kernels = rng.standard_normal((3, 4)).astype(np.float32)
    stride = 2
    frames = (20 - 4) // stride + 1
    expected = np.zeros((3, frames), dtype=np.float32)
    for n in range(3):
        for l in range(frames):
            expected[n, l] = np.dot(kernels[n], sig[0, l * stride : l * stride + 4])
    out = nt.conv1d(Tensor(sig), Tensor(kernels), stride)
    np.testing.assert_allclose(out.data, expected, rtol=1e-6)


def test_conv_rejects_short_input():
    with pytest.raises(ShapeError) as exc:
        nt.conv1d(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 4))), stride=1)
    assert "too short" in str(exc.value)


def test_transposed_single_frame_is_weighted_kernel_sum():
    frames = Tensor([[[2.0], [3.0]]])
    kernels = Tensor([[1.0, 0.5], [0.0, 1.0]])
    out = nt.transposed_conv1d(frames, kernels, stride=1)
    np.testing.assert_allclose(out.data, [[2.0, 4.0]])


def test_transposed_hand_overlap_add_oracle():
    # frozen from the hand computation: ones frames, kernel [1,1], stride 1, L=3
    frames = Tensor(np.ones((1, 1, 3)), dtype=np.float32)
    kernels = Tensor([[1.0, 1.0]])
    out = nt.transposed_conv1d(frames, kernels, stride=1)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 2.0, 1.0]])


def test_zero_frames_give_zero_waveform():
    out = nt.transposed_conv1d(
        Tensor(np.zeros((3, 2, 5))), Tensor(np.ones((2, 3))), stride=2
    )
    np.testing.assert_array_equal(out.data, np.zeros((3, 11)))


@pytest.mark.parametrize("trial", range(50))
def test_adjoint_identity(trial):
    # <conv1d(x, k), y[c]> == <x, transposed_conv1d(y, k)[c]> at exact-fit sizes
    rng = np.random.default_rng(1000 + trial)
    width = int(rng.integers(1, 9))
    stride = int(rng.integers(1, 5))
    frames = int(rng.integers(1, 40))
    n = int(rng.integers(1, 6))
    sets = int(rng.integers(1, 4))
    t_len = (frames - 1) * stride + width
    x = Tensor(rng.standard_normal((1, t_len)), dtype=np.float64)
    k = Tensor(rng.standard_normal((n, width)), dtype=np.float64)
    y = Tensor(rng.standard_normal((sets, n, frames)), dtype=np.float64)
    encoded = nt.conv1d(x, k, stride).data
    waves = nt.transposed_conv1d(y, k, stride).data
    for c in range(sets):
        lhs = float((encoded * y.data[c]).sum())
        rhs = float((x.data[0] * waves[c]).sum())
        assert lhs == pytest.approx(rhs, rel=1e-5)


def test_transposed_length_formula():
    out = nt.transposed_conv1d(Tensor(np.ones((3, 2, 7))), Tensor(np.ones((2, 4))), stride=3)
    assert out.shape == (3, (7 - 1) * 3 + 4)
    with pytest.raises(ShapeError):
        nt.transposed_conv1d(Tensor(np.ones((2, 7))), Tensor(np.ones((2, 4))), stride=3)


def test_conv1d_rejects_mixed_dtypes():
    sig = Tensor(np.ones((1, 8)), dtype=np.float32)
    kernels = Tensor(np.ones((2, 4)), dtype=np.float64)
    with pytest.raises(ShapeError, match="conv1d: mixed dtypes float32 vs float64"):
        nt.conv1d(sig, kernels, stride=2)


def test_transposed_conv1d_rejects_mixed_dtypes():
    frames = Tensor(np.ones((1, 2, 3)), dtype=np.float32)
    kernels = Tensor(np.ones((2, 4)), dtype=np.float64)
    with pytest.raises(ShapeError, match="transposed_conv1d: mixed dtypes float32 vs float64"):
        nt.transposed_conv1d(frames, kernels, stride=2)
