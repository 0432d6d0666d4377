"""The encoder's strided conv and the decoder's transposed conv, through
`tasnet.encode` and `tasnet.decode`: length formulas, oracles, adjoint
identity, dtypes, the mixture as data."""

import numpy as np
import pytest

from dpsep import numerics as nt
from dpsep import tasnet
from dpsep.numerics import ShapeError, Tensor
from reference import codec, encoder_conv, mul, tsum


def encode(sig, kernels, stride):
    return tasnet.encode(sig, codec(kernels, stride))


def decode(frames, kernels, stride, length=None):
    # `length` defaults to the transposed conv's own, (L-1)*stride + W
    if length is None:
        length = (frames.shape[2] - 1) * stride + kernels.shape[1]
    return tasnet.decode(frames, codec(kernels, stride), length, None)


def test_identity_kernel_copies_input():
    sig = Tensor(np.arange(6, dtype=np.float32).reshape(1, 6))
    out = encode(sig, Tensor([[1.0]]), stride=1)
    np.testing.assert_array_equal(out.data, sig.data)


def test_length_formula_small():
    sig = Tensor(np.ones((1, 4)))
    out = encode(sig, Tensor(np.ones((2, 2))), stride=1)
    assert out.shape == (2, 3)


def test_length_formula_sample_level_window():
    # 4 s at 8 kHz with a 2-sample window, stride 1: more than 30000 frames.
    sig = Tensor(np.zeros((1, 32000)))
    out = encode(sig, Tensor(np.ones((1, 2))), stride=1)
    assert out.shape[1] == 31999


def test_conv_matches_scalar_loop_oracle():
    # the relu of the windowed dot products, and exactly the dot products
    # through the sign trick of `encoder_conv`
    rng = np.random.default_rng(5)
    sig = rng.standard_normal((1, 20)).astype(np.float32)
    kernels = rng.standard_normal((3, 4)).astype(np.float32)
    stride = 2
    frames = (20 - 4) // stride + 1
    expected = np.zeros((3, frames), dtype=np.float32)
    for n in range(3):
        for l in range(frames):
            expected[n, l] = np.dot(kernels[n], sig[0, l * stride : l * stride + 4])
    out = encode(Tensor(sig), Tensor(kernels), stride)
    np.testing.assert_allclose(out.data, np.maximum(expected, 0), rtol=1e-6)
    assert np.any(expected < 0) and np.any(expected > 0)
    np.testing.assert_allclose(encoder_conv(Tensor(sig), Tensor(kernels), stride), expected,
                               rtol=1e-6)


def test_conv_rejects_short_input():
    with pytest.raises(ShapeError) as exc:
        encode(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 4))), stride=1)
    assert "too short" in str(exc.value)


def test_transposed_single_frame_is_weighted_kernel_sum():
    frames = Tensor([[[2.0], [3.0]]])
    kernels = Tensor([[1.0, 0.5], [0.0, 1.0]])
    out = decode(frames, kernels, stride=1)
    np.testing.assert_allclose(out.data, [[2.0, 4.0]])


def test_transposed_hand_overlap_add_oracle():
    # frozen from the hand computation: ones frames, kernel [1,1], stride 1, L=3
    frames = Tensor(np.ones((1, 1, 3)), dtype=np.float32)
    kernels = Tensor([[1.0, 1.0]])
    out = decode(frames, kernels, stride=1)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 2.0, 1.0]])
    # cut to 3 samples and zero-padded to 6, with and without a gain
    np.testing.assert_array_equal(decode(frames, kernels, 1, 3).data, [[1.0, 2.0, 2.0]])
    np.testing.assert_array_equal(decode(frames, kernels, 1, 6).data,
                                  [[1.0, 2.0, 2.0, 1.0, 0.0, 0.0]])
    scaled = tasnet.decode(frames, codec(kernels, 1), 5, np.float32(0.5))
    np.testing.assert_array_equal(scaled.data, [[0.5, 1.0, 1.0, 0.5, 0.0]])


def test_zero_frames_give_zero_waveform():
    out = decode(Tensor(np.zeros((3, 2, 5))), Tensor(np.ones((2, 3))), stride=2)
    np.testing.assert_array_equal(out.data, np.zeros((3, 11)))


@pytest.mark.parametrize("trial", range(50))
def test_adjoint_identity(trial):
    # <conv(x, k), y[c]> == <x, decode(y, k)[c]> at exact-fit sizes
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
    encoded = encoder_conv(x, k, stride)
    waves = decode(y, k, stride).data
    for c in range(sets):
        lhs = float((encoded * y.data[c]).sum())
        rhs = float((x.data[0] * waves[c]).sum())
        assert lhs == pytest.approx(rhs, rel=1e-5)


def test_transposed_length_formula():
    frames, kernels = Tensor(np.ones((3, 2, 7))), Tensor(np.ones((2, 4)))
    out = decode(frames, kernels, stride=3)
    assert out.shape == (3, (7 - 1) * 3 + 4)
    for length in (1, 5, 21, 22, 40):
        cut = decode(frames, kernels, 3, length).data
        assert cut.shape == (3, length)
        np.testing.assert_array_equal(cut[:, :22], out.data[:, :length])
        assert not np.any(cut[:, 22:])
    with pytest.raises(ShapeError):
        decode(Tensor(np.ones((2, 7))), kernels, stride=3, length=22)
    with pytest.raises(ShapeError, match="decode: kernels"):
        decode(Tensor(np.ones((3, 3, 7))), kernels, stride=3)


def test_conv1d_rejects_mixed_dtypes():
    sig = Tensor(np.ones((1, 8)), dtype=np.float32)
    kernels = Tensor(np.ones((2, 4)), dtype=np.float64)
    with pytest.raises(ShapeError, match="encode: mixed dtypes float32 vs float64"):
        encode(sig, kernels, stride=2)


def test_transposed_conv1d_rejects_mixed_dtypes():
    frames = Tensor(np.ones((1, 2, 3)), dtype=np.float32)
    kernels = Tensor(np.ones((2, 4)), dtype=np.float64)
    with pytest.raises(ShapeError, match="decode: mixed dtypes float32 vs float64"):
        decode(frames, kernels, stride=2)


def test_conv1d_signal_is_data():
    # a mixture that needs grads is rejected; backward gives the kernels'
    # alone, the windows weighted by g where the conv is positive
    rng = np.random.default_rng(6)
    sig = rng.standard_normal((1, 12))
    kernels = Tensor(rng.standard_normal((3, 4)), dtype=np.float64, requires_grad=True)
    with pytest.raises(ShapeError, match="encode: the mixture is data"):
        encode(Tensor(sig, dtype=np.float64, requires_grad=True), kernels, stride=2)
    g = rng.standard_normal((3, 5))
    with nt.GradTape() as tape:
        out = encode(Tensor(sig, dtype=np.float64), kernels, 2)
        loss = tsum(mul(out, g))
    tape.backward(loss)
    windows = np.stack([sig[0, 2 * l : 2 * l + 4] for l in range(5)])
    assert np.any(out.data == 0) and np.any(out.data > 0)
    np.testing.assert_allclose(kernels.grad, (g * (out.data > 0)) @ windows, rtol=1e-12)
