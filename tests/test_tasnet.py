"""Encoder/masker/decoder assembly: shapes, masks, adjointness, checkpoints."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from dpsep import dualpath as dp
from dpsep import numerics as nt
from dpsep import tasnet
from dpsep.config import Geometry
from dpsep.numerics import GradTape, NumericsError, ShapeError, Tensor
from reference import (
    affine,
    codec,
    conv1d,
    encoder_conv,
    mul,
    relu,
    reshape,
    slice_axis,
    transposed_conv1d,
    tsum,
)


def tiny_model(dtype=np.float32, seed=3, **overrides):
    kwargs = dict(
        num_filters=4, window=4, num_sources=2, num_blocks=1, hidden=3,
        chunk_len=6, sample_rate=8000, seed=seed, dtype=dtype,
    )
    kwargs.update(overrides)
    return tasnet.build_model(**kwargs)


def test_encode_single_frame():
    model = tiny_model()
    out = tasnet.encode(Tensor(np.ones((1, 4)), dtype=np.float32), model)
    assert out.shape == (4, 1)


def test_encode_frame_count_at_sample_level():
    # 4 s at 8 kHz, 2-sample window: the representation exceeds 30000 frames
    assert Geometry(window=2).frames(32000) == 31999
    # `samples` is the least input of a frame count, for every window
    for window in (1, 2, 3, 8, 16):
        geometry = Geometry(window=window)
        for frames in (1, 2, 5, 64):
            least = geometry.samples(frames)
            assert geometry.frames(least) == frames
            assert least == window or geometry.frames(least - 1) == frames - 1


def test_encoder_hop_is_half_the_window_and_the_model_stride():
    assert [Geometry(window=w).stride for w in (1, 2, 3, 8, 16)] == [1, 1, 1, 4, 8]
    for window in (1, 2, 4, 8):
        assert tiny_model(window=window).stride == Geometry(window=window).stride


def test_encode_relu_kills_negative_kernels():
    model = tiny_model()
    model.encoder_kernels.data = -np.abs(model.encoder_kernels.data) - 0.1
    mixture = np.abs(np.random.default_rng(0).standard_normal((1, 24))) + 0.1
    out = tasnet.encode(Tensor(mixture, dtype=np.float32), model)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_mask_shapes_and_nonnegativity():
    model = tiny_model()
    rep = tasnet.encode(Tensor(np.random.default_rng(1).standard_normal((1, 40)).astype(np.float32)), model)
    masks = tasnet.estimate_masks(rep, model)
    assert masks.shape == (2, 4, rep.shape[1])
    assert np.all(masks.data >= 0)


def test_estimate_masks_matches_straight_line_oracle():
    # tiny config: N=4, L=20, C=2, B=1, H=3; same ops composed by hand
    model = tiny_model()
    rep = Tensor(
        np.abs(np.random.default_rng(2).standard_normal((4, 20))).astype(np.float32)
    )
    got = tasnet.estimate_masks(rep, model).data

    hidden = dp.dprnn_stack(dp.segment(rep, model.chunk_len), model.blocks)  # (K, S, N)
    x = affine(hidden, model.mask_weight, model.mask_bias)  # (K, S, C*N)
    maps = dp.overlap_add(x, 20)
    expected = reshape(relu(maps), (2, 4, 20)).data
    np.testing.assert_array_equal(got, expected)


def test_estimate_masks_records_no_transpose():
    # chunks stay (K, S, N) through the head and through both passes of
    # every block
    model = tiny_model(num_blocks=2)
    rep = Tensor(np.abs(np.random.default_rng(2).standard_normal((4, 20))).astype(np.float32),
                 requires_grad=True)
    with GradTape() as tape:
        tasnet.estimate_masks(rep, model)
    names = [name for name, _, _ in tape._nodes]
    sub_pass = ["bilstm", "global_layer_norm"]
    assert names == ["segment"] + sub_pass * 2 * 2 + ["mask_head"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("sources", [2, 3])
def test_mask_head_is_affine_then_overlap_add_bit_for_bit(dtype, sources):
    # then relu and reshape to (C, N, L): outputs and the gradients of x,
    # weight and bias, for several K and S
    rng = np.random.default_rng(40)
    n = 8
    for length, chunk_len in ((5, 2), (20, 6), (37, 10), (64, 16), (300, 46)):
        s = dp.chunk_count(length, chunk_len)
        arrays = [rng.standard_normal(shape) for shape in
                  ((chunk_len, s, n), (sources * n, n), (sources * n,))]
        g = Tensor(rng.standard_normal((sources, n, length)), dtype=dtype)
        results = []
        for fused in (True, False):
            x, weight, bias = (Tensor(a, dtype=dtype, requires_grad=True) for a in arrays)
            with GradTape() as tape:
                if fused:
                    out = tasnet.mask_head(x, weight, bias, length)
                else:
                    maps = dp.overlap_add(affine(x, weight, bias), length)
                    out = reshape(relu(maps), (sources, n, length))
                loss = tsum(mul(out, g))
            tape.backward(loss)
            results.append([out.data, x.grad, weight.grad, bias.grad])
        for got, expected in zip(*results):
            np.testing.assert_array_equal(got, expected)


def test_mask_head_records_one_node_and_checks_shapes():
    rng = np.random.default_rng(41)
    x = Tensor(rng.standard_normal((6, 5, 4)), dtype=np.float32, requires_grad=True)
    weight = Tensor(rng.standard_normal((8, 4)), dtype=np.float32)
    bias = Tensor(np.zeros(8), dtype=np.float32)
    with GradTape() as tape:
        masks = tasnet.mask_head(x, weight, bias, 12)
    assert masks.shape == (2, 4, 12) and np.all(masks.data >= 0)
    assert [name for name, _, _ in tape._nodes] == ["mask_head"]
    with pytest.raises(ShapeError, match="do not tile length"):
        tasnet.mask_head(x, weight, bias, 20)
    with pytest.raises(ShapeError, match="mask_head: weight"):
        tasnet.mask_head(x, Tensor(np.ones((7, 4)), dtype=np.float32),
                         Tensor(np.zeros(7), dtype=np.float32), 12)
    with pytest.raises(ShapeError, match="mask_head: mixed dtypes"):
        tasnet.mask_head(x, Tensor(np.ones((8, 4)), dtype=np.float64), bias, 12)


def test_untaped_mask_head_holds_little_beyond_its_fold_buffer():
    # with C = 2 the (C*N, S+1, P) fold buffer is about one (K, S, N) chunk
    # tensor; the affine runs on blocks of 8 chunk rows, so no (K, S, N)
    # scratch joins it
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((256, 33, 64)))
    weight, bias = Tensor(rng.standard_normal((128, 64))), Tensor(rng.standard_normal(128))
    tracemalloc.start()
    try:
        out = tasnet.mask_head(x, weight, bias, 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (2, 64, 4096)
    assert peak < 1.2 * x.data.nbytes


def test_untaped_separate_peaks_below_2_3_chunk_tensors():
    # the largest arrays of a forward are the (K, S, N) chunk tensor and its
    # like; each stage holds at most two of them, since the encoder output,
    # half of one, is freed once chunked and encoded again for apply_masks
    model = tiny_model(num_filters=64, hidden=16, chunk_len=90)
    mixture = Tensor(np.random.default_rng(42).standard_normal((1, 16000)), dtype=np.float32)
    frames = model.frames(mixture.shape[1])
    chunk_bytes = model.chunk_len * dp.chunk_count(frames, model.chunk_len) * 64 * 4
    tracemalloc.start()
    try:
        est = tasnet.separate(mixture, model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.shape == (2, 16000)
    assert peak < 2.3 * chunk_bytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_separate_has_the_same_bits_with_and_without_a_tape(dtype):
    # untaped, each sub-pass's norm writes over its BLSTM output, the mask
    # head folds in row blocks, the mixture is encoded twice and the masks
    # are applied in place; none may move a bit or touch the caller's
    # arrays. The (46, 106, 32) chunk tensor outgrows the variance scratch.
    model = tiny_model(dtype=dtype, num_filters=32, hidden=8, num_blocks=2, chunk_len=46)
    data = np.random.default_rng(44).standard_normal((1, 4800))
    frames = model.frames(data.shape[1])
    assert model.chunk_len * dp.chunk_count(frames, model.chunk_len) * 32 > dp._SUM_BLOCK
    mixture = Tensor(data, dtype=dtype)
    before = [mixture.data.copy()] + [t.data.copy() for t in model.parameter_tensors()]
    untaped = tasnet.separate(mixture, model)
    with GradTape() as tape:
        taped = tasnet.separate(mixture, model)
    assert len(tape) > 0 and taped.requires_grad and not untaped.requires_grad
    np.testing.assert_array_equal(untaped.data, taped.data)
    after = [mixture.data, *(t.data for t in model.parameter_tensors())]
    for old, new in zip(before, after):
        np.testing.assert_array_equal(old, new)


def test_apply_masks_identity_and_zero():
    model = tiny_model()
    rep = Tensor(np.random.default_rng(3).standard_normal((4, 10)).astype(np.float32))
    out = tasnet.apply_masks(rep, Tensor(np.ones((2, 4, 10)), dtype=np.float32))
    np.testing.assert_array_equal(out.data[0], rep.data)
    np.testing.assert_array_equal(out.data[1], rep.data)
    np.testing.assert_array_equal(
        tasnet.apply_masks(rep, Tensor(np.zeros((2, 4, 10)), dtype=np.float32)).data,
        np.zeros((2, 4, 10)),
    )


def test_apply_masks_leaves_its_arguments_unchanged():
    # only separate lets the product overwrite the masks
    rng = np.random.default_rng(4)
    rep, masks = Tensor(rng.standard_normal((4, 10))), Tensor(rng.random((2, 4, 10)))
    before = rep.data.copy(), masks.data.copy()
    out = tasnet.apply_masks(rep, masks)
    np.testing.assert_array_equal(out.data, rep.data * masks.data)
    np.testing.assert_array_equal(rep.data, before[0])
    np.testing.assert_array_equal(masks.data, before[1])
    assert not np.shares_memory(out.data, masks.data)


def test_apply_masks_pointwise_oracle():
    rng = np.random.default_rng(4)
    rep = rng.standard_normal((4, 7)).astype(np.float32)
    masks = np.abs(rng.standard_normal((2, 4, 7))).astype(np.float32)
    out = tasnet.apply_masks(Tensor(rep), Tensor(masks))
    np.testing.assert_allclose(out.data, masks * rep[None], rtol=1e-6)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_masks_is_one_op_with_the_broadcast_mul_bits(dtype):
    # values and both gradients equal those of reshape + broadcast mul
    rng = np.random.default_rng(5)
    arrays = rng.standard_normal((4, 9)), rng.random((3, 4, 9))
    g = Tensor(rng.standard_normal((3, 4, 9)), dtype=dtype)
    results = []
    for fused in (True, False):
        rep, masks = (Tensor(a, dtype=dtype, requires_grad=True) for a in arrays)
        with GradTape() as tape:
            if fused:
                out = tasnet.apply_masks(rep, masks, _overwrite=True)  # taped: no overwrite
                assert [name for name, _, _ in tape._nodes] == ["apply_masks"]
            else:
                out = mul(reshape(rep, (1, 4, 9)), masks)
            loss = tsum(mul(out, g))
        tape.backward(loss)
        results.append([out.data, rep.grad, masks.grad])
    for got, expected in zip(*results):
        assert got.tobytes() == expected.tobytes()


def test_apply_masks_shape_error():
    with pytest.raises(ShapeError):
        tasnet.apply_masks(Tensor(np.ones((4, 7))), Tensor(np.ones((2, 4, 8))))


def test_decode_single_frame_single_source():
    model = tiny_model(num_sources=1)
    masked = Tensor(np.ones((1, 4, 1)), dtype=np.float32)
    out = tasnet.decode(masked, model, 4, None)
    assert out.shape == (1, 4)
    np.testing.assert_allclose(out.data[0], model.decoder_kernels.data.sum(axis=0), rtol=1e-6)


def test_decode_zero_input_zero_waveform():
    model = tiny_model()
    out = tasnet.decode(Tensor(np.zeros((2, 4, 9)), dtype=np.float32), model, 20, None)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_is_one_op_with_the_conv_and_relu_bits(dtype):
    # values and the kernels' gradient equal those of conv1d then relu
    model = tiny_model(dtype=dtype, window=8)
    rng = np.random.default_rng(6)
    for t_len in (8, 9, 31, 400):
        mix = Tensor(rng.standard_normal((1, t_len)), dtype=dtype)
        frames = model.frames(t_len)
        g = Tensor(rng.standard_normal((4, frames)), dtype=dtype)
        results = []
        for fused in (True, False):
            model.encoder_kernels.zero_grad()
            with GradTape() as tape:
                if fused:
                    out = tasnet.encode(mix, model)
                    assert [name for name, _, _ in tape._nodes] == ["encode"]
                else:
                    out = relu(conv1d(mix, model.encoder_kernels, model.stride))
                loss = tsum(mul(out, g))
            tape.backward(loss)
            results.append([out.data, model.encoder_kernels.grad])
        for got, expected in zip(*results):
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_is_one_op_with_the_transposed_conv_cut_pad_and_gain_bits(dtype):
    # values and both gradients equal those of transposed_conv1d, then slice
    # or pad to the length, then mul by the gain; W=8 gives 36 samples
    from reference import pad_last_axis

    model = tiny_model(dtype=dtype, window=8)
    rng = np.random.default_rng(7)
    frames = rng.standard_normal((2, 4, 8))
    for length in (1, 5, 35, 36, 37, 50):
        for gain in (None, dtype(0.3)):
            g = Tensor(rng.standard_normal((2, length)), dtype=dtype)
            results = []
            for fused in (True, False):
                masked = Tensor(frames, dtype=dtype, requires_grad=True)
                model.decoder_kernels.zero_grad()
                with GradTape() as tape:
                    if fused:
                        out = tasnet.decode(masked, model, length, gain)
                        assert [name for name, _, _ in tape._nodes] == ["decode"]
                    else:
                        out = transposed_conv1d(masked, model.decoder_kernels, model.stride)
                        if length < 36:
                            out = slice_axis(out, 1, 0, length)
                        elif length > 36:
                            out = pad_last_axis(out, length)
                        if gain is not None:
                            out = mul(out, gain)
                    loss = tsum(mul(out, g))
                tape.backward(loss)
                results.append([out.data, masked.grad, model.decoder_kernels.grad])
            for got, expected in zip(*results):
                assert got.tobytes() == expected.tobytes(), (length, gain)


def test_encode_decode_adjoint_linear_parts():
    # tie decoder to encoder and check <conv(x), y> == <x, decode(y)>, the
    # decoder zero-padding its 34 samples to the 35 of x
    model = tiny_model()
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((1, 35)), dtype=np.float64)
    kernels = Tensor(model.encoder_kernels.data, dtype=np.float64)
    frames = (35 - model.window) // model.stride + 1
    y = Tensor(rng.standard_normal((2, 4, frames)), dtype=np.float64)
    encoded = encoder_conv(x, kernels, model.stride)
    rhs_waves = tasnet.decode(y, codec(kernels, model.stride), 35, None).data
    for c in range(2):
        lhs = float((encoded * y.data[c]).sum())
        rhs = float((x.data[0, : rhs_waves.shape[1]] * rhs_waves[c]).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("t_len", [1, 3, 5, 16, 23, 40, 57, 100])
def test_separate_shape_contract(t_len):
    model = tiny_model()
    mix = Tensor(np.random.default_rng(t_len).standard_normal((1, t_len)).astype(np.float32))
    out = tasnet.separate(mix, model)
    assert out.shape == (2, t_len)


def test_separate_deterministic():
    model = tiny_model()
    mix = Tensor(np.random.default_rng(8).standard_normal((1, 50)).astype(np.float32))
    a = tasnet.separate(mix, model).data
    b = tasnet.separate(mix, model).data
    assert np.array_equal(a, b)


def test_separate_linear_in_input_with_unit_masks(monkeypatch):
    # with masks frozen to ones the (relu-free) pipeline is linear: superposition
    model = tiny_model()

    def unit_masks(rep, _model):
        return Tensor(np.ones((2,) + rep.shape), dtype=rep.dtype)

    monkeypatch.setattr(tasnet, "estimate_masks", unit_masks)
    monkeypatch.setattr(
        tasnet, "encode", lambda mix, m: conv1d(mix, m.encoder_kernels, m.stride)
    )
    rng = np.random.default_rng(9)
    a = rng.standard_normal((1, 30)).astype(np.float32)
    b = rng.standard_normal((1, 30)).astype(np.float32)
    out_a = tasnet.separate(Tensor(a), model).data
    out_b = tasnet.separate(Tensor(b), model).data
    out_ab = tasnet.separate(Tensor(a + b), model).data
    np.testing.assert_allclose(out_ab, out_a + out_b, rtol=1e-4, atol=1e-5)


def test_separate_is_gain_equivariant():
    from dpsep.training import si_snr

    def scores(est, refs):
        return si_snr(est.astype(np.float64), refs.astype(np.float64))

    model = tiny_model(seed=21)
    rng = np.random.default_rng(22)
    for t_len in (64, 5):  # 5 samples are padded to the minimum input of 8
        refs = rng.standard_normal((2, t_len)).astype(np.float32)
        mix = refs.sum(axis=0, keepdims=True)
        base = tasnet.separate(Tensor(mix), model).data
        base_db = scores(base, refs)
        for gain in (2.0**k for k in range(-6, 5)):
            out = tasnet.separate(Tensor(gain * mix), model).data
            np.testing.assert_array_equal(out, np.float32(gain) * base)
            assert np.all(np.abs(scores(out, refs) - base_db) <= 1e-3)


def test_separate_silent_input_gives_silent_output():
    model = tiny_model()
    for t_len in (40, 5):
        out = tasnet.separate(Tensor(np.zeros((1, t_len), dtype=np.float32)), model)
        np.testing.assert_array_equal(out.data, np.zeros((2, t_len), dtype=np.float32))


def test_separate_runs_in_the_model_dtype():
    # the mixture is cast to the model's dtype; one with grads is rejected in
    # either dtype, since the mixture is data
    model = tiny_model(dtype=np.float64)
    x = np.random.default_rng(0).standard_normal((1, 40)).astype(np.float32)
    out = tasnet.separate(Tensor(x), model)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(
        out.data, tasnet.separate(Tensor(x, dtype=np.float64), model).data
    )
    for dtype in (np.float32, np.float64):
        with pytest.raises(ShapeError, match="separate: the mixture is data"):
            tasnet.separate(Tensor(x, dtype=dtype, requires_grad=True), model)


@pytest.mark.parametrize("shape", [(), (40,), (2, 40), (1, 1, 40)])
def test_separate_rejects_a_mixture_that_is_not_one_row(shape):
    mix = Tensor(np.random.default_rng(1).standard_normal(shape).astype(np.float32))
    with pytest.raises(ShapeError, match=r"separate: need a \(1, T\) mixture"):
        tasnet.separate(mix, tiny_model())


def test_separate_records_only_model_parameters_as_leaves():
    # every leaf a separate-and-loss tape reaches is a model parameter
    from dpsep.training import upit_loss

    model = tiny_model(num_blocks=2)
    rng = np.random.default_rng(31)
    mix = Tensor(rng.standard_normal((1, 50)), dtype=np.float32)
    refs = Tensor(rng.standard_normal((2, 50)), dtype=np.float32)
    params = {id(t) for t in model.parameter_tensors()}
    with GradTape() as tape:
        loss, _ = upit_loss(tasnet.separate(mix, model), refs)
    leaves = [ref for _, refs_, _ in tape._nodes for ref in refs_ if isinstance(ref, Tensor)]
    assert leaves and {id(t) for t in leaves} == params
    # no node for the mixture's scaling; each stage is one op
    names = [name for name, _, _ in tape._nodes]
    sub_pass = ["bilstm", "global_layer_norm"]
    assert names == ["encode", "segment"] + sub_pass * 2 * 2 + [
        "mask_head", "apply_masks", "decode", "upit_loss"
    ]


@pytest.mark.parametrize(
    "model_dtype, mixture, power",
    [
        (np.float32, np.float32(1e20), 66),
        (np.float32, np.float64(1e39), None),
        (np.float64, np.float64(1e200), 664),
        (np.float32, np.float32(1e-30), -100),
        (np.float64, np.float64(1e-200), -664),
    ],
    ids=["f32-1e20", "f64-1e39-to-f32", "f64-1e200", "f32-1e-30", "f64-1e-200"],
)
def test_separate_rejects_a_mixture_whose_energy_is_not_finite_and_positive(
    model_dtype, mixture, power
):
    # such an energy was refused; now the mixture is first scaled by a power
    # of two, so it separates as its scaled copy 2**-power * x does, bit for
    # bit. Only a mixture that overflows its cast to the model's dtype is
    # refused. Neither shows a numpy warning.
    model = tiny_model(dtype=model_dtype)
    data = np.full((1, 40), mixture)
    data[0, ::3] *= -1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if power is None:
            with pytest.raises(NumericsError, match="the mixture overflows float32"):
                tasnet.separate(Tensor(data), model)
            return
        scale = 2.0**power
        out = tasnet.separate(Tensor(data), model).data
        base = tasnet.separate(Tensor(data / scale), model).data
    assert 0.5 < np.abs(data / scale).max() < 2
    assert out.dtype == model_dtype and np.all(np.isfinite(out)) and np.any(out)
    assert out.tobytes() == (base * model_dtype(scale)).tobytes()


@pytest.mark.parametrize("gain", [1e-21, 1e-22])
def test_separate_is_gain_equivariant_for_tiny_float32_mixtures(gain):
    # the squares of such a mixture go subnormal in float32; they read 73.6
    # and 48.9 dB before the power-of-two prescaling. Now they reach 80.0 dB,
    # the SI-SNR eps ceiling, as closely as a gain of 1/3 does: within 1e-3 dB
    # (80 + 4e-8 dB for equal outputs)
    from dpsep.training import si_snr

    model = tiny_model(seed=0)
    x = np.random.default_rng(0).standard_normal((1, 400)).astype(np.float32)
    base = tasnet.separate(Tensor(x), model).data.astype(np.float64)
    for g in (gain, 1 / 3):
        out = tasnet.separate(Tensor(x * np.float32(g)), model).data.astype(np.float64) / g
        assert np.all(si_snr(out, base) >= 80 - 1e-3), g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_separate_scales_the_mixture_as_the_reference_ops_do(dtype, monkeypatch):
    # the mixture that reaches the encoder is, bit for bit, the op-by-op
    # x / sqrt(mean(x * x)), zero-padded to the minimum input
    from reference import div, sqrt, tmean

    model = tiny_model(dtype=dtype)
    seen = []
    encode = tasnet.encode
    monkeypatch.setattr(
        tasnet, "encode", lambda mix, m: seen.append(mix.data.copy()) or encode(mix, m)
    )
    rng = np.random.default_rng(33)
    for t_len, gain in ((5, 1.0), (31, 3e-3), (1000, 7.0), (3001, 1e-6)):
        data = rng.standard_normal((1, t_len)) * gain
        x = Tensor(data, dtype=dtype)
        seen.clear()
        tasnet.separate(Tensor(data), model)
        expected = div(x, sqrt(tmean(mul(x, x)))).data
        minimum = model.samples(model.chunk_len // 2)
        for got in seen:
            assert got.dtype == dtype and got.shape == (1, max(t_len, minimum))
            assert got[:, :t_len].tobytes() == expected.tobytes()
            assert not np.any(got[:, t_len:])
        assert len(seen) == 2


def test_separate_names_the_op_that_overflows():
    # the library path scans every op's output, as the CLI and training do
    model = tasnet.build_model(
        num_filters=4, window=8, num_sources=2, num_blocks=1, hidden=4, chunk_len=10
    )
    model.mask_weight.data[...] = 3e38
    mixture = Tensor(0.5 * np.sin(np.arange(400) * 0.1)[None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and shows no numpy warning
        with pytest.raises(NumericsError, match="non-finite values produced by op '"):
            tasnet.separate(mixture, model)


def parameter_count(model):
    return sum(t.size for _, t in model.parameters())


def test_parameter_count_default_config():
    model = tasnet.build_model()
    count = parameter_count(model)
    assert count == 2579072  # frozen from the closed-form sum
    assert abs(count - 2.6e6) / 2.6e6 <= 0.05


def test_parameter_count_single_lstm_cell():
    model = tasnet.build_model(num_blocks=1)
    cell = model.blocks[0].intra.lstm_fwd
    assert sum(t.size for _, t in cell.tensors()) == 4 * (128 * 64 + 128 * 128 + 128) == 98816


def test_parameter_count_zero_blocks_is_head_only():
    # encoder, decoder and mask head: a one-block model less its block
    model = tiny_model(num_blocks=1)
    head_only = parameter_count(model) - sum(t.size for _, t in model.blocks[0].tensors())
    assert head_only == (
        model.encoder_kernels.size
        + model.decoder_kernels.size
        + model.mask_weight.size
        + model.mask_bias.size
    )


@pytest.mark.parametrize("num_blocks", [0, -1])
def test_build_model_rejects_fewer_than_one_block(num_blocks):
    with pytest.raises(ShapeError, match="num_blocks"):
        tiny_model(num_blocks=num_blocks)


def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(seed=11)
    path = tmp_path / "model.ckpt"
    tasnet.save_model(model, path)
    loaded, meta = tasnet.load_model(path)
    assert meta["sample_rate"] == "8000"
    for (name_a, ta), (name_b, tb) in zip(model.parameters(), loaded.parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data)
    mix = Tensor(np.random.default_rng(0).standard_normal((1, 40)).astype(np.float32))
    np.testing.assert_array_equal(
        tasnet.separate(mix, model).data, tasnet.separate(mix, loaded).data
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_model_builds_from_the_saved_arrays_alone(dtype, tmp_path, monkeypatch):
    from dpsep.numerics import rnn

    model = tiny_model(dtype=dtype, seed=12, num_blocks=2)
    path = tmp_path / "model.ckpt"
    tasnet.save_model(model, path)

    def initialiser(*_, **__):
        raise AssertionError("load_model ran an initialiser")

    for module, name in ((tasnet, "build_model"), (dp, "init_block_params"),
                         (dp, "init_sub_params"), (nt, "init_lstm_params"),
                         (rnn, "init_lstm_params"), (np.random, "default_rng")):
        monkeypatch.setattr(module, name, initialiser)
    loaded, _ = tasnet.load_model(path)
    saved = list(model.parameters())
    assert [name for name, _ in loaded.parameters()] == [name for name, _ in saved]
    for (name, t), (_, ref) in zip(loaded.parameters(), saved):
        assert t.data.dtype == dtype and t.requires_grad, name
        assert t.data.tobytes() == ref.data.tobytes(), name
    geometry = ("num_filters", "window", "stride", "num_sources", "num_blocks", "hidden",
                "chunk_len", "sample_rate")
    assert [getattr(loaded, k) for k in geometry] == [getattr(model, k) for k in geometry]


def test_load_model_rejects_a_tensor_that_overflows_its_dtype(tmp_path):
    # float64 arrays in a float32 checkpoint; the cast of 1e39 overflows,
    # with no numpy warning
    model = tiny_model(dtype=np.float64, seed=15)
    arrays = [(name, t.data) for name, t in model.parameters()]
    arrays[0][1][0, 0] = 1e39
    path = tmp_path / "model.ckpt"
    nt.save_arrays(path, arrays, meta={"format": "dpsep-separator", **model.sizes(),
                                       "dtype": "float32"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(nt.CheckpointError, match="'encoder.kernels' holds values that"):
            tasnet.load_model(path)


def test_checkpoint_block_naming():
    model = tiny_model()
    names = [name for name, _ in model.parameters()]
    assert "block0.intra.lstm_fwd.wx" in names
    assert "block0.inter.lstm_bwd.b" in names
    assert not any("wx_" in name or "wh_" in name for name in names)
    assert "block0.inter.fc.weight" in names
    assert "block0.intra.ln.scale" in names


@pytest.mark.parametrize("geometry", [dict(hidden=5), dict(num_filters=5)])
def test_model_rejects_a_block_of_another_geometry(geometry):
    # the block is consistent in itself; only the model knows N and H
    model, block = tiny_model(), tiny_model(**geometry).blocks[0]
    with pytest.raises(ShapeError, match="block0"):
        dataclasses.replace(model, blocks=[block])


def test_model_rejects_a_backward_cell_of_another_size():
    # a sub-pass checks its FC and norm against its forward cell only
    model = tiny_model()
    block, cell = model.blocks[0], tiny_model(hidden=5).blocks[0].inter.lstm_bwd
    block = dataclasses.replace(block, inter=dataclasses.replace(block.inter, lstm_bwd=cell))
    with pytest.raises(ShapeError, match="block0.inter"):
        dataclasses.replace(model, blocks=[block])


def test_separate_gradcheck_end_to_end():
    from dpsep.numerics import finite_diff_check
    from dpsep.training import upit_loss

    model = tiny_model(dtype=np.float64, seed=13, num_blocks=2)
    rng = np.random.default_rng(14)
    refs = Tensor(rng.standard_normal((2, 30)), dtype=np.float64)
    mix = Tensor(rng.standard_normal((1, 30)) * 0.5, dtype=np.float64)

    def f(*_):
        loss, _ = upit_loss(tasnet.separate(mix, model), refs)
        return loss

    report = finite_diff_check(f, model.parameter_tensors(), max_elements=10)
    assert report.passed, str(report)
