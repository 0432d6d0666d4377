"""Property tests: broadcasting, the uPIT pair matrix, SI-SNR gain
invariance, the conv adjoint, chunking, gain-equivariant separation, and the
input parsers on damaged files."""

import tempfile
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsep import cli, data
from dpsep import dualpath as dp
from dpsep import numerics as nt
from dpsep import tasnet
from dpsep.numerics import GradTape, Tensor
from dpsep.training import si_snr, upit_loss
from reference import add, codec, encoder_conv, mul, tsum

SETTINGS = settings(max_examples=60, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def broadcast_shapes(draw):
    """Two equal-rank shapes where each axis is full on both sides or 1 on one or both."""
    extents = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    a_shape, b_shape = [], []
    for extent in extents:
        ones = draw(st.sampled_from(("", "a", "b", "ab")))
        a_shape.append(1 if "a" in ones else extent)
        b_shape.append(1 if "b" in ones else extent)
    return tuple(a_shape), tuple(b_shape)


def _expanded(shape, out_shape):
    return tuple(i for i, (d, e) in enumerate(zip(shape, out_shape)) if d != e)


@SETTINGS
@given(shapes=broadcast_shapes(), seed=SEEDS, op=st.sampled_from(("add", "mul")))
def test_broadcast_matches_numpy_forward_and_gradient(shapes, seed, op):
    a_shape, b_shape = shapes
    rng = np.random.default_rng(seed)
    a_data = rng.standard_normal(a_shape)
    b_data = rng.standard_normal(b_shape)
    out_shape = np.broadcast_shapes(a_shape, b_shape)
    g = rng.standard_normal(out_shape)
    a = Tensor(a_data, dtype=np.float64, requires_grad=True)
    b = Tensor(b_data, dtype=np.float64, requires_grad=True)
    with GradTape() as tape:
        out = {"add": add, "mul": mul}[op](a, b)
        loss = tsum(mul(out, g))
    expected = a_data + b_data if op == "add" else a_data * b_data
    assert out.shape == out_shape
    np.testing.assert_array_equal(out.data, expected)
    tape.backward(loss)
    ga, gb = (g, g) if op == "add" else (g * b_data, g * a_data)
    np.testing.assert_array_equal(
        a.grad, ga.sum(axis=_expanded(a_shape, out_shape), keepdims=True)
    )
    np.testing.assert_array_equal(
        b.grad, gb.sum(axis=_expanded(b_shape, out_shape), keepdims=True)
    )


@SETTINGS
@given(
    num_sources=st.integers(2, 4),
    t_len=st.integers(2, 300),
    seed=SEEDS,
    silent_row=st.booleans(),
)
def test_upit_pair_matrix_equals_per_pair_si_snr(num_sources, t_len, seed, silent_row):
    rng = np.random.default_rng(seed)
    est = rng.standard_normal((num_sources, t_len))
    ref = rng.standard_normal((num_sources, t_len))
    if silent_row:
        est[0] = 0.5  # zero energy after mean removal
    pair = si_snr(est.reshape(num_sources, 1, t_len), ref.reshape(1, num_sources, t_len))
    oracle = np.array(
        [[si_snr(est[a], ref[b]) for b in range(num_sources)] for a in range(num_sources)]
    )
    np.testing.assert_array_equal(pair, oracle)
    # the loss names its permutation: the first, in lexicographic order, of the best
    loss, mean_db = upit_loss(Tensor(est, dtype=np.float64), Tensor(ref, dtype=np.float64))
    means = {perm: sum(oracle[a, b] for a, b in enumerate(perm)) / num_sources
             for perm in permutations(range(num_sources))}
    best = max(sorted(means), key=lambda p: means[p])
    weights = np.zeros_like(oracle)
    weights[range(num_sources), best] = -1.0 / num_sources
    assert mean_db == means[best]
    assert float(loss.data) == (oracle * weights).sum()


@SETTINGS
@given(
    t_len=st.integers(2, 300),
    exponent=st.integers(-16, 16),
    scale_est=st.booleans(),
    seed=SEEDS,
    dtype=st.sampled_from((np.float32, np.float64)),
)
def test_si_snr_is_bit_invariant_to_power_of_two_gains(t_len, exponent, scale_est, seed, dtype):
    # for the numpy SI-SNR and for the uPIT loss op alike
    rng = np.random.default_rng(seed)
    est = rng.standard_normal((2, t_len)).astype(dtype)
    ref = rng.standard_normal((2, t_len)).astype(dtype)
    gain = dtype(2.0**exponent)
    base = si_snr(est, ref)
    base_loss = upit_loss(Tensor(est), Tensor(ref))[0].data
    if scale_est:
        est = gain * est
    else:
        ref = gain * ref
    np.testing.assert_array_equal(si_snr(est, ref), base)
    np.testing.assert_array_equal(upit_loss(Tensor(est), Tensor(ref))[0].data, base_loss)


@SETTINGS
@given(
    t_len=st.integers(2, 300),
    gain=st.floats(1e-3, 1e3),
    scale_est=st.booleans(),
    seed=SEEDS,
)
def test_si_snr_is_invariant_to_any_gain(t_len, gain, scale_est, seed):
    rng = np.random.default_rng(seed)
    est, ref = rng.standard_normal((2, 2, t_len))
    base = si_snr(est, ref)
    if scale_est:
        est = gain * est
    else:
        ref = gain * ref
    np.testing.assert_allclose(si_snr(est, ref), base, rtol=0, atol=1e-9)


@SETTINGS
@given(
    width=st.integers(1, 8),
    stride=st.integers(1, 4),
    frames=st.integers(1, 40),
    filters=st.integers(1, 5),
    sets=st.integers(2, 4),
    seed=SEEDS,
)
def test_transposed_conv_is_adjoint_for_every_source(width, stride, frames, filters, sets, seed):
    rng = np.random.default_rng(seed)
    t_len = (frames - 1) * stride + width
    x = Tensor(rng.standard_normal((1, t_len)), dtype=np.float64)
    k = Tensor(rng.standard_normal((filters, width)), dtype=np.float64)
    y = Tensor(rng.standard_normal((sets, filters, frames)), dtype=np.float64)
    encoded = encoder_conv(x, k, stride)
    waves = tasnet.decode(y, codec(k, stride), t_len, None).data
    assert waves.shape == (sets, t_len)
    for c in range(sets):
        lhs = float((encoded * y.data[c]).sum())
        rhs = float((x.data[0] * waves[c]).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@SETTINGS
@given(
    filters=st.integers(1, 4),
    length=st.integers(1, 200),
    half_chunk=st.integers(1, 40),
    seed=SEEDS,
    dtype=st.sampled_from((np.float32, np.float64)),
)
def test_overlap_add_inverts_segment(filters, length, half_chunk, seed, dtype):
    chunk_len = 2 * min(half_chunk, length)  # segment needs K <= 2L
    w = np.random.default_rng(seed).standard_normal((filters, length)).astype(dtype)
    out = dp.overlap_add(dp.segment(Tensor(w, dtype=dtype), chunk_len), length)
    np.testing.assert_array_equal(out.data, w)


# one DPRNN block, W=4, K=10: lengths of a few hundred samples give tens of
# chunks, so both passes run a few dozen LSTM steps
_SMALL_MODEL = tasnet.build_model(
    num_filters=8, window=4, num_sources=2, num_blocks=1, hidden=8, chunk_len=10, seed=5
)


@SETTINGS
@given(
    length=st.integers(1, 800),
    exponent=st.integers(-8, 8),
    seed=SEEDS,
)
def test_separate_is_gain_equivariant_bit_for_bit(length, exponent, seed):
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(1, length)).astype(np.float32)
    gain = np.float32(2.0**exponent)
    base = tasnet.separate(Tensor(x), _SMALL_MODEL).data
    scaled = tasnet.separate(Tensor(gain * x), _SMALL_MODEL).data
    np.testing.assert_array_equal(scaled, gain * base)


def _valid_files():
    """name -> (bytes of a valid file, its parser, the error the parser
    documents for a file it cannot use)."""
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, wav = Path(tmp) / "m.ckpt", Path(tmp) / "x.wav"
        tasnet.save_model(
            tasnet.build_model(num_filters=3, window=4, num_blocks=1, hidden=2, chunk_len=4), ckpt
        )
        data.write_wav(wav, 0.5 * np.sin(np.arange(64) * 0.3), 8000)
        ckpt_bytes, wav_bytes = ckpt.read_bytes(), wav.read_bytes()
    manifest = (
        b"# split  source 1  source 2  snr\n"
        b"train\tsynth:harmonic:1\tsynth:chirp:2\t0.0\n"
        b"valid\twav:a.wav\tsynth:modulated-noise:3\t-2.5\n"
    )
    config = b"num_filters=16\nwindow=16  # samples\nsegment_seconds=0.5\n"
    return {
        "checkpoint": (ckpt_bytes, tasnet.load_model, nt.CheckpointError),
        "manifest": (manifest, data.parse_manifest, data.ManifestError),
        "config": (config, cli.parse_config, cli.ConfigError),
        "wav": (wav_bytes, data.read_wav, data.WavFormatError),
    }


_VALID_FILES = _valid_files()

# (kind, position, bytes): cut the file at the position, overwrite bytes
# there, or append them; positions wrap around the current length
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("cut", "overwrite", "append")),
        st.integers(0, 1 << 16),
        st.binary(min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=4,
)


def _damage(blob, edits):
    for kind, at, chunk in edits:
        at %= len(blob) + 1
        if kind == "cut":
            blob = blob[:at]
        elif kind == "overwrite":
            blob = blob[:at] + chunk + blob[at + len(chunk):]
        else:
            blob += chunk
    return blob


@pytest.mark.parametrize("name", sorted(_VALID_FILES))
def test_parser_accepts_its_valid_file(name, tmp_path):
    blob, parse, _ = _VALID_FILES[name]
    path = tmp_path / name
    path.write_bytes(blob)
    parse(path)


@pytest.mark.parametrize("name", sorted(_VALID_FILES))
@settings(max_examples=150, deadline=None)
@given(edits=_EDITS)
# in a WAV: a zero fmt chunk size, so the wave module reads past the chunk
@example(edits=[("overwrite", 16, b"\x00\x00\x00\x00")])
def test_parser_on_damaged_file_succeeds_or_raises_its_error(name, edits):
    blob, parse, error = _VALID_FILES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(_damage(blob, edits))
        try:
            parse(path)
        except error:
            pass
