"""Finite-difference verification suite covering every differentiable stage.

Each case rebuilds a small float64 graph and compares tape gradients against
central differences. Shared by the `gradcheck` command and the acceptance
tests.
"""

from __future__ import annotations

import numpy as np

from . import dualpath as dp
from . import numerics as nt
from . import tasnet
from .config import Geometry
from .numerics import Tensor, finite_diff_check
from .training.loop import _batch_mean
from .training.loss import upit_loss

F64 = np.float64


def _t(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, dtype=F64, requires_grad=True)


def _drawn(rng, prefix, feat, hidden):
    """The float64 initial tensors of the parameters under `prefix` of a
    one-block separator of N=feat, H=hidden, drawn as `build_model` draws
    them."""
    layout = tasnet._layout(Geometry(num_filters=feat, hidden=hidden, num_blocks=1))
    return [
        tasnet._initial(rng, name, shape, F64)
        for name, shape in layout
        if name.startswith(prefix)
    ]


def _readout(y):
    """sum(y * y), a nonlinear scalar of y, as one op."""
    yd = y.data
    return nt.apply_op(
        "readout", (y,), lambda: np.array((yd * yd).sum()), lambda g: (2 * g * yd,)
    )


def _codec_model():
    # N=3 filters of W=4 taps, stride 2
    return tasnet.build_model(
        num_filters=3, window=4, num_sources=2, num_blocks=1, hidden=2, chunk_len=4, dtype=F64
    )


def _case_encode(rng):
    # the mixture is data; only the encoder kernels take a gradient
    model = _codec_model()
    x = Tensor(rng.standard_normal((1, 12)), dtype=F64)
    kernels = model.params["encoder.kernels"]
    return finite_diff_check(lambda _: _readout(tasnet.encode(x, model)), kernels)


def _decode_case(rng, length, gain):
    # 5 frames decode to 12 samples, cut or zero-padded to `length`
    model = _codec_model()
    frames = _t(rng, (2, 3, 5))

    def f(fv, _):
        return _readout(tasnet.decode(fv, model, length, gain))

    return finite_diff_check(f, [frames, model.params["decoder.kernels"]])


def _case_bilstm_batched(rng, steps, axis):
    # the FC maps 2H=8 to N=3 features, as in a sub-pass whose N is the input's;
    # two sequences of `steps` steps along `axis`
    cells = _drawn(rng, "block0.intra.lstm_", 3, 4)
    xs = _t(rng, (steps, 2, 3) if axis == 0 else (2, steps, 3))
    weight, bias = _t(rng, (3, 8), scale=0.5), _t(rng, (3,))
    tensors = [xs, *cells, weight, bias]

    def f(xv, *_):
        return _readout(nt.bilstm_batched(xv, cells, weight, bias, axis))

    return finite_diff_check(f, tensors)


def _case_global_layer_norm(rng):
    x = _t(rng, (4, 2, 3))
    z = _t(rng, (3,))
    r = _t(rng, (3,))

    def f(xv, zv, rv):
        return _readout(dp.global_layer_norm(xv, zv, rv))

    return finite_diff_check(f, [x, z, r])


def _case_global_layer_norm_residual(rng):
    x = _t(rng, (4, 2, 3))
    z = _t(rng, (3,))
    r = _t(rng, (3,))
    res = _t(rng, (4, 2, 3))

    def f(xv, zv, rv, resv):
        return _readout(dp.global_layer_norm(xv, zv, rv, residual=resv))

    return finite_diff_check(f, [x, z, r, res])


def _case_mask_head(rng):
    # K=4, S=4 chunks of N=3 features tile L=6 frames; C=2 sources
    x = _t(rng, (4, 4, 3))
    weight = _t(rng, (6, 3))
    bias = _t(rng, (6,))

    def f(xv, wv, bv):
        return _readout(tasnet.mask_head(xv, wv, bv, 6))

    return finite_diff_check(f, [x, weight, bias])


def _intra_inter_case(rng, pass_fn):
    leaves = _drawn(rng, "block0.intra.", 4, 3)
    x = _t(rng, (6, 5, 4))
    tensors = [x, *leaves]

    def f(xv, *_):
        return _readout(pass_fn(xv, leaves))

    return finite_diff_check(f, tensors, max_elements=16)


def _case_segment(rng):
    x = _t(rng, (3, 10))
    return finite_diff_check(lambda xv: _readout(dp.segment(xv, 4)), x)


def _case_dprnn_stack(rng):
    # one full block on the K=6, S=5, N=4, H=3 chunk geometry (L=12)
    leaves = _drawn(rng, "block0.", 4, 3)
    w = _t(rng, (4, 12))
    tensors = [w, *leaves]

    def f(wv, *_):
        out = dp.dprnn_stack(dp.segment(wv, 6), leaves)
        return _readout(dp.overlap_add(out, 12))

    return finite_diff_check(f, tensors, max_elements=10)


def _separator_case(rng, t_len, valid_len):
    """The batch mean, over one example, of the uPIT loss over the first
    `valid_len` of the estimates of a (1, t_len) mixture, as for a
    zero-padded training segment, checked against every model parameter."""
    model = tasnet.build_model(
        num_filters=4,
        window=4,
        num_sources=2,
        num_blocks=2,
        hidden=3,
        chunk_len=6,
        sample_rate=8000,
        seed=7,
        dtype=F64,
    )
    mixture = Tensor(rng.standard_normal((1, t_len)) * 0.5, dtype=F64)
    refs = Tensor(rng.standard_normal((2, valid_len)), dtype=F64)

    def f(*_):
        loss, _ = upit_loss(tasnet.separate(mixture, model), refs)
        return _batch_mean([loss])

    return finite_diff_check(f, model.parameter_tensors(), max_elements=6)


def _upit_case(rng, num_sources, t_len):
    est = _t(rng, (num_sources, t_len))
    ref = Tensor(rng.standard_normal((num_sources, t_len)), dtype=F64)

    def f(ev):
        loss, _ = upit_loss(ev, ref)
        return loss

    return finite_diff_check(f, est)


GRADCHECK_CASES = (
    ("encode", _case_encode),
    ("decode_crop", lambda rng: _decode_case(rng, 9, 0.7)),
    ("decode_pad", lambda rng: _decode_case(rng, 15, None)),
    # one BLSTM runs both directions; T=1 reads only the zero initial states
    ("bilstm_batched_t1", lambda rng: _case_bilstm_batched(rng, steps=1, axis=0)),
    ("bilstm_batched_t5", lambda rng: _case_bilstm_batched(rng, steps=5, axis=0)),
    ("bilstm_batched_t5_axis1", lambda rng: _case_bilstm_batched(rng, steps=5, axis=1)),
    ("global_layer_norm", _case_global_layer_norm),
    ("global_layer_norm_residual", _case_global_layer_norm_residual),
    ("segment", _case_segment),
    ("mask_head", _case_mask_head),
    ("intra_chunk_pass", lambda rng: _intra_inter_case(rng, dp.intra_chunk_pass)),
    ("inter_chunk_pass", lambda rng: _intra_inter_case(rng, dp.inter_chunk_pass)),
    ("dprnn_stack", _case_dprnn_stack),
    # one source: the loss is -si_snr(est, ref)
    ("si_snr", lambda rng: _upit_case(rng, 1, 64)),
    ("upit_si_snr", lambda rng: _upit_case(rng, 2, 16)),
    ("tiny_separator", lambda rng: _separator_case(rng, 30, 30)),
    # W=4, stride 2: the decoder's conv gives 30 samples for T=31, so decode pads
    ("padded_separator", lambda rng: _separator_case(rng, 31, 25)),
)


def run_gradcheck_suite():
    """Run all cases, each from a fresh generator seeded 0; returns a list of
    (name, FiniteDiffReport)."""
    return [(name, case(np.random.default_rng(0))) for name, case in GRADCHECK_CASES]
