"""The finite-difference harness itself, the invariant that every
differentiable op passes it on several random shapes, and that the tape alone
decides which of an op's gradients are kept."""

import dataclasses

import numpy as np
import pytest

from dpsep import dualpath as dp
from dpsep import numerics as nt
from dpsep import tasnet
from dpsep.numerics import GradTape, NumericsError, Tensor, finite_diff_check
from dpsep.training.loss import upit_loss
from reference import add, div, mul, relu, sqrt, sub_params, tmean, tsum


def test_sum_has_near_zero_error():
    x = Tensor(np.random.default_rng(0).standard_normal(6), dtype=np.float64,
               requires_grad=True)
    report = finite_diff_check(lambda v: tsum(v), x)
    assert report.passed
    assert report.max_rel_error < 1e-8


def test_si_snr_self_check():
    rng = np.random.default_rng(1)
    # one source: the loss is -si_snr(est, ref)
    est = Tensor(rng.standard_normal((1, 64)), dtype=np.float64, requires_grad=True)
    ref = Tensor(rng.standard_normal((1, 64)), dtype=np.float64)
    report = finite_diff_check(lambda v: upit_loss(v, ref)[0], est)
    assert report.passed and report.max_rel_error < 1e-4


def test_detects_corrupted_backward_rule():
    # deliberately wrong backward: harness must report a failure
    def bad_square(x):
        def backward_fn(g):
            return (g * 3.0 * x.data,)  # should be 2x

        return nt.apply_op("bad_square", (x,), lambda: x.data**2, backward_fn)

    x = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
    report = finite_diff_check(lambda v: tsum(bad_square(v)), x)
    assert not report.passed


def test_requires_float64():
    x = Tensor([1.0], dtype=np.float32, requires_grad=True)
    with pytest.raises(NumericsError):
        finite_diff_check(lambda v: tsum(v), x)


def test_rejects_non_scalar_function():
    x = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
    with pytest.raises(NumericsError):
        finite_diff_check(lambda v: mul(v, v), x)


@pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2)])
def test_every_composite_op_passes_on_random_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    x = Tensor(rng.standard_normal(shape), dtype=np.float64, requires_grad=True)

    def f(v):
        y = sqrt(add(mul(v, v), 1.0))
        y = add(y, mul(relu(v), -1.0))
        y = div(y, add(tmean(mul(v, v)), 2.0))
        return tsum(mul(y, y))

    report = finite_diff_check(f, x)
    assert report.passed, str(report)


def test_subsampled_elements_reported():
    # one taped call, then two per checked element: 10 of the 50
    x = Tensor(np.random.default_rng(2).standard_normal(50), dtype=np.float64,
               requires_grad=True)
    calls = []

    def f(v):
        calls.append(None)
        return tsum(mul(v, v))

    report = finite_diff_check(f, x, max_elements=10)
    assert report.passed
    assert len(calls) == 1 + 2 * 10


def test_suite_covers_every_op_of_a_training_step(tmp_path, monkeypatch):
    # a segment whose decoder conv is one sample short (padded by decode)
    # and whose zero-padded tail upit_loss leaves out, then the batch mean
    from dpsep import tasnet
    from dpsep.checks import run_gradcheck_suite
    from dpsep.data import mix_at_snr
    from dpsep.training import TrainConfig, train_loop

    seen = set()
    original = nt.GradTape._record

    def record(tape, node):
        seen.add(node[0])  # a node is (name, refs, backward_fn)
        return original(tape, node)

    monkeypatch.setattr(nt.GradTape, "_record", record)
    rng = np.random.default_rng(3)
    example = mix_at_snr(rng.standard_normal(31), rng.standard_normal(31), 0.0)
    example.mixture[:, 25:] = 0.0
    example.sources[:, 25:] = 0.0
    example.valid_len = 25
    model = tasnet.build_model(
        num_filters=4, window=4, num_sources=2, num_blocks=1, hidden=3, chunk_len=6
    )
    train_loop(model, [example], [example], TrainConfig(epochs=1, batch_size=1),
               str(tmp_path / "run"))
    step_ops = set(seen)
    assert {"decode", "upit_loss", "batch_mean", "global_layer_norm", "bilstm"} <= step_ops
    seen.clear()
    run_gradcheck_suite()
    assert step_ops <= seen, sorted(step_ops - seen)


def _t64(rng, shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64, requires_grad=True)


def _bilstm_inputs(rng, axis):
    # the six cell tensors, the FC weight and bias of a sub-pass of N=3, H=4
    *cells, weight, bias = sub_params(rng, 3, 4, np.float64)[:8]
    xs = _t64(rng, (5, 2, 3) if axis == 0 else (2, 5, 3))

    def f(xv, *rest):
        return nt.bilstm_batched(xv, rest[:6], rest[6], rest[7], axis)

    return [xs, *cells, weight, bias], f


def _decode_inputs(rng):
    model = tasnet.build_model(
        num_filters=3, window=4, num_blocks=1, hidden=2, chunk_len=4, dtype=np.float64
    )

    def f(masked, kernels):
        params = {**model.params, "decoder.kernels": kernels}
        return tasnet.decode(masked, dataclasses.replace(model, params=params), 9, 0.7)

    return [_t64(rng, (2, 3, 5)), model.params["decoder.kernels"]], f


_FREEZE_CASES = {
    "bilstm_axis0": lambda rng: _bilstm_inputs(rng, 0),
    "bilstm_axis1": lambda rng: _bilstm_inputs(rng, 1),
    "global_layer_norm": lambda rng: (
        [_t64(rng, (4, 2, 3)), _t64(rng, (3,)), _t64(rng, (3,)), _t64(rng, (4, 2, 3))],
        lambda x, scale, bias, res: dp.global_layer_norm(x, scale, bias, residual=res),
    ),
    "mask_head": lambda rng: (
        [_t64(rng, (4, 4, 3)), _t64(rng, (6, 3)), _t64(rng, (6,))],
        lambda x, weight, bias: tasnet.mask_head(x, weight, bias, 6),
    ),
    "decode": _decode_inputs,
}


def _tape_grads(f, inputs):
    for t in inputs:
        t.zero_grad()
    with GradTape() as tape:
        y = f(*inputs)
        loss = tsum(mul(y, y))
    tape.backward(loss)
    return [t.grad for t in inputs]


@pytest.mark.parametrize("case", sorted(_FREEZE_CASES))
def test_the_tape_alone_drops_the_gradient_of_a_constant_input(case):
    # an op gives a gradient for each differentiable input; when one input is
    # a constant copy, it gets no .grad and every other input the bits it
    # gets when all of them train
    inputs, f = _FREEZE_CASES[case](np.random.default_rng(5))
    trained = _tape_grads(f, inputs)
    assert all(g is not None for g in trained)
    for i, t in enumerate(inputs):
        const = Tensor(t.data.copy())
        grads = _tape_grads(f, [*inputs[:i], const, *inputs[i + 1 :]])
        assert grads[i] is None
        for j, (want, got) in enumerate(zip(trained, grads)):
            if j != i:
                np.testing.assert_array_equal(got, want)
