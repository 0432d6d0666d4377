"""The finite-difference harness itself, plus the invariant that every
differentiable op passes it on several random shapes."""

import numpy as np
import pytest

from dpsep import numerics as nt
from dpsep.numerics import NumericsError, Tensor, finite_diff_check
from dpsep.training.loss import si_snr


def test_sum_has_near_zero_error():
    x = Tensor(np.random.default_rng(0).standard_normal(6), dtype=np.float64,
               requires_grad=True)
    report = finite_diff_check(lambda v: nt.tsum(v), x)
    assert report.passed
    assert report.max_rel_error < 1e-8


def test_si_snr_self_check():
    rng = np.random.default_rng(1)
    est = Tensor(rng.standard_normal(64), dtype=np.float64, requires_grad=True)
    ref = Tensor(rng.standard_normal(64), dtype=np.float64)
    report = finite_diff_check(lambda v: si_snr(v, ref), est)
    assert report.passed and report.max_rel_error < 1e-4


def test_detects_corrupted_backward_rule():
    # deliberately wrong backward: harness must report a failure
    def bad_square(x):
        def backward_fn(g):
            return (g * 3.0 * x.data,)  # should be 2x

        return nt.apply_op("bad_square", (x,), lambda: x.data**2, backward_fn)

    x = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
    report = finite_diff_check(lambda v: nt.tsum(bad_square(v)), x)
    assert not report.passed


def test_requires_float64():
    x = Tensor([1.0], dtype=np.float32, requires_grad=True)
    with pytest.raises(NumericsError):
        finite_diff_check(lambda v: nt.tsum(v), x)


def test_rejects_non_scalar_function():
    x = Tensor([1.0, 2.0], dtype=np.float64, requires_grad=True)
    with pytest.raises(NumericsError):
        finite_diff_check(lambda v: nt.mul(v, v), x)


@pytest.mark.parametrize("shape", [(3,), (2, 4), (2, 3, 2)])
def test_every_composite_op_passes_on_random_shapes(shape):
    rng = np.random.default_rng(hash(shape) % 2**32)
    x = Tensor(rng.standard_normal(shape), dtype=np.float64, requires_grad=True)

    def f(v):
        y = nt.sqrt(nt.add(nt.mul(v, v), 1.0))
        y = nt.sub(y, nt.relu(v))
        y = nt.div(y, nt.add(nt.log(nt.add(nt.mul(v, v), 1.0)), 2.0))
        return nt.tsum(nt.mul(y, y))

    report = finite_diff_check(f, x)
    assert report.passed, str(report)


def test_subsampled_elements_reported():
    # one taped call, then two per checked element: 10 of the 50
    x = Tensor(np.random.default_rng(2).standard_normal(50), dtype=np.float64,
               requires_grad=True)
    calls = []

    def f(v):
        calls.append(None)
        return nt.tsum(nt.mul(v, v))

    report = finite_diff_check(f, x, max_elements=10)
    assert report.passed
    assert len(calls) == 1 + 2 * 10


def test_suite_covers_every_op_of_a_training_step(tmp_path, monkeypatch):
    # a segment whose decoder output is one sample short (padded) and whose
    # zero-padded tail is masked out of the loss (sliced)
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
    assert {"pad", "slice", "global_layer_norm", "bilstm"} <= step_ops
    seen.clear()
    run_gradcheck_suite()
    assert step_ops <= seen, sorted(step_ops - seen)
