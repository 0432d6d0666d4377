"""Adam trajectory against a scalar reference, gradient clipping, LR schedule."""

import numpy as np
import pytest

from dpsep.numerics import NumericsError, Tensor
from dpsep.training import Adam, TrainConfig, clip_grad_norm, lr_at


def test_clip_noop_below_threshold():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 1.25, dtype=np.float32)  # norm 2.5
    assert clip_grad_norm([p], 5.0) == (2.5, 1.0)
    np.testing.assert_array_equal(p.grad, np.full(4, 1.25))


def test_clip_exact_halving():
    p = Tensor(np.zeros(4), requires_grad=True)
    p.grad = np.full(4, 5.0, dtype=np.float32)  # norm 10
    norm, scale = clip_grad_norm([p], 5.0)
    assert norm == pytest.approx(10.0)
    assert scale == pytest.approx(0.5)
    assert np.linalg.norm(p.grad) == pytest.approx(5.0, abs=1e-6)


def test_clip_many_tensors_matches_concat_oracle():
    rng = np.random.default_rng(0)
    params = []
    flat = []
    for shape in [(3,), (2, 4), (5, 1)]:
        p = Tensor(np.zeros(shape), requires_grad=True)
        p.grad = rng.standard_normal(shape).astype(np.float32) * 3
        params.append(p)
        flat.append(p.grad.reshape(-1).copy())
    concat = np.concatenate(flat)
    expected_scale = min(1.0, 2.0 / np.linalg.norm(concat))
    norm, scale = clip_grad_norm(params, 2.0)
    assert norm == pytest.approx(np.linalg.norm(concat), rel=1e-6)
    assert scale == pytest.approx(expected_scale, rel=1e-6)
    got = np.concatenate([p.grad.reshape(-1) for p in params])
    np.testing.assert_allclose(got, concat * expected_scale, rtol=1e-6)
    assert np.linalg.norm(got) <= 2.0 + 1e-5


def test_clip_norm_bound_holds_randomized():
    rng = np.random.default_rng(1)
    for _ in range(25):
        params = []
        for _ in range(int(rng.integers(1, 5))):
            p = Tensor(np.zeros(int(rng.integers(1, 20))), requires_grad=True)
            p.grad = (rng.standard_normal(p.shape) * rng.uniform(0, 10)).astype(np.float32)
            params.append(p)
        clip_grad_norm(params, 5.0)
        total = np.sqrt(sum(float((p.grad**2).sum()) for p in params))
        assert total <= 5.0 + 1e-5


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_rejects_non_finite_norm_and_leaves_grads(bad):
    # a scale of max_norm / inf = 0 would zero every other gradient and turn
    # the inf into NaN
    params = [Tensor(np.zeros(3), requires_grad=True) for _ in range(2)]
    params[0].grad = np.array([1.0, bad, 0.0], dtype=np.float32)
    params[1].grad = np.array([1.0, 2.0, 3.0], dtype=np.float32)
    before = [p.grad.copy() for p in params]
    with pytest.raises(NumericsError, match="non-finite gradient norm"):
        clip_grad_norm(params, 5.0)
    for p, saved in zip(params, before):
        np.testing.assert_array_equal(p.grad, saved)


def test_adam_first_step_size_is_about_lr():
    p = Tensor(np.asarray(1.0), requires_grad=True)
    p.grad = np.asarray(1.0, dtype=np.float32)
    opt = Adam([p])
    opt.step(0.1)
    assert float(p.data) == pytest.approx(0.9, abs=1e-6)


def test_adam_zero_grad_keeps_parameter():
    p = Tensor(np.asarray(2.5), requires_grad=True)
    opt = Adam([p])
    opt.step(0.1)  # grad None counts as zero
    assert float(p.data) == 2.5
    p.grad = np.asarray(0.0, dtype=np.float32)
    opt.step(0.1)
    assert float(p.data) == 2.5


def test_adam_matches_scalar_reference_on_quadratic():
    # minimize 0.5*x^2 (grad = x) for 10 steps; scalar transcription of the
    # published update as the oracle
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    x_ref = 1.0
    m = v = 0.0
    trajectory = []
    for t in range(1, 11):
        g = x_ref
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trajectory.append(x_ref)

    p = Tensor(np.asarray(1.0, dtype=np.float64), dtype=np.float64, requires_grad=True)
    opt = Adam([p])
    got = []
    for _ in range(10):
        p.grad = np.asarray(float(p.data))
        opt.step(lr)
        got.append(float(p.data))
    np.testing.assert_allclose(got, trajectory, atol=1e-6)


def test_lr_schedule():
    config = TrainConfig()
    assert lr_at(0, config) == pytest.approx(1e-3)
    assert lr_at(1, config) == pytest.approx(1e-3)
    assert lr_at(2, config) == pytest.approx(9.8e-4)
    assert lr_at(100, config) == pytest.approx(1e-3 * 0.98**50)
    with pytest.raises(ValueError):
        lr_at(-1, config)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_init=-1.0)
    # what the CLI's config check rejects for these fields
    for bad in (
        dict(lr_init=float("nan")), dict(lr_init=float("inf")), dict(batch_size=0),
        dict(seed=-1),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    defaults = TrainConfig()
    assert defaults.epochs == 100
    assert defaults.patience == 10
