"""LSTM directions against a scalar gate-equation oracle; bidirectional unrolling.

`bilstm_batched` is the only LSTM op, and it ends in an FC 2H -> N. Most tests
run it along axis 0 through the identity FC (`_bilstm`), which returns both
directions' hidden states exactly. A `test_lstm_sequence_*` test checks one
direction run over a sequence: the forward half of that output or, with
`reverse`, its backward half. Axis 1 is checked against axis 0 on the
transposed input.
"""

import tracemalloc

import numpy as np
import pytest

from dpsep import numerics as nt
from dpsep.numerics import ShapeError, Tensor
from reference import affine, cell_params, initial, mul, tsum


def _zero_params(in_dim, hid, dtype=np.float32):
    def zt(shape):
        return Tensor(np.zeros(shape), dtype=dtype, requires_grad=True)

    return zt((4 * hid, in_dim)), zt((4 * hid, hid)), zt((4 * hid,))


def _rows(t, k):
    """Gate k's rows (order i, f, g, o) of a packed tensor."""
    hid = t.shape[0] // 4
    return t.data[k * hid : (k + 1) * hid]


def _scalar_oracle(x, h, c, p):
    """Elementwise gate equations computed with plain Python loops, for a
    cell p = (wx, wh, b)."""

    def gate(wx, wh, b, squash):
        pre = wx @ x + wh @ h + b
        return squash(pre)

    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, g, o = (
        gate(*(_rows(t, k) for t in p), squash)
        for k, squash in enumerate((sig, sig, np.tanh, sig))
    )
    c2 = f * c + i * g
    h2 = o * np.tanh(c2)
    return h2, c2


def _oracle_sequence(xs, p, reverse=False):
    """Scalar-oracle unroll of xs (T, B, In) from zero states -> (T, B, H)."""
    steps, batch, _ = xs.shape
    hid = p[1].shape[1]
    out = np.zeros((steps, batch, hid))
    for b in range(batch):
        h = np.zeros(hid)
        c = np.zeros(hid)
        for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
            h, c = _scalar_oracle(xs[t, b].astype(np.float64), h, c, p)
            out[t, b] = h
    return out


def _identity_fc(hid, dtype=np.float32):
    """FC weight I (2H, 2H) and bias 0: x * 1 and the added zeros are exact,
    so `bilstm_batched` returns [h_fwd, h_bwd] bit for bit."""
    return Tensor(np.eye(2 * hid), dtype=dtype), Tensor(np.zeros(2 * hid), dtype=dtype)


def _bilstm(xs, fwd, bwd):
    """`bilstm_batched` of the cells fwd and bwd, each (wx, wh, b), through
    the identity FC -> (T, B, 2H) hidden states."""
    fc = _identity_fc(fwd[1].shape[1], xs.data.dtype)
    return nt.bilstm_batched(xs, (*fwd, *bwd), *fc, 0)


def _half(out, reverse):
    """The forward half of a (T, B, 2H) BLSTM output, or with `reverse` the
    backward half."""
    hid = out.shape[-1] // 2
    return out[..., hid:] if reverse else out[..., :hid]


def test_all_zero_everything_gives_zero_states():
    p = _zero_params(3, 4)
    hs = _bilstm(Tensor(np.zeros((5, 2, 3)), dtype=np.float32), p, p)
    np.testing.assert_array_equal(hs.data, np.zeros((5, 2, 8)))


def test_saturated_gates_preserve_cell():
    # step 0 opens the input gate through x and writes c = tanh(b_g); later
    # steps close it, forget ~ 1 keeps c, and output ~ 1 exposes h = tanh(c);
    # the backward direction's step 0 is the last time step
    p = _zero_params(2, 3)
    wx_i, b_i, b_f, b_g, b_o = _rows(p[0], 0), *(_rows(p[2], k) for k in range(4))
    wx_i[:, 0] = 40.0
    b_i[:] = -20.0
    b_f[:] = 20.0
    b_o[:] = 20.0
    b_g[:] = [0.3, -0.7, 1.1]
    expected = np.tanh(np.tanh(b_g))
    for reverse in (False, True):
        xs = np.zeros((4, 1, 2), dtype=np.float32)
        xs[-1 if reverse else 0, 0, 0] = 1.0
        hs = _half(_bilstm(Tensor(xs), p, p).data, reverse)
        for t in range(4):
            np.testing.assert_allclose(hs[t, 0], expected, atol=1e-6)


def test_lstm_sequence_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    fwd = cell_params(rng, 5, 4, dtype=np.float32)
    bwd = cell_params(rng, 5, 4, dtype=np.float32)
    xs = rng.standard_normal((3, 2, 5)).astype(np.float32)
    out = _bilstm(Tensor(xs), fwd, bwd).data
    for p, reverse in ((fwd, False), (bwd, True)):
        expected = _oracle_sequence(xs, p, reverse=reverse)
        assert np.max(np.abs(_half(out, reverse) - expected)) < 1e-6


def test_param_count_formula():
    p = initial(np.random.default_rng(0), "block0.intra.lstm_fwd.", 64, 128)
    assert list(p) == ["wx", "wh", "b"]
    counted = sum(t.size for t in p.values())
    assert counted == 4 * (128 * 64 + 128 * 128 + 128)


def test_packed_layout_keeps_gate_order_and_init():
    # uniform input rows, an orthogonal recurrent block per gate, and the
    # forget bias in rows H:2H only
    rng = np.random.default_rng(0)
    p = cell_params(rng, 5, 3, dtype=np.float64)
    for k in range(4):
        block = _rows(p[1], k)
        np.testing.assert_allclose(block @ block.T, np.eye(3), atol=1e-12)
        assert np.all(np.abs(_rows(p[0], k)) <= 1.0 / np.sqrt(5))
    np.testing.assert_array_equal(p[2].data, [0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0])


def test_packed_shape_mismatch_rejected():
    good = _zero_params(3, 4)
    wx, wh, b = good
    xs = Tensor(np.zeros((5, 2, 3)))
    for bad in ((wx, wh, Tensor(np.zeros(12))), (Tensor(np.zeros((12, 3))), wh, b)):
        for fwd, bwd in ((bad, good), (good, bad)):
            with pytest.raises(ShapeError, match="lstm shapes disagree"):
                _bilstm(xs, fwd, bwd)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_is_one_tape_node(reverse):
    # a BLSTM of which only one direction trains is still one op, and that
    # direction gets the gradients it gets when both train
    rng = np.random.default_rng(3)
    p, q = cell_params(rng, 3, 4), cell_params(rng, 3, 4)
    frozen = tuple(Tensor(t.data) for t in q)
    xs = Tensor(rng.standard_normal((6, 2, 3)), dtype=np.float32)
    grads = []
    for other in (q, frozen):
        with nt.GradTape() as tape:
            loss = tsum(_bilstm(xs, *((other, p) if reverse else (p, other))))
        assert [name for name, _, _ in tape._nodes] == ["bilstm", "sum"]
        tape.backward(loss)
        grads.append([t.grad for t in p])
        for t in p:
            t.zero_grad()
    assert all(t.grad is None for t in frozen)
    for trained, alone in zip(*grads):
        np.testing.assert_array_equal(trained, alone)


def test_lstm_sequence_shape_error():
    # an input narrower than the directions' input size
    p = _zero_params(3, 4)
    with pytest.raises(ShapeError):
        _bilstm(Tensor(np.zeros((5, 2, 2))), p, p)


def test_lstm_sequence_rejects_wrong_input_size():
    # each direction's input size must match the input's last axis
    p, wide = _zero_params(3, 4), _zero_params(4, 4)
    for in_dim, fwd, bwd in ((4, p, p), (3, p, wide), (3, wide, p)):
        with pytest.raises(ShapeError):
            _bilstm(Tensor(np.zeros((5, 2, in_dim))), fwd, bwd)


def test_bilstm_single_step_is_concat_of_cells():
    rng = np.random.default_rng(2)
    fwd = cell_params(rng, 3, 2, dtype=np.float64)
    bwd = cell_params(rng, 3, 2, dtype=np.float64)
    x = rng.standard_normal(3)
    out = _bilstm(Tensor(x.reshape(1, 1, 3), dtype=np.float64), fwd, bwd)
    hf, _ = _scalar_oracle(x, np.zeros(2), np.zeros(2), fwd)
    hb, _ = _scalar_oracle(x, np.zeros(2), np.zeros(2), bwd)
    np.testing.assert_allclose(out.data[0, 0], np.concatenate([hf, hb]), rtol=1e-12)


def test_bilstm_time_reversal_symmetry():
    rng = np.random.default_rng(4)
    fwd = cell_params(rng, 2, 3, dtype=np.float64)
    bwd = cell_params(rng, 2, 3, dtype=np.float64)
    seq = rng.standard_normal((5, 2, 2))
    out = _bilstm(Tensor(seq, dtype=np.float64), fwd, bwd).data
    flipped = _bilstm(Tensor(seq[::-1].copy(), dtype=np.float64), bwd, fwd).data
    # reversing time and swapping directions reverses the output and swaps halves
    np.testing.assert_allclose(out[..., :3], flipped[::-1, :, 3:], rtol=1e-12)
    np.testing.assert_allclose(out[..., 3:], flipped[::-1, :, :3], rtol=1e-12)


def test_bilstm_matches_unrolled_chain():
    rng = np.random.default_rng(6)
    fwd = cell_params(rng, 3, 4, dtype=np.float64)
    bwd = cell_params(rng, 3, 4, dtype=np.float64)
    seq = rng.standard_normal((3, 2, 3))
    out = _bilstm(Tensor(seq, dtype=np.float64), fwd, bwd).data
    expected = np.concatenate(
        [_oracle_sequence(seq, fwd), _oracle_sequence(seq, bwd, reverse=True)], axis=2
    )
    np.testing.assert_allclose(out, expected, rtol=1e-10)


def test_bilstm_rejects_wrong_rank():
    rng = np.random.default_rng(1)
    p = cell_params(rng, 2, 2)
    with pytest.raises(ShapeError):
        _bilstm(Tensor(np.ones((2, 2))), p, p)


# a DPRNN chunk batch: T steps of B sequences, recipe sizes In=64, H=128
_RECIPE = dict(steps=46, batch=45, in_dim=64, hid=128)


def _recipe_case(seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    p = cell_params(rng, _RECIPE["in_dim"], _RECIPE["hid"], dtype=dtype)
    xs = rng.standard_normal((_RECIPE["steps"], _RECIPE["batch"], _RECIPE["in_dim"]))
    return rng, p, xs.astype(dtype)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_float32_matches_float64(reverse):
    _, p, xs = _recipe_case(10)
    p64 = tuple(Tensor(t.data, dtype=np.float64) for t in p)
    h32 = _half(_bilstm(Tensor(xs), p, p).data, reverse)
    h64 = _half(_bilstm(Tensor(xs, dtype=np.float64), p64, p64).data, reverse)
    assert h32.dtype == np.float32
    assert np.max(np.abs(h32 - h64)) < 1e-5


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_saturates_gates_exactly(reverse):
    # input 0 at +-1000 through unit weights puts every preactivation beyond
    # +-900, far past what the other inputs, the bias and wh @ h (|h| <= 1,
    # orthogonal blocks) can add, so each gate is the step of its sign in both
    # directions
    rng, p, xs = _recipe_case(11)
    signs = rng.choice([-1.0, 1.0], size=4 * _RECIPE["hid"]).astype(np.float32)
    p[0].data[:, 0] = signs
    xs[:, :, 0] = 1000.0 * rng.choice([-1.0, 1.0], size=xs.shape[:2])
    xt = Tensor(xs, requires_grad=True)
    with nt.GradTape() as tape:
        out = _bilstm(xt, p, p)
        loss = tsum(out)
    tape.backward(loss)
    hs = _half(out.data, reverse)
    assert np.all(np.isfinite(hs))
    # gates of exactly 0 or 1 (and g of exactly +-1) keep c an integer
    on = np.sign(xs[:, :, :1]) * signs  # (T, B, 4H)
    hid = _RECIPE["hid"]
    gi, gf, gg, go = ((on[..., k * hid : (k + 1) * hid] > 0) for k in range(4))
    gg = np.where(gg, 1.0, -1.0)
    c = np.zeros(xs.shape[1:2] + (hid,), dtype=np.float32)
    expected = np.empty_like(hs)
    for t in (range(len(xs) - 1, -1, -1) if reverse else range(len(xs))):
        c = np.where(gf[t], c, 0.0) + np.where(gi[t], gg[t], 0.0)
        expected[t] = np.where(go[t], np.tanh(c.astype(np.float32)), 0.0)
    np.testing.assert_array_equal(hs, expected)
    # every gate derivative, s(1-s) or 1-g^2, is then exactly zero
    for leaf in (xt, *p):
        assert leaf.grad is not None and not np.any(leaf.grad)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_leaves_parameters_unchanged(reverse):
    rng, p, xs = _recipe_case(12)
    q = cell_params(rng, _RECIPE["in_dim"], _RECIPE["hid"])
    before = [t.data.copy() for t in p]
    xt = Tensor(xs, requires_grad=True)
    with nt.GradTape() as tape:
        loss = tsum(_bilstm(xt, *((q, p) if reverse else (p, q))))
    tape.backward(loss)
    for name, t, saved in zip(("wx", "wh", "b"), p, before):
        assert t.data.tobytes() == saved.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("steps", [1, 2, 37], ids=["below", "equal", "above"])
def test_lstm_sequence_without_tape_matches_recorded_output(dtype, reverse, steps):
    # T below, equal to and above B=2, so a mix-up of the step and batch axes
    # cannot hide behind a square shape; T=1 reads only the zero initial state
    batch, in_dim, hid = 2, 5, 32
    rng = np.random.default_rng(13)
    p = cell_params(rng, in_dim, hid, dtype=dtype)
    xs = Tensor(rng.standard_normal((steps, batch, in_dim)), dtype=dtype, requires_grad=True)
    plain = _half(_bilstm(xs, p, p).data, reverse)
    with nt.GradTape() as tape:
        recorded = _half(_bilstm(xs, p, p).data, reverse)
    assert len(tape) == 1
    assert plain.dtype == recorded.dtype
    np.testing.assert_array_equal(plain, recorded)


def _fc(rng, n, hid, dtype=np.float32):
    """A trainable FC 2H -> N: weight (N, 2H) and bias (N,)."""
    weight = Tensor(rng.standard_normal((n, 2 * hid)) / np.sqrt(2 * hid), dtype=dtype,
                    requires_grad=True)
    return weight, Tensor(rng.standard_normal(n), dtype=dtype, requires_grad=True)


def test_bilstm_is_one_tape_node():
    # both directions and the FC after them
    rng = np.random.default_rng(15)
    fwd, bwd = cell_params(rng, 3, 4), cell_params(rng, 3, 4)
    xs = Tensor(rng.standard_normal((6, 2, 3)), dtype=np.float32, requires_grad=True)
    with nt.GradTape() as tape:
        out = nt.bilstm_batched(xs, fwd + bwd, *_fc(rng, 3, 4), 0)
    assert out.shape == (6, 2, 3)
    assert [name for name, _, _ in tape._nodes] == ["bilstm"]


def test_bilstm_rejects_mismatched_hidden_sizes():
    rng = np.random.default_rng(16)
    with pytest.raises(ShapeError):
        _bilstm(Tensor(np.ones((2, 2, 3))), cell_params(rng, 3, 4),
                cell_params(rng, 3, 5))


def test_bilstm_rejects_mismatched_fc():
    # the weight must read 2H features, and the bias match its N rows
    rng = np.random.default_rng(16)
    p = cell_params(rng, 3, 4)
    xs = Tensor(np.ones((2, 2, 3)))
    weight, bias = _fc(rng, 5, 4)
    for w, b in (
        (Tensor(np.ones((5, 6))), bias),
        (Tensor(np.ones(8)), bias),
        (weight, Tensor(np.ones(4))),
        (weight, Tensor(np.ones((5, 1)))),
    ):
        with pytest.raises(ShapeError):
            nt.bilstm_batched(xs, p + p, w, b, 0)


def test_bilstm_without_tape_holds_little_beyond_its_output():
    # no (T+1, B, H) state buffers, no (T, B, 4H) activations and no
    # concatenation: beyond the output, only per-step (H, B)-sized buffers
    # and the working weights
    steps, batch, in_dim, hid = 256, 64, 8, 64
    out_bytes = steps * batch * 2 * hid * 4  # (T, B, 2H) float32: 8 MiB
    rng = np.random.default_rng(17)
    fwd, bwd = cell_params(rng, in_dim, hid), cell_params(rng, in_dim, hid)
    xs = Tensor(rng.standard_normal((steps, batch, in_dim)), dtype=np.float32)
    fc = _identity_fc(hid)
    tracemalloc.start()
    try:
        out = nt.bilstm_batched(xs, fwd + bwd, *fc, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (steps, batch, 2 * hid)
    assert peak < 1.1 * out_bytes


def test_bilstm_without_tape_forms_no_hidden_state_array():
    # with N = 2H/8 the (T, B, N) output is 1 MiB, and each step projects its
    # h straight into it, so nothing near one (T, B, 2H) array of hidden
    # states (8 MiB) is ever allocated
    steps, batch, hid, n = 256, 64, 64, 16
    hs_bytes = steps * batch * 2 * hid * 4
    rng = np.random.default_rng(18)
    fwd, bwd = cell_params(rng, n, hid), cell_params(rng, n, hid)
    xs = Tensor(rng.standard_normal((steps, batch, n)), dtype=np.float32)
    fc = _fc(rng, n, hid)
    tracemalloc.start()
    try:
        out = nt.bilstm_batched(xs, fwd + bwd, *fc, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (steps, batch, n)
    assert peak < hs_bytes / 2


def test_recorded_bilstm_keeps_only_gates():
    # under a tape each direction keeps its (T, 4H, B) gates and nothing
    # else; backward rebuilds c and h from them, so neither the (T+1, H, B)
    # cell states (2 MiB here for both directions) nor a (T, B, 2H) history
    # of h outlives the forward
    steps, batch, in_dim, hid, n = 128, 32, 8, 64, 8
    out_bytes = steps * batch * n * 4
    gates_bytes = 2 * steps * 4 * hid * batch * 4
    cells_bytes = 2 * (steps + 1) * hid * batch * 4
    rng = np.random.default_rng(21)
    fwd, bwd = cell_params(rng, in_dim, hid), cell_params(rng, in_dim, hid)
    xs = Tensor(rng.standard_normal((steps, batch, in_dim)), dtype=np.float32)
    fc = _fc(rng, n, hid)
    tracemalloc.start()
    try:
        with nt.GradTape() as tape:
            out = nt.bilstm_batched(xs, fwd + bwd, *fc, 0)
            held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape) == 1 and out.shape == (steps, batch, n)
    assert held < out_bytes + gates_bytes + cells_bytes / 2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilstm_fc_without_tape_matches_recorded_output(dtype):
    # a general FC: the untaped op runs the same per-step arithmetic as the
    # taped one, which also keeps its gates
    rng = np.random.default_rng(19)
    fwd, bwd = (cell_params(rng, 5, 32, dtype=dtype) for _ in range(2))
    fc = _fc(rng, 7, 32, dtype=dtype)
    xs = Tensor(rng.standard_normal((37, 2, 5)), dtype=dtype)
    plain = nt.bilstm_batched(xs, fwd + bwd, *fc, 0).data
    with nt.GradTape() as tape:
        recorded = nt.bilstm_batched(xs, fwd + bwd, *fc, 0).data
    assert len(tape) == 1
    assert plain.dtype == recorded.dtype == dtype
    np.testing.assert_array_equal(plain, recorded)


def test_bilstm_fc_matches_affine_over_hidden_states():
    # values and every gradient agree with the identity-FC op followed by
    # `affine`, the FC as a separate op
    rng = np.random.default_rng(20)
    fwd, bwd = (cell_params(rng, 4, 6, dtype=np.float64) for _ in range(2))
    weight, bias = _fc(rng, 4, 6, dtype=np.float64)
    xs = Tensor(rng.standard_normal((9, 3, 4)), dtype=np.float64, requires_grad=True)
    leaves = [xs, weight, bias, *fwd, *bwd]
    results = []
    for fused in (True, False):
        with nt.GradTape() as tape:
            if fused:
                out = nt.bilstm_batched(xs, fwd + bwd, weight, bias, 0)
            else:
                out = affine(_bilstm(xs, fwd, bwd), weight, bias)
            loss = tsum(mul(out, out))
        tape.backward(loss)
        results.append([out.data] + [t.grad for t in leaves])
        for t in leaves:
            t.zero_grad()
    for fused, separate in zip(*results):
        np.testing.assert_allclose(fused, separate, rtol=0, atol=1e-13 * np.abs(separate).max())


def test_bilstm_axis1_is_axis0_on_the_transposed_input():
    # along axis 1 the op runs the K sequences of S steps in place; axis 0 on
    # the contiguous transpose runs the same arithmetic, so the output agrees
    # bit for bit and the gradients up to the order of backward's reductions
    rng = np.random.default_rng(21)
    fwd, bwd = (cell_params(rng, 4, 5, dtype=np.float64) for _ in range(2))
    weight, bias = _fc(rng, 4, 5, dtype=np.float64)
    x = rng.standard_normal((6, 3, 4))
    params = [*fwd, *bwd, weight, bias]
    results = []
    for axis, data in ((1, x), (0, x.transpose(1, 0, 2).copy())):
        xs = Tensor(data, dtype=np.float64, requires_grad=True)
        plain = nt.bilstm_batched(xs, fwd + bwd, weight, bias, axis).data
        with nt.GradTape() as tape:
            out = nt.bilstm_batched(xs, fwd + bwd, weight, bias, axis)
            loss = tsum(mul(out, out))
        tape.backward(loss)
        np.testing.assert_array_equal(plain, out.data)
        swap = (lambda a: a) if axis == 1 else (lambda a: a.transpose(1, 0, 2))
        results.append([swap(out.data), swap(xs.grad)] + [t.grad for t in params])
        for t in params:
            t.zero_grad()
    along, swapped = results
    assert along[0].shape == (6, 3, 4)
    np.testing.assert_array_equal(along[0], swapped[0])
    assert len(along) == 1 + 9
    for got, want in zip(along[1:], swapped[1:]):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


def test_bilstm_rejects_an_axis_other_than_0_or_1():
    p = _zero_params(3, 4)
    for axis in (2, -1):
        with pytest.raises(ShapeError):
            nt.bilstm_batched(Tensor(np.zeros((5, 2, 3))), p + p,
                              *_identity_fc(4), axis)


def test_bilstm_rejects_mixed_dtypes():
    rng = np.random.default_rng(22)
    fwd, bwd = cell_params(rng, 3, 4), cell_params(rng, 3, 4)
    xs = Tensor(rng.standard_normal((5, 2, 3)), dtype=np.float64)
    with pytest.raises(ShapeError, match="bilstm: mixed dtypes float64 vs float32"):
        nt.bilstm_batched(xs, fwd + bwd, *_fc(rng, 3, 4), 0)
