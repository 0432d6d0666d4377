"""Core tensor ops: elementwise semantics, tape backward, broadcasting rules, the
reference ops of `reference.py`, and the public surface of `numerics`."""

import ast
import gc
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from dpsep import numerics as nt
from dpsep.numerics import GradTape, NumericsError, ShapeError, Tensor
from reference import (
    add,
    affine,
    div,
    log,
    mul,
    pad_last_axis,
    relu,
    reshape,
    slice_axis,
    sqrt,
    tsum,
)


def test_tensor_shape_data_invariant():
    t = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
    assert t.shape == (2, 3)
    assert t.size == 6
    assert t.data.dtype == np.float32


def test_tensor_dtype_rule():
    # a float32 or float64 array keeps its dtype, and its gradient has it too;
    # anything else becomes float32; an explicit dtype converts
    x = Tensor(np.arange(3.0), requires_grad=True)
    assert x.dtype == np.float64
    with GradTape() as tape:
        loss = tsum(mul(x, x))
    tape.backward(loss)
    assert x.grad.dtype == np.float64
    assert Tensor(np.ones(2, dtype=np.float32)).dtype == np.float32
    for data in ([1.0, 2.0], 1.5, np.arange(3), np.array([True])):
        assert Tensor(data).dtype == np.float32
    assert Tensor(np.ones(2, dtype=np.float32), dtype=np.float64).dtype == np.float64
    assert Tensor(np.ones(2), dtype=np.float32).dtype == np.float32


@pytest.mark.parametrize(
    "name, make",
    [
        ("int32", lambda: Tensor([1, 2], dtype=np.int32, requires_grad=True)),
        ("float16", lambda: Tensor([1.0, 2.0], dtype=np.float16)),
        ("float16", lambda: Tensor(np.ones(2, dtype=np.float16))),
        ("complex64", lambda: Tensor(np.ones(2, dtype=np.complex64))),
    ],
    ids=["int32-dtype", "float16-dtype", "float16-array", "complex64-array"],
)
def test_tensor_rejects_other_dtypes(name, make):
    with pytest.raises(ShapeError, match=f"float32 or float64, got {name}"):
        make()


def test_tensor_rejects_zero_extent():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 0)))


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericsError):
        Tensor([1.0, np.nan])


def test_relu_trivial():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_keeps_its_output_not_its_input(dtype):
    # backward masks with out > 0, which is x > 0 at zeros of either sign
    # and at negatives, so the tape need not keep the input array
    values = np.array([-3.0, -1e-30, -0.0, 0.0, 1e-30, 2.5], dtype=dtype)
    leaf = Tensor(values, dtype=dtype, requires_grad=True)
    g = np.random.default_rng(7).standard_normal(values.shape).astype(dtype)
    with GradTape() as tape:
        x = mul(leaf, 1.0)  # a recorded input whose array only relu reads
        input_array = weakref.ref(x.data)
        out = relu(x)
        del x
        gc.collect()
        assert input_array() is None
        loss = tsum(mul(out, Tensor(g, dtype=dtype)))
    tape.backward(loss)
    # bit for bit, signed zeros included, against the input mask
    assert leaf.grad.tobytes() == (g * (values > 0)).tobytes()


def test_mul_identity():
    x = Tensor([1.5, -2.0, 3.0])
    out = mul(x, Tensor(np.ones(3), dtype=np.float32))
    np.testing.assert_array_equal(out.data, x.data)


def test_affine_identity():
    x = Tensor([1.0, 2.0])
    w = Tensor(np.eye(2), dtype=np.float32)
    b = Tensor([0.0, 0.0])
    np.testing.assert_array_equal(affine(x, w, b).data, [1.0, 2.0])


def test_affine_sum_plus_bias():
    out = affine(Tensor([1.0, 1.0]), Tensor([[1.0, 1.0]]), Tensor([3.0]))
    np.testing.assert_array_equal(out.data, [5.0])


def test_affine_matches_scalar_loop_oracle():
    rng = np.random.default_rng(3)
    w = rng.standard_normal((3, 2)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    x = rng.standard_normal(2).astype(np.float32)
    # scalar-loop oracle: hand-rolled dot products
    expected = np.array(
        [sum(w[i, j] * x[j] for j in range(2)) + b[i] for i in range(3)],
        dtype=np.float32,
    )
    got = affine(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(got.data, expected, rtol=1e-6)


def test_affine_adds_its_bias_in_place():
    # the matmul's result is the only full-size array the forward makes
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((4096, 64)))
    w, b = Tensor(rng.standard_normal((64, 64))), Tensor(rng.standard_normal(64))
    tracemalloc.start()
    try:
        out = affine(x, w, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (4096, 64)
    assert peak < 1.5 * out.data.nbytes


def test_affine_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        affine(Tensor(np.ones(3)), Tensor(np.ones((2, 2))))
    assert "(2, 2)" in str(exc.value) and "(3,)" in str(exc.value)


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(x)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones(4, dtype=np.float32))


def test_backward_sum_of_squares_gives_two_x():
    x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
    with GradTape() as tape:
        loss = tsum(mul(x, x))
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 1.0], requires_grad=True)
    for _ in range(2):
        with GradTape() as tape:
            loss = tsum(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    x.zero_grad()
    assert x.grad is None


def test_backward_rejects_non_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        y = mul(x, x)
    with pytest.raises(NumericsError):
        tape.backward(y)


def test_backward_rejects_detached_loss():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        tsum(x)
    with GradTape():
        other = tsum(x)
    with pytest.raises(NumericsError):
        tape.backward(other)


def test_backward_rejects_repeat():
    x = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = tsum(x)
    tape.backward(loss)
    with pytest.raises(NumericsError):
        tape.backward(loss)


def test_backward_releases_the_graph_without_the_cyclic_gc():
    # sqrt's backward reads its own output, so its node keeps that array
    x = Tensor([0.5, 1.0], requires_grad=True)
    gc.disable()
    try:
        with GradTape() as tape:
            hidden = sqrt(x)
            loss = tsum(hidden)
        saved = weakref.ref(hidden.data)
        del hidden
        tape.backward(loss)
        assert len(tape) == 0
        assert saved() is None
    finally:
        gc.enable()


def test_add_node_keeps_no_operand_array():
    # add's backward reads neither operand: under a live tape a recorded
    # operand's array and a constant's go with their tensors
    x = Tensor(np.ones(3), requires_grad=True)
    gc.disable()
    try:
        with GradTape() as tape:
            a = mul(x, 2.0)
            b = Tensor(np.full(3, 0.5))
            out = add(a, b)
            arrays = [weakref.ref(a.data), weakref.ref(b.data)]
            del a, b
            assert all(ref() is None for ref in arrays)
            loss = tsum(out)
        tape.backward(loss)
    finally:
        gc.enable()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0, dtype=np.float32))


def test_gradients_of_tensors_read_by_two_nodes_are_summed():
    # the leaf x feeds h = 3x and h * x; the recorded h feeds h * x and 2h.
    # loss = sum(3x^2 + 6x), so the gradient is 6x + 6, exact in float64
    x = Tensor([1.0, -2.0, 0.5], dtype=np.float64, requires_grad=True)
    with GradTape() as tape:
        h = mul(x, 3.0)
        loss = tsum(add(mul(h, x), mul(h, 2.0)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [12.0, -6.0, 9.0])


def test_broadcast_trailing_singleton():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    z = Tensor(np.full((2, 1, 1), 2.0), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(mul(x, z))
    assert float(loss.data) == pytest.approx(48.0)
    tape.backward(loss)
    np.testing.assert_array_equal(z.grad, np.full((2, 1, 1), 12.0))
    np.testing.assert_array_equal(x.grad, np.full((2, 3, 4), 2.0))


def test_broadcast_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    s = Tensor(np.asarray(3.0), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(mul(x, s))
    tape.backward(loss)
    assert float(s.grad) == pytest.approx(4.0)


def test_broadcast_leading_and_mixed_singletons():
    rng = np.random.default_rng(3)
    a_data = rng.standard_normal((1, 3, 1))
    b_data = rng.standard_normal((2, 1, 4))
    a = Tensor(a_data, dtype=np.float64, requires_grad=True)
    b = Tensor(b_data, dtype=np.float64, requires_grad=True)
    g = rng.standard_normal((2, 3, 4))
    with GradTape() as tape:
        out = mul(a, b)
        loss = tsum(mul(out, g))
    np.testing.assert_array_equal(out.data, a_data * b_data)
    tape.backward(loss)
    np.testing.assert_array_equal(a.grad, (g * b_data).sum(axis=(0, 2), keepdims=True))
    np.testing.assert_array_equal(b.grad, (g * a_data).sum(axis=1, keepdims=True))


def test_broadcast_rejects_incompatible_extents():
    with pytest.raises(ShapeError) as exc:
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))
    assert "incompatible" in str(exc.value)


def test_broadcast_rejects_rank_mismatch():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def test_mixed_dtypes_rejected():
    with pytest.raises(ShapeError):
        add(Tensor(np.ones(2), dtype=np.float32), Tensor(np.ones(2)))


def test_affine_rejects_mixed_dtypes():
    x = Tensor(np.ones((2, 3)), dtype=np.float32)
    weight = Tensor(np.ones((4, 3)), dtype=np.float32)
    with pytest.raises(ShapeError, match="affine: mixed dtypes float32 vs float64"):
        affine(x, Tensor(np.ones((4, 3)), dtype=np.float64))
    with pytest.raises(ShapeError, match="affine: mixed dtypes float32 vs float64"):
        affine(x, weight, Tensor(np.ones(4), dtype=np.float64))


def test_reshape_shares_memory_and_keeps_its_gradient():
    x = Tensor(np.arange(6.0), dtype=np.float64, requires_grad=True)
    with GradTape() as tape:
        y = reshape(x, (2, 3))
        loss = tsum(mul(y, Tensor(np.arange(6.0).reshape(2, 3), dtype=np.float64)))
    assert np.shares_memory(y.data, x.data)
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.arange(6.0))


def test_nan_surveillance_names_op():
    x = Tensor([1e30], requires_grad=True)
    with GradTape():
        with pytest.raises(NumericsError) as exc:
            mul(x, x)  # overflows float32
    assert "'mul'" in str(exc.value)


@pytest.mark.parametrize("data", [[1e39], np.array([1e39, -1.0]), np.array([[1e300]])])
def test_cast_that_overflows_raises_without_a_numpy_warning(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite"):
            Tensor(data, dtype=np.float32)


def test_backward_names_the_op_whose_gradient_overflows():
    # the forward is finite (1e20), but div's gradient for its divisor,
    # -1 / x^2, overflows float32 at x = 1e-20
    x = Tensor(np.array([1e-20, 1.0], dtype=np.float32), requires_grad=True)
    with GradTape() as tape:
        loss = tsum(div(1.0, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and shows no numpy warning
        with pytest.raises(NumericsError, match="non-finite gradient produced by op 'div'"):
            tape.backward(loss)


@pytest.mark.parametrize(
    "op, bad, message",
    [
        (log, [1.0, 0.0], "'log'"),
        (sqrt, [1.0, -1.0], "'sqrt'"),
    ],
    ids=["log", "sqrt"],
)
def test_domain_error_records_nothing(op, bad, message):
    x = Tensor(bad, requires_grad=True)
    with GradTape() as tape:
        with pytest.raises(NumericsError, match=message):
            op(x)
    assert len(tape) == 0


def test_no_recording_without_tape():
    x = Tensor([1.0], requires_grad=True)
    y = mul(x, x)
    assert not y.requires_grad  # nothing to attach gradients to


def test_tape_determinism_bit_identical():
    rng = np.random.default_rng(11)
    data = rng.standard_normal((4, 5)).astype(np.float32)
    results = []
    for _ in range(2):
        x = Tensor(data, requires_grad=True)
        with GradTape() as tape:
            y = tsum(sqrt(add(mul(x, x), 1.0)))
        tape.backward(y)
        results.append((float(y.data), x.grad.copy()))
    assert results[0][0] == results[1][0]
    assert np.array_equal(results[0][1], results[1][1])


def test_slice_axis_values_and_gradient():
    x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4), requires_grad=True)
    with GradTape() as tape:
        left = slice_axis(x, 1, 0, 2)
        right = slice_axis(x, 1, 2, 3)
        loss = add(tsum(mul(left, left)), tsum(mul(right, right)))
    np.testing.assert_array_equal(left.data, x.data[:, :2])
    np.testing.assert_array_equal(right.data, x.data[:, 2:3])
    tape.backward(loss)
    # columns 0..2 were read, column 3 was not
    expected = 2 * x.data
    expected[:, 3] = 0
    np.testing.assert_array_equal(x.grad, expected)


def test_pad_last_axis():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with GradTape() as tape:
        y = pad_last_axis(x, 5)
        loss = tsum(y)
    assert y.shape == (2, 5)
    np.testing.assert_array_equal(y.data[:, 3:], np.zeros((2, 2)))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_every_public_numerics_name_has_a_caller_in_src():
    # an op that only tests call belongs in tests/reference.py, not in the
    # package: every name of `numerics.__all__` is read somewhere in
    # src/dpsep outside its own definition and the package's re-exports
    src = Path(nt.__file__).resolve().parent.parent
    used = set()
    for path in src.rglob("*.py"):
        if path == Path(nt.__file__).resolve():
            continue
        tree = ast.parse(path.read_text())
        definitions = {
            node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in nt.__all__
        }
        stack = [node for node in tree.body if node not in definitions]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
    assert sorted(set(nt.__all__) - used) == []
