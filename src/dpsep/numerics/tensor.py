"""Dense tensors with reverse-mode differentiation on an explicit gradient tape.

Everything downstream (separator, losses, training) is expressed in the
operations defined here plus the custom ops registered through `apply_op`.
Forward values live in numpy arrays (float32 for training, float64 for
gradient checking); gradients accumulate into per-leaf buffers when a
`GradTape` replays its recorded operations in reverse order.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class NumericsError(RuntimeError):
    """Raised on numeric failures: non-finite values, tape misuse."""


_nan_checks = False


def set_nan_checks(enabled):
    """Toggle per-op scanning of outputs for NaN/Inf (debug aid)."""
    global _nan_checks
    _nan_checks = bool(enabled)


class Tensor:
    """N-dimensional numeric array with optional gradient tracking.

    `data` is a row-major numpy array of float32 or float64. `grad` is lazily
    allocated by the tape and always matches `data` in shape and dtype.
    Tensors are immutable after creation except for the grad buffer.
    """

    __slots__ = ("data", "requires_grad", "grad", "_is_leaf", "_tape")

    def __init__(self, data, dtype=np.float32, requires_grad=False):
        arr = np.asarray(data, dtype=dtype)
        if any(extent <= 0 for extent in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericsError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._is_leaf = True
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def _wrap(arr):
    """Fast internal constructor: wraps an ndarray produced by an op."""
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.grad = None
    t._is_leaf = True
    t._tape = None
    return t


class _TapeNode:
    __slots__ = ("name", "inputs", "outputs", "backward_fn")

    def __init__(self, name, inputs, outputs, backward_fn):
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.backward_fn = backward_fn


_TAPE_STACK = []


def recording_tape(inputs):
    """The tape that an op over `inputs` is recorded on, or None: the active
    tape, when one is active and some input needs grads."""
    if _TAPE_STACK and any(t.requires_grad for t in inputs):
        return _TAPE_STACK[-1]
    return None


class GradTape:
    """Ordered record of operations; replaying backward visits them in exact
    reverse recording order. Single-owner, one backward pass per tape."""

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, node):
        self._nodes.append(node)

    def backward(self, loss):
        """Populate the grad of every requires_grad leaf reachable from `loss`."""
        if self._consumed:
            raise NumericsError("backward already ran on this tape; record a new one")
        if not isinstance(loss, Tensor) or loss.shape != ():
            got = getattr(loss, "shape", type(loss))
            raise NumericsError(f"loss must be a scalar tensor, got shape {got}")
        if loss._tape is not self:
            raise NumericsError("loss was not produced under this tape (detached loss)")
        self._consumed = True

        # id -> [tensor, accumulated output gradient]; populated back-to-front.
        pending = {id(loss): [loss, np.ones((), dtype=loss.data.dtype)]}
        leaf_grads = {}
        # Drop each node once its backward has run: its saved arrays go at
        # once, and the consumed tape no longer forms a reference cycle with
        # its output tensors that only the cyclic GC would free.
        nodes, self._nodes = self._nodes, []
        while nodes:
            node = nodes.pop()
            entries = [pending.pop(id(o), None) for o in node.outputs]
            if all(e is None for e in entries):
                continue
            out_grads = [
                e[1] if e is not None else np.zeros_like(o.data)
                for e, o in zip(entries, node.outputs)
            ]
            in_grads = node.backward_fn(*out_grads)
            for t, g in zip(node.inputs, in_grads):
                if g is None:
                    continue
                store = leaf_grads if t._is_leaf else pending
                if t._is_leaf and not t.requires_grad:
                    continue
                entry = store.get(id(t))
                if entry is None:
                    store[id(t)] = [t, np.array(g, copy=True)]
                else:
                    entry[1] += g
        for t, g in leaf_grads.values():
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g


def apply_op(name, inputs, forward_fn, backward_fn):
    """Run a differentiable operation and record it on the active tape.

    `forward_fn()` returns one ndarray or a tuple of ndarrays. `backward_fn`
    receives one gradient array per output (zeros for unused outputs) and
    returns one gradient array (or None) per input, each a fresh array.
    Recording happens only when a tape is active and some input needs grads.
    """
    if _nan_checks:
        # surveillance replaces numpy's overflow warnings with a named abort
        with np.errstate(over="ignore", invalid="ignore"):
            out_data = forward_fn()
    else:
        out_data = forward_fn()
    single = not isinstance(out_data, tuple)
    if single:
        out_data = (out_data,)
    if _nan_checks:
        for arr in out_data:
            if not np.all(np.isfinite(arr)):
                raise NumericsError(f"non-finite values produced by op '{name}'")
    outputs = tuple(_wrap(arr) for arr in out_data)

    tape = recording_tape(inputs)
    if tape is not None:
        for o in outputs:
            o.requires_grad = True
            o._is_leaf = False
            o._tape = tape
        tape._record(_TapeNode(name, tuple(inputs), outputs, backward_fn))
    return outputs[0] if single else outputs


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return _wrap(np.asarray(x, dtype=like.dtype))


def _check_same_dtype(name, a, b):
    if a.data.dtype != b.data.dtype:
        raise ShapeError(
            f"{name}: mixed dtypes {a.data.dtype.name} vs {b.data.dtype.name}; cast explicitly"
        )


def _broadcast_spec(name, a_shape, b_shape):
    """Validate numpy's broadcast rule for equal-rank operands (or a 0-d
    scalar on either side) and return the axes each operand is expanded along.
    """
    if a_shape == b_shape:
        return (), ()
    if a_shape == ():
        return ("scalar",), ()
    if b_shape == ():
        return (), ("scalar",)
    if len(a_shape) != len(b_shape):
        raise ShapeError(f"{name}: rank mismatch {a_shape} vs {b_shape} (reshape explicitly)")
    a_axes, b_axes = [], []
    for i, (da, db) in enumerate(zip(a_shape, b_shape)):
        if da == db:
            continue
        if da == 1:
            a_axes.append(i)
        elif db == 1:
            b_axes.append(i)
        else:
            raise ShapeError(f"{name}: incompatible shapes {a_shape} vs {b_shape}")
    return tuple(a_axes), tuple(b_axes)


def _unbroadcast(g, axes):
    if not axes:
        return np.array(g, copy=True)
    if axes == ("scalar",):
        return np.asarray(g.sum())
    return g.sum(axis=axes, keepdims=True)


def _binary(name, a, b, fwd, da_fn, db_fn):
    if isinstance(a, Tensor):
        b = _as_tensor(b, a)
    else:
        a = _as_tensor(a, b)
    _check_same_dtype(name, a, b)
    a_axes, b_axes = _broadcast_spec(name, a.shape, b.shape)
    ad, bd = a.data, b.data

    def backward_fn(g):
        ga = _unbroadcast(da_fn(g, ad, bd), a_axes) if _needs(a) else None
        gb = _unbroadcast(db_fn(g, ad, bd), b_axes) if _needs(b) else None
        return ga, gb

    return apply_op(name, (a, b), lambda: fwd(ad, bd), backward_fn)


def _needs(t):
    return t.requires_grad or not t._is_leaf


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b):
    return _binary(
        "mul", a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x
    )


def div(a, b):
    return _binary(
        "div",
        a,
        b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
    )


def relu(x):
    return apply_op("relu", (x,), lambda: np.maximum(x.data, 0), lambda g: (g * (x.data > 0),))


def tanh(x):
    out = None

    def forward_fn():
        nonlocal out
        out = np.tanh(x.data)
        return out

    return apply_op("tanh", (x,), forward_fn, lambda g: (g * (1.0 - out * out),))


def log(x):
    def forward_fn():
        if np.any(x.data <= 0):
            raise NumericsError("log requires strictly positive input")
        return np.log(x.data)

    return apply_op("log", (x,), forward_fn, lambda g: (g / x.data,))


def sqrt(x):
    out = None

    def forward_fn():
        nonlocal out
        if np.any(x.data < 0):
            raise NumericsError("sqrt requires nonnegative input")
        out = np.sqrt(x.data)
        return out

    return apply_op("sqrt", (x,), forward_fn, lambda g: (g * 0.5 / out,))


def tsum(x, axis=None):
    """Sum over all entries (axis=None, scalar output) or over the given axes,
    which are kept with extent 1."""
    if axis is None:
        def backward_fn(g):
            return (np.full(x.shape, g, dtype=x.data.dtype),)

        return apply_op("sum", (x,), lambda: np.array(x.data.sum()), backward_fn)

    def backward_axis_fn(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return apply_op("sum", (x,), lambda: x.data.sum(axis=axis, keepdims=True), backward_axis_fn)


def tmean(x, axis=None):
    total = tsum(x, axis)
    # an int ratio divides exactly once, so this is 1/n correctly rounded
    return mul(total, total.size / x.size)


def affine(x, weight, bias=None):
    """out = weight . x (+ bias) over the last axis of x.

    x: (..., In), weight: (Out, In), bias: (Out,) or None -> (..., Out).
    """
    in_dim = x.shape[-1]
    if weight.data.ndim != 2 or weight.shape[1] != in_dim:
        raise ShapeError(
            f"affine: weight shape {weight.shape} does not match input shape {x.shape}"
        )
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(
            f"affine: bias shape {bias.shape} does not match weight shape {weight.shape}"
        )
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, in_dim)
    wd = weight.data

    def forward_fn():
        y = x2 @ wd.T
        if bias is not None:
            y += bias.data
        return y.reshape(lead + (wd.shape[0],))

    def backward_fn(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = (g2 @ wd).reshape(x.shape) if _needs(x) else None
        gw = g2.T @ x2 if _needs(weight) else None
        if bias is not None and _needs(bias):
            gb = g2.sum(axis=0)
        else:
            gb = None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return apply_op("affine", inputs, forward_fn, backward_fn)


def reshape(x, shape):
    shape = tuple(shape)

    def backward_fn(g):
        return (g.reshape(x.shape),)

    return apply_op("reshape", (x,), lambda: x.data.reshape(shape).copy(), backward_fn)


def transpose(x, axes):
    axes = tuple(axes)
    inv = tuple(int(i) for i in np.argsort(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return apply_op(
        "transpose", (x,), lambda: np.ascontiguousarray(x.data.transpose(axes)), backward_fn
    )


def slice_axis(x, axis, start, stop):
    """Contiguous slice [start:stop) along one axis."""
    idx = tuple(slice(None) if a != axis else slice(start, stop) for a in range(x.data.ndim))

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return apply_op("slice", (x,), lambda: x.data[idx].copy(), backward_fn)


def pad_last_axis(x, total):
    """Zero-pad the last axis up to length `total` (no-op if already there)."""
    cur = x.shape[-1]
    if cur == total:
        return x
    if cur > total:
        raise ShapeError(f"pad_last_axis: input length {cur} exceeds target {total}")
    widths = [(0, 0)] * (x.data.ndim - 1) + [(0, total - cur)]
    idx = tuple([slice(None)] * (x.data.ndim - 1) + [slice(0, cur)])

    def backward_fn(g):
        return (np.ascontiguousarray(g[idx]),)

    return apply_op("pad", (x,), lambda: np.pad(x.data, widths), backward_fn)
