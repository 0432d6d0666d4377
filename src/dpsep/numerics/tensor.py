"""Dense tensors with reverse-mode differentiation on an explicit gradient tape.

Everything downstream (separator, losses, training) is expressed in the
operations defined here plus the custom ops registered through `apply_op`.
Forward values live in numpy arrays (float32 for training, float64 for
gradient checking); gradients accumulate into per-leaf buffers when a
`GradTape` replays its recorded operations in reverse order.

A tape node is (name, refs, backward_fn). Per input, `refs` holds its slot
(the index of the node that made it) if it was recorded on the same tape, the
Tensor itself if it is a leaf that needs grads, and None otherwise. So the
tape holds no recorded tensor: a node keeps only what backward_fn reads.
"""

from __future__ import annotations

import numpy as np

from .. import NumericFault, ShapeError


class NumericsError(NumericFault):
    """Raised on numeric failures: non-finite values, tape misuse."""


_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """N-dimensional numeric array with optional gradient tracking.

    `data` is a row-major numpy array of float32 or float64. A float32 or
    float64 ndarray keeps its dtype; any other input (Python scalars and
    lists, integer and boolean arrays) becomes float32; an explicit `dtype`
    converts. Any other dtype is a ShapeError. `grad` is lazily allocated by
    the tape and always matches `data` in shape and dtype.
    Tensors are immutable after creation except for the grad buffer, with
    three private exceptions, each over an array that only the writing op
    reads: the relu of `tasnet.encode` writes over the conv output; with no
    tape recording them, the global layer norm of `dualpath._sub_pass`
    writes over the BLSTM output and the `apply_masks` of `tasnet.separate`
    over the masks.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_slot")

    def __init__(self, data, dtype=None, requires_grad=False):
        if dtype is None:
            keep = isinstance(data, np.ndarray) and data.dtype.kind not in "biu"
            dtype = data.dtype if keep else np.float32
        dtype = np.dtype(dtype)
        if dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"tensor dtype must be float32 or float64, got {dtype.name}")
        arr = np.asarray(data, dtype=dtype)
        if any(extent <= 0 for extent in arr.shape):
            raise ShapeError(f"tensor extents must be positive, got shape {arr.shape}")
        if not _finite(arr):
            raise NumericsError("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None  # the tape that recorded this tensor; None for a leaf
        self._slot = None  # the index of its node on that tape

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


def _finite(arr):
    """Whether every entry of `arr` is finite. Its min and max are finite
    exactly when all its entries are, and unlike `np.isfinite` they allocate
    no temporary of its size."""
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _wrap(arr):
    """Fast internal constructor: wraps an ndarray produced by an op."""
    t = Tensor.__new__(Tensor)
    t.data = arr
    t.requires_grad = False
    t.grad = None
    t._tape = None
    t._slot = None
    return t


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

        # One gradient per slot, popped with its node: each node's saved
        # arrays go as soon as its backward has run. A gradient is copied the
        # first time it is stored, so backward_fns may return views. Each one
        # is scanned as it is stored or accumulated, so a non-finite gradient
        # names the op whose backward made it, without numpy's warnings.
        nodes, self._nodes = self._nodes, []
        grads = [None] * len(nodes)
        grads[loss._slot] = np.ones((), dtype=loss.data.dtype)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while nodes:
                name, refs, backward_fn = nodes.pop()
                grad = grads.pop()
                if grad is None:
                    continue
                for ref, g in zip(refs, backward_fn(grad)):
                    if ref is None or g is None:
                        continue
                    if isinstance(ref, Tensor):
                        if ref.grad is None:
                            ref.grad = np.array(g, dtype=ref.data.dtype, copy=True)
                        else:
                            ref.grad += g
                        stored = ref.grad
                    elif grads[ref] is None:
                        stored = grads[ref] = np.array(g, copy=True)
                    else:
                        stored = grads[ref]
                        stored += g
                    if not _finite(stored):
                        raise NumericsError(f"non-finite gradient produced by op '{name}'")


def _ref(t, tape):
    """How a node on `tape` names its input `t`."""
    if t._tape is tape:
        return t._slot
    return t if t._tape is None and t.requires_grad else None


def apply_op(name, inputs, forward_fn, backward_fn):
    """Run a differentiable operation and record it on the active tape.

    `forward_fn()` returns the output ndarray. `backward_fn` receives its
    gradient and returns one gradient array (or None) per input. It may
    return views, of its argument or of saved arrays: the tape copies a
    gradient the first time it stores it. Recording happens only when a tape
    is active and some input needs grads. `backward_fn` is kept until
    backward reaches it, so it should close over arrays, flags and shapes,
    never over input Tensors.

    An output holding a NaN or an infinity raises a NumericsError naming the
    op, before anything is recorded and without numpy's warnings.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out_data = forward_fn()
    if not _finite(out_data):
        raise NumericsError(f"non-finite values produced by op '{name}'")
    out = _wrap(out_data)

    tape = recording_tape(inputs)
    if tape is not None:
        refs = tuple(_ref(t, tape) for t in inputs)
        out.requires_grad = True
        out._tape = tape
        out._slot = len(tape)
        tape._record((name, refs, backward_fn))
    return out


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
        return g
    if axes == ("scalar",):
        return np.asarray(g.sum())
    return g.sum(axis=axes, keepdims=True)


def _binary(name, a, b, fwd, grad_fns):
    """`grad_fns(ad, bd)` gives, per operand, g -> its gradient before
    unbroadcasting. Backward keeps only the ones for operands needing grads."""
    if isinstance(a, Tensor):
        b = _as_tensor(b, a)
    else:
        a = _as_tensor(a, b)
    _check_same_dtype(name, a, b)
    a_axes, b_axes = _broadcast_spec(name, a.shape, b.shape)
    ad, bd = a.data, b.data
    da_fn, db_fn = grad_fns(ad, bd)
    da_fn = da_fn if a.requires_grad else None
    db_fn = db_fn if b.requires_grad else None

    def backward_fn(g):
        ga = None if da_fn is None else _unbroadcast(da_fn(g), a_axes)
        gb = None if db_fn is None else _unbroadcast(db_fn(g), b_axes)
        return ga, gb

    return apply_op(name, (a, b), lambda: fwd(ad, bd), backward_fn)


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y, lambda x, y: (lambda g: g, lambda g: g))


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y, lambda x, y: (lambda g: g, lambda g: -g))


def mul(a, b):
    return _binary(
        "mul", a, b, lambda x, y: x * y, lambda x, y: (lambda g: g * y, lambda g: g * x)
    )


def div(a, b):
    return _binary(
        "div",
        a,
        b,
        lambda x, y: x / y,
        lambda x, y: (lambda g: g / y, lambda g: -g * x / (y * y)),
    )


def relu(x, *, _overwrite=False):
    """max(x, 0). Backward keeps the output, not x: out > 0 exactly where
    x > 0. `_overwrite`, passed only by `tasnet.encode`, writes the output
    over x's array, which the caller must not read again."""
    xd = x.data
    out = None

    def forward_fn():
        nonlocal out
        out = np.maximum(xd, 0, out=xd if _overwrite else None)
        return out

    return apply_op("relu", (x,), forward_fn, lambda g: (g * (out > 0),))


def log(x):
    xd = x.data
    return apply_op("log", (x,), lambda: np.log(xd), lambda g: (g / xd,))


def sqrt(x):
    out = None

    def forward_fn():
        nonlocal out
        out = np.sqrt(x.data)
        return out

    return apply_op("sqrt", (x,), forward_fn, lambda g: (g * 0.5 / out,))


def tsum(x, axis=None):
    """Sum over all entries (axis=None, scalar output) or over the given axes,
    which are kept with extent 1."""
    shape = x.shape

    def backward_fn(g):
        return (np.broadcast_to(g, shape),)

    if axis is None:
        return apply_op("sum", (x,), lambda: np.array(x.data.sum()), backward_fn)
    return apply_op("sum", (x,), lambda: x.data.sum(axis=axis, keepdims=True), backward_fn)


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
    inputs = (x, weight) if bias is None else (x, weight, bias)
    for t in inputs[1:]:
        _check_same_dtype("affine", x, t)
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, in_dim)
    wd = weight.data
    bd = None if bias is None else bias.data
    need_x, need_w = x.requires_grad, weight.requires_grad
    need_b = bias is not None and bias.requires_grad

    def forward_fn():
        y = x2 @ wd.T
        if bd is not None:
            y += bd
        return y.reshape(lead + (wd.shape[0],))

    def backward_fn(g):
        g2 = g.reshape(-1, wd.shape[0])
        gx = (g2 @ wd).reshape(lead + (in_dim,)) if need_x else None
        gw = g2.T @ x2 if need_w else None
        gb = g2.sum(axis=0) if need_b else None
        return (gx, gw, gb) if bd is not None else (gx, gw)

    return apply_op("affine", inputs, forward_fn, backward_fn)


def reshape(x, shape):
    """x with a new shape. As with numpy's reshape, the output shares x's
    memory whenever its strides allow, so writing into one writes into the
    other."""
    shape, in_shape = tuple(shape), x.shape

    def backward_fn(g):
        return (g.reshape(in_shape),)

    return apply_op("reshape", (x,), lambda: x.data.reshape(shape), backward_fn)


def slice_axis(x, axis, start, stop):
    """Contiguous slice [start:stop) along one axis."""
    idx = tuple(slice(None) if a != axis else slice(start, stop) for a in range(x.data.ndim))
    shape, dtype = x.shape, x.dtype

    def backward_fn(g):
        gx = np.zeros(shape, dtype=dtype)
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
        return (g[idx],)

    return apply_op("pad", (x,), lambda: np.pad(x.data, widths), backward_fn)
