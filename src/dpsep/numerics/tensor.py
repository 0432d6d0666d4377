"""Dense tensors with reverse-mode differentiation on an explicit gradient tape.

Every differentiable stage downstream (the separator's stages, the BLSTM,
the uPIT loss and the batch mean of training) is one op run through
`apply_op`.
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
    two private exceptions, each over an array that only the writing op
    reads: with no tape recording them, the global layer norm of
    `dualpath._sub_pass` writes over the BLSTM output and the `apply_masks`
    of `tasnet.separate` over the masks.
    """

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_slot")

    def __init__(self, data, dtype=None, requires_grad=False):
        if dtype is None:
            keep = isinstance(data, np.ndarray) and data.dtype.kind not in "biu"
            dtype = data.dtype if keep else np.float32
        dtype = np.dtype(dtype)
        if dtype not in _FLOAT_DTYPES:
            raise ShapeError(f"tensor dtype must be float32 or float64, got {dtype.name}")
        with np.errstate(over="ignore"):  # a cast that overflows fails the check below
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

    Inputs of different dtypes raise a ShapeError naming the op before
    `forward_fn` runs. An output holding a NaN or an infinity raises a
    NumericsError naming the op, before anything is recorded and without
    numpy's warnings.
    """
    dtype = inputs[0].data.dtype
    for t in inputs[1:]:
        if t.data.dtype != dtype:
            raise ShapeError(
                f"{name}: mixed dtypes {dtype.name} vs {t.data.dtype.name}; cast explicitly"
            )
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

