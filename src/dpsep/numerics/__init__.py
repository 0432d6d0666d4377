"""Tensors with reverse-mode differentiation: the gradient tape and
`apply_op`, through which every op runs, the BLSTM op, finite-difference
checking and the checkpoint format. The separator's own ops are defined in
`tasnet` and `dualpath`, the loss in `training`."""

from .checkpoint import CheckpointError, load_arrays, save_arrays
from .gradcheck import finite_diff_check
from .rnn import bilstm_batched
from .tensor import GradTape, NumericsError, ShapeError, Tensor, apply_op

__all__ = [
    "CheckpointError",
    "GradTape",
    "NumericsError",
    "ShapeError",
    "Tensor",
    "apply_op",
    "bilstm_batched",
    "finite_diff_check",
    "load_arrays",
    "save_arrays",
]
