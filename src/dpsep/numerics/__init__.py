"""Tensors with reverse-mode differentiation: the gradient tape and
`apply_op`, through which every op runs, the BLSTM op, finite-difference
checking and the checkpoint format. The separator's own ops are defined in
`tasnet` and `dualpath`, the loss in `training`."""

from .checkpoint import CheckpointError, load_arrays, save_arrays
from .gradcheck import finite_diff_check
from .rnn import LstmCellParams, bilstm_batched, init_lstm_params
from .tensor import GradTape, NumericsError, ShapeError, Tensor, apply_op

__all__ = [
    "CheckpointError",
    "GradTape",
    "LstmCellParams",
    "NumericsError",
    "ShapeError",
    "Tensor",
    "apply_op",
    "bilstm_batched",
    "finite_diff_check",
    "init_lstm_params",
    "load_arrays",
    "save_arrays",
]
