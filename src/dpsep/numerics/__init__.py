"""Tensor arithmetic with reverse-mode differentiation and recurrent primitives."""

from .checkpoint import CheckpointError, load_arrays, save_arrays
from .conv import conv1d, transposed_conv1d
from .gradcheck import finite_diff_check
from .rnn import LstmCellParams, bilstm_batched, init_lstm_params
from .tensor import (
    GradTape,
    NumericsError,
    ShapeError,
    Tensor,
    add,
    apply_op,
    mul,
    pad_last_axis,
    relu,
    reshape,
    slice_axis,
    tsum,
)

__all__ = [
    "CheckpointError",
    "GradTape",
    "LstmCellParams",
    "NumericsError",
    "ShapeError",
    "Tensor",
    "add",
    "apply_op",
    "bilstm_batched",
    "conv1d",
    "finite_diff_check",
    "init_lstm_params",
    "load_arrays",
    "mul",
    "pad_last_axis",
    "relu",
    "reshape",
    "save_arrays",
    "slice_axis",
    "transposed_conv1d",
    "tsum",
]
