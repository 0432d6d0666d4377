"""Tensor arithmetic with reverse-mode differentiation and recurrent primitives."""

from .checkpoint import CheckpointError, load_arrays, save_arrays
from .conv import conv1d, transposed_conv1d
from .gradcheck import FiniteDiffReport, finite_diff_check
from .rnn import LstmCellParams, bilstm_batched, init_lstm_params
from .tensor import (
    GradTape,
    NumericsError,
    ShapeError,
    Tensor,
    add,
    affine,
    apply_op,
    div,
    log,
    mul,
    pad_last_axis,
    relu,
    reshape,
    slice_axis,
    sqrt,
    sub,
    tmean,
    tsum,
)

__all__ = [
    "CheckpointError",
    "FiniteDiffReport",
    "GradTape",
    "LstmCellParams",
    "NumericsError",
    "ShapeError",
    "Tensor",
    "add",
    "affine",
    "apply_op",
    "bilstm_batched",
    "conv1d",
    "div",
    "finite_diff_check",
    "init_lstm_params",
    "load_arrays",
    "log",
    "mul",
    "pad_last_axis",
    "relu",
    "reshape",
    "save_arrays",
    "slice_axis",
    "sqrt",
    "sub",
    "tmean",
    "transposed_conv1d",
    "tsum",
]
