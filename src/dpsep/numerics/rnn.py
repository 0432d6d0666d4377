"""LSTM cells with packed weights and a whole-sequence recurrence op.

The cell uses the standard four-gate formulation (input, forget, cell, output;
no peepholes). Its weights are stored packed, as in cuDNN: the rows of each
tensor hold the gates in the order i, f, g, o. A sequence is one tape op: the
inputs are projected a block of steps at a time, the recurrence runs one matmul
per step, and backward runs the mirrored loop by hand.

The sigmoid gates use the tanh form sigma(x) = 1/2 + tanh(x/2)/2. The x/2 is
folded into halved copies of the i, f and o rows of the weights and bias
(exact in binary floating point), so each step runs one tanh over all four
gates and finishes i, f and o with a multiply and an add.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .tensor import ShapeError, Tensor, _needs, apply_op, recording_tape

# Byte budget of the input-projection block when no tape records: a few steps
# are projected at a time into one reused buffer that stays in cache, instead
# of a (T, B, 4H) array that large inputs get as fresh pages from the kernel.
_BLOCK_BYTES = 2 << 20


@dataclass
class LstmCellParams:
    """Packed weights of one LSTM cell, gate rows i, f, g, o:
    wx (4H, In), wh (4H, H), b (4H,)."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    def __post_init__(self):
        h = self.hidden_size
        n = self.input_size
        if self.wx.shape != (4 * h, n) or self.wh.shape != (4 * h, h) or self.b.shape != (4 * h,):
            raise ShapeError(
                f"lstm shapes disagree: wx={self.wx.shape} wh={self.wh.shape} "
                f"b={self.b.shape}, expected ({4 * h},{n})/({4 * h},{h})/({4 * h},)"
            )

    @property
    def input_size(self):
        return self.wx.shape[1]

    @property
    def hidden_size(self):
        return self.wh.shape[1]

    def tensors(self):
        yield "wx", self.wx
        yield "wh", self.wh
        yield "b", self.b


def init_lstm_params(rng, input_size, hidden_size, dtype=np.float32, forget_bias=1.0):
    """Input weights uniform +-1/sqrt(fan-in), each gate's recurrent block
    orthogonal, forget bias `forget_bias`, other biases zero."""
    bound = 1.0 / np.sqrt(input_size)

    def uni():
        return rng.uniform(-bound, bound, size=(hidden_size, input_size))

    def ortho():
        a = rng.standard_normal((hidden_size, hidden_size))
        q, r = np.linalg.qr(a)
        return q * np.sign(np.diag(r))  # fix sign for determinism

    def gate_rows(blocks):
        return Tensor(np.concatenate(blocks), dtype=dtype, requires_grad=True)

    wx = gate_rows([uni() for _ in range(4)])
    wh = gate_rows([ortho() for _ in range(4)])
    b = gate_rows([np.full(hidden_size, v) for v in (0.0, forget_bias, 0.0, 0.0)])
    return LstmCellParams(wx=wx, wh=wh, b=b)


def lstm_sequence(xs, params, reverse=False):
    """Run a cell over xs (T, B, In) with zero initial states -> (T, B, H).

    One tape op. Forward projects the inputs with copies of wx and b whose
    i, f and o rows are halved, and adds h_prev @ wh.T with wh halved the
    same way, so that one tanh over a step's (B, 4H) preactivations gives g
    and, after `* 0.5 + 0.5`, sigma(x) = 1/2 + tanh(x/2)/2 for i, f and o.
    The projection runs in blocks of P steps, from the end when `reverse`,
    each written into a (P, B, 4H) buffer that the recurrence then turns into
    gate activations in place. When a tape records, P = T: backward reads
    every step's activations, the cell states and the outputs. Otherwise P
    keeps the buffer within `_BLOCK_BYTES` and it is reused by every block.
    Backward runs BPTT in one reverse loop, then forms the input and weight
    gradients with one matmul or sum each over all steps.
    """
    if xs.data.ndim != 3 or xs.shape[2] != params.input_size:
        raise ShapeError(
            f"lstm_sequence: expected (T, B, {params.input_size}), got {xs.shape}"
        )
    inputs = (xs, params.wx, params.wh, params.b)
    steps, batch, in_dim = xs.shape
    hid = params.hidden_size
    dtype = xs.data.dtype
    x2 = xs.data.reshape(-1, in_dim)
    wx, wh, b = params.wx.data, params.wh.data, params.b.data
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    if recording_tape(inputs) is not None:
        span = steps
    else:
        span = min(steps, max(1, _BLOCK_BYTES // (batch * 4 * hid * dtype.itemsize)))
    # hs and cs hold T+1 states, the zero initial state at the end where the
    # recurrence starts: step t writes out[t] and reads h_prev[t], one slot
    # towards that end
    hs = np.zeros((steps + 1, batch, hid), dtype=dtype)
    cs = np.zeros_like(hs)
    (out, h_prev), (cells, c_prev) = (
        (a[:-1], a[1:]) if reverse else (a[1:], a[:-1]) for a in (hs, cs)
    )
    ifo = (slice(0, 2 * hid), slice(3 * hid, 4 * hid))  # the sigmoid gates of 4H
    gates = None

    def split(z):
        return tuple(z[:, k * hid : (k + 1) * hid] for k in range(4))

    def halve_ifo(a):
        a = a.copy()  # never scale the parameters in place
        for rows in ifo:
            a[rows] *= 0.5
        return a

    def forward_fn():
        nonlocal gates
        wxs_t, whs_t, bs = halve_ifo(wx).T, halve_ifo(wh).T, halve_ifo(b)
        gates = np.empty((span, batch, 4 * hid), dtype=dtype)
        tmp = np.empty((batch, hid), dtype=dtype)
        starts = range(0, steps, span)
        for start in reversed(starts) if reverse else starts:
            block = range(start, min(start + span, steps))
            slot = gates[: len(block)]
            np.matmul(x2[start * batch : block.stop * batch], wxs_t,
                      out=slot.reshape(-1, 4 * hid))
            slot += bs
            for t in reversed(block) if reverse else block:
                z = slot[t - start]
                z += h_prev[t] @ whs_t
                np.tanh(z, out=z)
                for cols in ifo:
                    zs = z[:, cols]
                    zs *= 0.5
                    zs += 0.5
                gi, gf, gg, go = split(z)
                np.multiply(gf, c_prev[t], out=cells[t])
                np.multiply(gi, gg, out=tmp)
                cells[t] += tmp
                np.tanh(cells[t], out=tmp)
                np.multiply(go, tmp, out=out[t])
        return out

    def backward_fn(g):
        dz = np.empty_like(gates)
        dh_next = 0.0
        dc = np.zeros_like(hs[0])
        for t in reversed(order):
            gi, gf, gg, go = split(gates[t])
            tc = np.tanh(cells[t])
            dh = g[t] + dh_next
            dc += dh * go * (1.0 - tc * tc)
            np.concatenate([
                dc * gg * gi * (1.0 - gi), dc * c_prev[t] * gf * (1.0 - gf),
                dc * gi * (1.0 - gg * gg), dh * tc * go * (1.0 - go),
            ], axis=1, out=dz[t])
            dc *= gf
            if t != order[0]:  # the first step's h_prev is the zero state
                dh_next = dz[t] @ wh
        dz2 = dz.reshape(-1, 4 * hid)
        return (
            (dz2 @ wx).reshape(xs.shape) if _needs(xs) else None,
            dz2.T @ x2 if _needs(params.wx) else None,
            dz2.T @ h_prev.reshape(-1, hid) if _needs(params.wh) else None,
            dz2.sum(axis=0) if _needs(params.b) else None,
        )

    return apply_op("lstm_sequence", inputs, forward_fn, backward_fn)


def bilstm_batched(xs, fwd, bwd):
    """Bidirectional pass over xs (T, B, In) -> (T, B, 2H), forward half first."""
    hf = lstm_sequence(xs, fwd, reverse=False)
    hb = lstm_sequence(xs, bwd, reverse=True)
    return nt.concat([hf, hb], axis=2)
