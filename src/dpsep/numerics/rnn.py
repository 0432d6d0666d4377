"""LSTM cells with packed weights and whole-sequence recurrence ops.

The cell uses the standard four-gate formulation (input, forget, cell, output;
no peepholes). Its weights are stored packed, as in cuDNN: the rows of each
tensor hold the gates in the order i, f, g, o. A sequence is one tape op: the
recurrence runs one matmul per step, and backward runs the mirrored loop by
hand. A BLSTM is one op too: both directions write their halves of one
(T, B, 2H) output.

The recurrence runs gate-major: the state h, c is (H, B) and each step's
preactivations are (4H, B) = [wh | wx | b] @ [h_prev; x_t^T; 1], one GEMM
with a working matrix whose rows are reordered to i, f, o, g. The operand
[h_prev; x_t^T; 1] is one (H+In+1, B) array: each step copies x_t^T into its
middle rows and writes the new h straight into its first H rows. Every gate is
then one contiguous (H, B) block, and so is each cell, output and BPTT operand.
The stored weights and checkpoints keep the order i, f, g, o; gradients are
mapped back to it. Step t's hidden state is written into the (T, B, H) output
with one transposed copy.

The sigmoid gates use the tanh form sigma(x) = 1/2 + tanh(x/2)/2. The x/2 is
folded into the working matrix, whose i, f and o rows are halved (exact in
binary floating point), so each step runs one tanh over all four gates and
finishes i, f and o with one multiply and one add over the rows [:3H].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, Tensor, _needs, apply_op, recording_tape

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


def _gate_major(a, out=None):
    """Copy of a packed array (gate rows first) with the rows reordered from
    i, f, g, o to i, f, o, g, into `out` if given. The swap is its own
    inverse, so it also maps working rows back to the stored order."""
    hid = a.shape[0] // 4
    if out is None:
        out = np.empty(a.shape, dtype=a.dtype)
    out[: 2 * hid] = a[: 2 * hid]
    out[2 * hid : 3 * hid] = a[3 * hid :]
    out[3 * hid :] = a[2 * hid : 3 * hid]
    return out


def _halved(a):
    """Working copy of a packed array (gate rows first): rows i, f, o, g,
    with the sigmoid rows i, f, o halved."""
    out = _gate_major(a)
    out[: 3 * (a.shape[0] // 4)] *= 0.5
    return out


def _check_input(name, xs, params):
    if xs.data.ndim != 3 or xs.shape[2] != params.input_size:
        raise ShapeError(f"{name}: expected (T, B, {params.input_size}), got {xs.shape}")


def _run(x, params, out, reverse, keep):
    """Forward recurrence of one direction over x (T, B, In) from zero states.

    Writes each step's h (H, B), transposed, into out[t] of the (T, B, H)
    array or view `out`. Each step's preactivations z (4H, B) are one matmul
    of the working matrix [wh | wx | b] (4H, H+In+1) with u = [h; x_t^T; 1],
    and the recurrence turns z into the gate activations in place. With
    `keep`, z is gates[t] of a (T, 4H, B) array and the cell states are
    (T+1, H, B), the zero state at the end where the recurrence starts; both
    are returned for `_bptt`. Otherwise z and c are single arrays reused at
    every step, and None is returned.
    """
    steps, batch, in_dim = x.shape
    hid = params.hidden_size
    dtype = x.dtype
    w = _halved(np.concatenate((params.wh.data, params.wx.data, params.b.data[:, None]), axis=1))
    u = np.zeros((hid + in_dim + 1, batch), dtype=dtype)
    h, xt = u[:hid], u[hid:-1]
    u[-1] = 1.0
    tmp = np.empty((hid, batch), dtype=dtype)
    if keep:
        gates = np.empty((steps, 4 * hid, batch), dtype=dtype)
        cs = np.zeros((steps + 1, hid, batch), dtype=dtype)
        cells = cs[:-1] if reverse else cs[1:]
        c = cs[-1] if reverse else cs[0]
    else:
        z = np.empty((4 * hid, batch), dtype=dtype)
        c = np.zeros_like(tmp)
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        if keep:
            z = gates[t]
        xt[...] = x[t].T
        np.matmul(w, u, out=z)
        np.tanh(z, out=z)
        sig = z[: 3 * hid]
        sig *= 0.5
        sig += 0.5
        gi, gf, go, gg = z.reshape(4, hid, batch)
        c_new = cells[t] if keep else c
        np.multiply(gf, c, out=c_new)
        np.multiply(gi, gg, out=tmp)
        c_new += tmp
        c = c_new
        np.tanh(c, out=tmp)
        np.multiply(go, tmp, out=h)
        out[t] = h.T
    return (gates, cs) if keep else None


def _bptt(g, params, saved, reverse):
    """Backward of a kept `_run` given g (T, B, H), the gradient of its
    output: the preactivation gradients as (4H, T*B), stored row order,
    column t*B + j for step t of sequence j. They are written over the saved
    activations, whose pages are already mapped, so `saved` is spent."""
    gates, cs = saved
    steps, batch, hid = g.shape
    dtype = gates.dtype
    cells, c_prev = (cs[:-1], cs[1:]) if reverse else (cs[1:], cs[:-1])
    wh = _gate_major(params.wh.data)  # unhalved
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    dz = np.empty_like(gates)
    dc = np.zeros((hid, batch), dtype=dtype)
    dh, tc, tmp = (np.empty_like(dc) for _ in range(3))
    # dh_prev = (dz^T @ wh)^T, formed as (B, H): BLAS is faster that way round
    dh_next = np.empty((batch, hid), dtype=dtype)
    one_minus_sig = np.empty((3 * hid, batch), dtype=dtype)
    for t in reversed(order):
        sig = gates[t][: 3 * hid]
        gi, gf, go, gg = gates[t].reshape(4, hid, batch)
        dz_ifo = dz[t][: 3 * hid]
        di, df, do, dg = dz[t].reshape(4, hid, batch)
        np.tanh(cells[t], out=tc)
        if t == order[-1]:
            np.copyto(dh, g[t].T)
        else:
            np.add(g[t].T, dh_next.T, out=dh)
        # dc += dh * go * (1 - tc^2), with do as scratch
        np.multiply(tc, tc, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, go, out=do)
        do *= tmp
        dc += do
        # i, f, o: (dc * gg, dc * c_prev, dh * tc) * s * (1 - s)
        np.multiply(dc, gg, out=di)
        np.multiply(dc, c_prev[t], out=df)
        np.multiply(dh, tc, out=do)
        dz_ifo *= sig
        np.subtract(1.0, sig, out=one_minus_sig)
        dz_ifo *= one_minus_sig
        # g: dc * gi * (1 - gg^2)
        np.multiply(gg, gg, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dc, gi, out=dg)
        dg *= tmp
        dc *= gf
        if t != order[0]:  # the first step's h_prev is the zero state
            np.matmul(dz[t].T, wh, out=dh_next)
    spent = gates.reshape(4 * hid, steps, batch)
    return _gate_major(dz.transpose(1, 0, 2), out=spent).reshape(4 * hid, -1)


def _grads(dz, xs, params, out, reverse):
    """Gradients (xs, wx, wh, b) of one direction from its preactivation
    gradients dz (4H, T*B) and its output out (T, B, H), which holds every
    step's h_prev."""
    _, batch, in_dim = xs.shape
    hid = params.hidden_size
    dx = (dz.T @ params.wx.data).reshape(xs.shape) if _needs(xs) else None
    dwx = dz @ xs.data.reshape(-1, in_dim) if _needs(params.wx) else None
    dwh = None
    if _needs(params.wh):
        # step t reads h_prev = out[t -+ 1]; the first step's zero state adds nothing
        cols, h_prev = (slice(None, -batch), out[1:]) if reverse else (slice(batch, None), out[:-1])
        dwh = dz[:, cols] @ h_prev.reshape(-1, hid)
    db = dz.sum(axis=1) if _needs(params.b) else None
    return dx, dwx, dwh, db


def lstm_sequence(xs, params, reverse=False):
    """Run a cell over xs (T, B, In) with zero initial states -> (T, B, H).

    One tape op over `_run`; backward is `_bptt` followed by one matmul or
    sum each for the input and weight gradients over all steps.
    """
    _check_input("lstm_sequence", xs, params)
    inputs = (xs, params.wx, params.wh, params.b)
    keep = recording_tape(inputs) is not None
    out = np.empty(xs.shape[:2] + (params.hidden_size,), dtype=xs.data.dtype)
    saved = None

    def forward_fn():
        nonlocal saved
        saved = _run(xs.data, params, out, reverse, keep)
        return out

    def backward_fn(g):
        return _grads(_bptt(g, params, saved, reverse), xs, params, out, reverse)

    return apply_op("lstm_sequence", inputs, forward_fn, backward_fn)


def bilstm_batched(xs, fwd, bwd):
    """Bidirectional pass over xs (T, B, In) -> (T, B, 2H), forward half first.

    One tape op, `bilstm`: both directions run `_run` into their halves of
    one output, and backward sums their input gradients.
    """
    _check_input("bilstm_batched", xs, fwd)
    _check_input("bilstm_batched", xs, bwd)
    hid = fwd.hidden_size
    if bwd.hidden_size != hid:
        raise ShapeError(f"bilstm_batched: hidden sizes differ, {hid} and {bwd.hidden_size}")
    inputs = (xs, fwd.wx, fwd.wh, fwd.b, bwd.wx, bwd.wh, bwd.b)
    keep = recording_tape(inputs) is not None
    out = np.empty(xs.shape[:2] + (2 * hid,), dtype=xs.data.dtype)
    sides = ((fwd, slice(0, hid), False), (bwd, slice(hid, 2 * hid), True))
    saved = []

    def forward_fn():
        saved[:] = [_run(xs.data, p, out[..., half], rev, keep) for p, half, rev in sides]
        return out

    def backward_fn(g):
        dx, grads = None, []
        for (p, half, rev), kept in zip(sides, saved):
            dz = _bptt(g[..., half], p, kept, rev)
            gx, *gp = _grads(dz, xs, p, out[..., half], rev)
            dx = gx if dx is None else np.add(dx, gx, out=dx)
            grads += gp
        return (dx, *grads)

    return apply_op("bilstm", inputs, forward_fn, backward_fn)
