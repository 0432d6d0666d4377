"""LSTM cell primitives: fused gate evaluation plus sequence/bidirectional runners.

The cell uses the standard four-gate formulation (input, forget, cell, output;
no peepholes). Parameters are stored as four separate matrices per weight
group, packed to a single (4H, .) matrix once per sequence call so each time
step costs one recurrent matmul and one fused gate node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as nt
from .tensor import ShapeError, Tensor, _needs, apply_op

GATE_ORDER = ("i", "f", "g", "o")


@dataclass
class LstmCellParams:
    """Weights of one LSTM cell: gate weights (H, In), recurrent (H, H), biases (H,)."""

    wx_i: Tensor
    wx_f: Tensor
    wx_g: Tensor
    wx_o: Tensor
    wh_i: Tensor
    wh_f: Tensor
    wh_g: Tensor
    wh_o: Tensor
    b_i: Tensor
    b_f: Tensor
    b_g: Tensor
    b_o: Tensor

    def __post_init__(self):
        h = self.hidden_size
        n = self.input_size
        for name in GATE_ORDER:
            wx = getattr(self, f"wx_{name}")
            wh = getattr(self, f"wh_{name}")
            b = getattr(self, f"b_{name}")
            if wx.shape != (h, n) or wh.shape != (h, h) or b.shape != (h,):
                raise ShapeError(
                    f"lstm gate '{name}' shapes disagree: wx={wx.shape} wh={wh.shape} "
                    f"b={b.shape}, expected ({h},{n})/({h},{h})/({h},)"
                )

    @property
    def input_size(self):
        return self.wx_i.shape[1]

    @property
    def hidden_size(self):
        return self.wx_i.shape[0]

    def param_count(self):
        h, n = self.hidden_size, self.input_size
        return 4 * (h * n + h * h + h)

    def tensors(self):
        for group in ("wx", "wh", "b"):
            for gate in GATE_ORDER:
                yield f"{group}_{gate}", getattr(self, f"{group}_{gate}")

    def packed(self):
        """(wx (4H,In), wh (4H,H), b (4H,)) concatenated in gate order, on-tape."""
        wx = nt.concat([self.wx_i, self.wx_f, self.wx_g, self.wx_o], axis=0)
        wh = nt.concat([self.wh_i, self.wh_f, self.wh_g, self.wh_o], axis=0)
        b = nt.concat([self.b_i, self.b_f, self.b_g, self.b_o], axis=0)
        return wx, wh, b


def init_lstm_params(rng, input_size, hidden_size, dtype=np.float32, forget_bias=1.0):
    """Input weights uniform +-1/sqrt(fan-in), recurrent orthogonal,
    forget bias `forget_bias`, other biases zero."""
    bound = 1.0 / np.sqrt(input_size)

    def uni():
        w = rng.uniform(-bound, bound, size=(hidden_size, input_size))
        return Tensor(w, dtype=dtype, requires_grad=True)

    def ortho():
        a = rng.standard_normal((hidden_size, hidden_size))
        q, r = np.linalg.qr(a)
        q = q * np.sign(np.diag(r))  # fix sign for determinism
        return Tensor(q, dtype=dtype, requires_grad=True)

    def bias(value):
        return Tensor(np.full(hidden_size, value), dtype=dtype, requires_grad=True)

    return LstmCellParams(
        wx_i=uni(), wx_f=uni(), wx_g=uni(), wx_o=uni(),
        wh_i=ortho(), wh_f=ortho(), wh_g=ortho(), wh_o=ortho(),
        b_i=bias(0.0), b_f=bias(forget_bias), b_g=bias(0.0), b_o=bias(0.0),
    )


def _lstm_gates(z, c):
    """Fused gate node: z (B, 4H) preactivations, c (B, H) -> (h2, c2).

    i,f,o = sigmoid, g = tanh; c2 = f*c + i*g; h2 = o*tanh(c2).
    """
    hid = c.shape[-1]
    zd, cd = z.data, c.data
    zi, zf, zg, zo = (zd[..., k * hid : (k + 1) * hid] for k in range(4))
    gi = nt._stable_sigmoid(zi)
    gf = nt._stable_sigmoid(zf)
    gg = np.tanh(zg)
    go = nt._stable_sigmoid(zo)
    c2 = gf * cd + gi * gg
    tc2 = np.tanh(c2)
    h2 = go * tc2

    def backward_fn(gh, gc):
        dc2 = gc + gh * go * (1.0 - tc2 * tc2)
        dzi = (dc2 * gg) * gi * (1.0 - gi)
        dzf = (dc2 * cd) * gf * (1.0 - gf)
        dzg = (dc2 * gi) * (1.0 - gg * gg)
        dzo = (gh * tc2) * go * (1.0 - go)
        gz = np.concatenate([dzi, dzf, dzg, dzo], axis=-1)
        gcin = dc2 * gf if _needs(c) else None
        return gz, gcin

    return apply_op("lstm_gates", (z, c), lambda: (h2, c2), backward_fn)


def lstm_sequence(xs, params, reverse=False):
    """Run a cell over xs (T, B, In) with zero initial states -> (T, B, H).

    Input preactivations for all steps are computed in one matmul; the
    recurrence costs one matmul plus one fused gate node per step.
    """
    if xs.data.ndim != 3:
        raise ShapeError(f"lstm_sequence: expected (T, B, In), got {xs.shape}")
    steps, batch, _ = xs.shape
    hid = params.hidden_size
    wx, wh, b = params.packed()
    px = nt.affine(xs, wx, b)  # (T, B, 4H)
    h = nt.zeros((batch, hid), dtype=xs.data.dtype)
    c = nt.zeros((batch, hid), dtype=xs.data.dtype)
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    outs = [None] * steps
    for t in order:
        z = nt.add(nt.index_axis0(px, t), nt.affine(h, wh))
        h, c = _lstm_gates(z, c)
        outs[t] = h
    return nt.stack(outs, axis=0)


def bilstm_batched(xs, fwd, bwd):
    """Bidirectional pass over xs (T, B, In) -> (T, B, 2H), forward half first."""
    hf = lstm_sequence(xs, fwd, reverse=False)
    hb = lstm_sequence(xs, bwd, reverse=True)
    return nt.concat([hf, hb], axis=2)

