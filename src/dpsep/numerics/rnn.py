"""LSTM cells with packed weights and the one recurrence op, `bilstm`.

The cell uses the standard four-gate formulation (input, forget, cell, output;
no peepholes). Its weights are stored packed, as in cuDNN: the rows of each
tensor hold the gates in the order i, f, g, o. A BLSTM and the FC that
follows it in a DPRNN sub-pass are one tape op, `bilstm`, from (K, S, In) to
(K, S, N), run along either axis: axis 0 runs the S sequences of K steps,
axis 1 the K sequences of S steps, and the output keeps the input's layout.
Each direction runs one matmul per step for its gates and one for its share
of the FC, and backward runs the FC's backward and then the mirrored loop by
hand.

The recurrence works on time-major (T, B, .) views of the input and output:
the arrays themselves for axis 0, their axis-swapped views for axis 1. It
runs gate-major: the state h, c is (H, B) and each step's preactivations are
(4H, B) = [wh | wx | b] @ [h_prev; x_t^T; 1], one GEMM with a working matrix
whose rows are reordered to i, f, o, g. The operand [h_prev; x_t^T; 1] is
one (H+In+1, B) array: each step copies x_t^T, strided or not, into its
middle rows and writes the new h straight into its first H rows. Every gate
is then one contiguous (H, B) block, and so is each cell, output and BPTT
operand. The stored weights and checkpoints keep the order i, f, g, o;
gradients are mapped back to it.

Each step projects its h through the direction's half of the FC weight,
h^T @ W_half^T, into a contiguous (B, N) scratch, and writes or adds that
into y[t]. Nothing else of h is kept, so no (T, B, 2H) array exists in the
forward. The cell state is one (H, B) array updated in place, taped or not.
Under a tape each direction keeps its gates (T, 4H, B) and nothing more:
c_t = f_t * c_{t-1} + i_t * g_t needs only the gates, so backward first
rebuilds every cell state with the forward's own two ops per step, then
tanh(c) and h = o * tanh(c) in whole-array ops, into a contiguous (H, T, B)
array per direction that the FC's weight gradient and the recurrent weight
gradient then read. Elementwise ops give the same bits however they are
blocked, so the gradients are those of a tape that kept c and h.

The sigmoid gates use the tanh form sigma(x) = 1/2 + tanh(x/2)/2. The x/2 is
folded into the working matrix, whose i, f and o rows are halved (exact in
binary floating point), so each step runs one tanh over all four gates and
finishes i, f and o with one multiply and one add over the rows [:3H].
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, apply_op, recording_tape


def _check_cell(wx, wh, b):
    """Check one cell's packed wx (4H, In), wh (4H, H) and b (4H,)."""
    if len(wx.shape) != 2 or len(wh.shape) != 2:
        raise ShapeError(f"lstm weights must be 2-D: wx={wx.shape} wh={wh.shape}")
    h, n = wh.shape[1], wx.shape[1]
    if wx.shape != (4 * h, n) or wh.shape != (4 * h, h) or b.shape != (4 * h,):
        raise ShapeError(
            f"lstm shapes disagree: wx={wx.shape} wh={wh.shape} "
            f"b={b.shape}, expected ({4 * h},{n})/({4 * h},{h})/({4 * h},)"
        )


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


def _run(x, cell, proj, y, keep, reverse):
    """Forward recurrence of one direction, `cell` its (wx, wh, b), over the
    time-major view x (T, B, In) from zero states, projected into the
    time-major view y (T, B, N).

    Each step's preactivations z (4H, B) are one matmul of the working matrix
    [wh | wx | b] (4H, H+In+1) with u = [h; x_t^T; 1], and the recurrence
    turns z into the gate activations in place. The new h (H, B) then goes
    through proj (H, N), the direction's half of the FC transposed, into a
    (B, N) scratch, since np.dot's `out` must be C-contiguous and y[t] need
    not be; the scratch is written into y[t], or added to it for the reverse
    direction, which runs second. The cell state c is one (H, B) array
    updated in place at every step. With `keep`, z is gates[t] of a
    (T, 4H, B) array, which is returned for `_bptt`; otherwise z is one
    array reused at every step, and None is returned.
    """
    steps, batch, in_dim = x.shape
    wx, wh, b = cell
    hid = wh.shape[1]
    dtype = x.dtype
    w = _halved(np.concatenate((wh.data, wx.data, b.data[:, None]), axis=1))
    u = np.zeros((hid + in_dim + 1, batch), dtype=dtype)
    h, xt = u[:hid], u[hid:-1]
    ht = h.T
    u[-1] = 1.0
    c = np.zeros((hid, batch), dtype=dtype)
    tmp = np.empty_like(c)
    yt = np.empty(y.shape[1:], dtype=dtype)
    gates = np.empty((steps, 4 * hid, batch), dtype=dtype) if keep else None
    z = None if keep else np.empty((4 * hid, batch), dtype=dtype)
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        if keep:
            z = gates[t]
        xt[...] = x[t].T
        # np.dot, not np.matmul, for both products: about 1 us less per call
        # on small operands
        np.dot(w, u, out=z)
        np.tanh(z, out=z)
        sig = z[: 3 * hid]
        sig *= 0.5
        sig += 0.5
        gi, gf, go, gg = z.reshape(4, hid, batch)
        c *= gf
        np.multiply(gi, gg, out=tmp)
        c += tmp
        np.tanh(c, out=tmp)
        np.multiply(go, tmp, out=h)
        np.dot(ht, proj, out=yt)
        if reverse:
            y[t] += yt
        else:
            y[t] = yt
    return gates


def _bptt(g, wh, gates, hs, reverse):
    """Backward of a kept `_run` with recurrent weights wh given g (T, B, H),
    the gradient of its h at every step: the preactivation gradients as
    (4H, T*B), stored row order, column t*B + j for step t of sequence j.
    They are written over the kept gate activations `gates`, whose pages are
    already mapped, so `gates` is spent.

    The forward kept neither c nor h. A scan in the forward's step order
    first rebuilds every cell state from the gates with the forward's own
    ops, f * c_prev and then + i * g, and whole-array ops then take tanh(c)
    and h = o * tanh(c), writing h into the (H, T, B) array `hs`. Each
    elementwise op gives the same bits however it is blocked, so c, tanh(c)
    and h are the forward's."""
    steps, batch, hid = g.shape
    dtype = gates.dtype
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    gi_all, gf_all, go_all, gg_all = gates.reshape(steps, 4, hid, batch).transpose(1, 0, 2, 3)
    # cell states, with the zero state where the recurrence starts
    cs = np.zeros((steps + 1, hid, batch), dtype=dtype)
    cells, c_prev = (cs[:-1], cs[1:]) if reverse else (cs[1:], cs[:-1])
    tcs = np.multiply(gi_all, gg_all)  # i * g, then tanh(c)
    for t in order:
        np.multiply(gf_all[t], c_prev[t], out=cells[t])
        cells[t] += tcs[t]
    np.tanh(cells, out=tcs)
    np.multiply(go_all, tcs, out=hs.transpose(1, 0, 2))
    wh = _gate_major(wh.data)  # unhalved
    dz = np.empty_like(gates)
    # the loop's factors that need no recurrence, 1 - tc^2 and 1 - gg^2, are
    # taken for all steps at once into the do and dg rows of dz; each step
    # multiplies them by its other factor before it overwrites do, and a
    # product commutes exactly, so the bits do not change
    _, _, do_all, dg_all = dz.reshape(steps, 4, hid, batch).transpose(1, 0, 2, 3)
    for a, out in ((tcs, do_all), (gg_all, dg_all)):
        np.multiply(a, a, out=out)
        np.subtract(1.0, out, out=out)
    dc = np.zeros((hid, batch), dtype=dtype)
    dh, tmp = (np.empty_like(dc) for _ in range(2))
    # dh_prev = (dz^T @ wh)^T, formed as (B, H): BLAS is faster that way round
    dh_next = np.empty((batch, hid), dtype=dtype)
    one_minus_sig = np.empty((3 * hid, batch), dtype=dtype)
    for t in reversed(order):
        sig = gates[t][: 3 * hid]
        gi, gf, go, gg = gates[t].reshape(4, hid, batch)
        dz_ifo = dz[t][: 3 * hid]
        di, df, do, dg = dz[t].reshape(4, hid, batch)
        tc = tcs[t]
        if t == order[-1]:
            np.copyto(dh, g[t].T)
        else:
            np.add(g[t].T, dh_next.T, out=dh)
        # dc += dh * go * (1 - tc^2)
        np.multiply(dh, go, out=tmp)
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
        np.multiply(dc, gi, out=tmp)
        dg *= tmp
        dc *= gf
        if t != order[0]:  # the first step's h_prev is the zero state
            # np.dot, not np.matmul: about 1 us less per call on small operands
            np.dot(dz[t].T, wh, out=dh_next)
    spent = gates.reshape(4 * hid, steps, batch)
    return _gate_major(dz.transpose(1, 0, 2), out=spent).reshape(4 * hid, -1)


def _grads(dz, hs, x, need_x, cell, reverse):
    """Gradients (x, wx, wh, b) of one direction, `cell` its (wx, wh, b),
    from its preactivation gradients dz (4H, T*B), its h at every step hs
    (H, T*B), the columns of both in step order, and its contiguous
    time-major input x (T, B, In).
    The input gradient is time-major too, and None unless `need_x`."""
    batch, in_dim = x.shape[1:]
    wx, wh, b = cell
    dx = (dz.T @ wx.data).reshape(x.shape) if need_x else None
    dwx = dz @ x.reshape(-1, in_dim) if wx.requires_grad else None
    dwh = None
    if wh.requires_grad:
        # step t reads h_prev = h[t -+ 1]; the first step's zero state adds nothing
        early, late = slice(None, -batch), slice(batch, None)
        cols, prev = (early, late) if reverse else (late, early)
        dwh = dz[:, cols] @ hs[:, prev].T
    db = dz.sum(axis=1) if b.requires_grad else None
    return dx, dwx, dwh, db


def bilstm_batched(xs, cells, weight, bias, axis):
    """Bidirectional pass along `axis` of xs (K, S, In) and the FC after it
    -> (K, S, N): [h_fwd, h_bwd] @ weight^T + bias, with weight (N, 2H) and
    bias (N,). `cells` are the six packed cell tensors in layout order: wx
    (4H, In), wh (4H, H) and b (4H,) of the forward cell, then of the
    backward one. Axis 0 runs the S sequences of K steps, axis 1 the K
    sequences of S steps.

    One tape op, `bilstm`. Both directions run `_run` on time-major views:
    the forward one writes its projection into the output, the backward one
    adds its own, and the bias is added once. Under a recording tape each
    direction keeps its gates and nothing else. Backward makes time-major
    copies of the output gradient and the input (none for axis 0). Per
    direction it runs the FC's input backward through that direction's
    half of the weight, into a contiguous (T, B, H) array that lives only
    through that direction's BPTT, which first rebuilds the direction's c
    from its gates and its h into its half of a (2H, T, B) array. Then the
    FC's weight gradient runs over that array, and the directions' input
    gradients are summed. Every input must have xs's dtype.
    """
    if axis not in (0, 1):
        raise ShapeError(f"bilstm_batched: axis must be 0 or 1, got {axis!r}")
    if len(cells) != 6:
        raise ShapeError(f"bilstm_batched: need wx, wh and b of two cells, got {len(cells)}")
    fwd, bwd = cells[:3], cells[3:]
    for wx, wh, b in (fwd, bwd):
        _check_cell(wx, wh, b)
        if xs.data.ndim != 3 or xs.shape[2] != wx.shape[1]:
            raise ShapeError(f"bilstm_batched: expected (K, S, {wx.shape[1]}), got {xs.shape}")
    hid, other = fwd[1].shape[1], bwd[1].shape[1]
    if other != hid:
        raise ShapeError(f"bilstm_batched: hidden sizes differ, {hid} and {other}")
    if weight.data.ndim != 2 or weight.shape[1] != 2 * hid or bias.shape != weight.shape[:1]:
        raise ShapeError(
            f"bilstm_batched: weight {weight.shape} / bias {bias.shape} must be "
            f"(N, {2 * hid}) / (N,)"
        )
    inputs = (xs, *fwd, *bwd, weight, bias)
    x = xs.data.swapaxes(0, axis)  # time-major (T, B, In)
    steps, batch, _ = x.shape
    dtype = x.dtype
    wd, bd = weight.data, bias.data
    need_x, need_w, need_b = xs.requires_grad, weight.requires_grad, bias.requires_grad
    keep = recording_tape(inputs) is not None
    sides = ((fwd, slice(0, hid), False), (bwd, slice(hid, 2 * hid), True))
    saved = []

    def forward_fn():
        y = np.empty(xs.shape[:2] + weight.shape[:1], dtype=dtype)
        for cell, half, rev in sides:
            proj = np.ascontiguousarray(wd[:, half].T, dtype=dtype)
            saved.append(_run(x, cell, proj, y.swapaxes(0, axis), keep, rev))
        y += bd
        return y

    def backward_fn(g):
        g2 = np.ascontiguousarray(g.swapaxes(0, axis)).reshape(-1, g.shape[-1])
        gb = g2.sum(axis=0) if need_b else None
        hs = np.empty((2 * hid, steps, batch), dtype=dtype)
        xc = np.ascontiguousarray(x)
        dx, grads = None, []
        for (cell, half, rev), kept in zip(sides, saved):
            h_dir = hs[half]
            dz = _bptt((g2 @ wd[:, half]).reshape(steps, batch, hid), cell[1], kept, h_dir, rev)
            gx, *gp = _grads(dz, h_dir.reshape(hid, -1), xc, need_x, cell, rev)
            dx = gx if dx is None else np.add(dx, gx, out=dx)
            grads += gp
        gw = g2.T @ hs.reshape(2 * hid, -1).T if need_w else None
        if dx is not None:
            dx = np.ascontiguousarray(dx.swapaxes(0, axis))
        return (dx, *grads, gw, gb)

    return apply_op("bilstm", inputs, forward_fn, backward_fn)
