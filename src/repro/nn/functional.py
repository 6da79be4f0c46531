"""Fused neural-network ops with hand-written backwards.

The recurrent models spend their time in the LSTM; expressing a cell step
as ~16 elementary tape ops per timestep makes Python-level graph overhead
the bottleneck. The kernels here do the work on raw arrays and record ONE
tape node with a hand-written backward; callers split its packed output
with cheap basic slices. The math is identical to the elementary-op
formulation (the test suite gradchecks it and compares the two directly).

Two LSTM kernels share one gate forward (:func:`_gates_forward`, a single
sigmoid call over all ``4H`` pre-activations) and one gate backward
(:func:`_gates_backward`):

- :func:`lstm_cell_step` — one step, output ``[h_new ; c_new]`` (the
  teacher-forced decoder of the training loss). Its forward,
  :func:`lstm_cell_forward`, is also the cell of the array decode step
  (:meth:`repro.nn.lstm.LSTM.step_array`).
- :func:`lstm_sequence` — one layer's whole recurrence over a sequence,
  for one direction or for both directions of the bidirectional encoder
  in lockstep (a leading direction axis, one stacked recurrent matmul per
  step), whose input projections ``x @ W_ih^T + b`` were batched into one
  matmul per direction outside; output ``[outputs ; h_T ; c_T]`` along
  the time axis per direction, with a hand-written backpropagation
  through time (used by :class:`repro.nn.lstm.LSTM` and
  :class:`repro.nn.lstm.BidirectionalLSTM`).

Gate layout in the fused weights is ``[input, forget, cell, output]``,
matching :class:`repro.nn.lstm.LSTMCell`.

The same idea extends one level up, and these are the only tape forms of
their chains: :func:`fused_attention` is the attention
score→mask→softmax→context chain of
:class:`repro.nn.attention.GlobalAttention` (about 10 elementary ops) as
one node with a hand-written backward, and :func:`fused_pointer_probs` is
the ACNN Eq. 3 copy-score chain. Both run at the full source width.
Coverage attention mixes an accumulated history into the scores, which
:func:`fused_attention` cannot express, so it keeps the elementary ops.

Every kernel performs the same numpy operations in the same order as its
elementary-op formulation, so forward outputs are byte-identical. The
transcendentals route through :mod:`repro.nn.numerics` so the
byte-identity and NaN-propagation contracts hold (and
``scripts/lint_numerics.py`` treats this file as waiver-proof for raw
``np.log``/``np.exp``/``np.sqrt``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.numerics import np_fast_sigmoid, np_stable_softmax
from repro.tensor.core import Tensor, is_grad_enabled

__all__ = [
    "lstm_cell_forward",
    "lstm_cell_step",
    "lstm_sequence",
    "fused_attention",
    "fused_pointer_probs",
]

_GateCache = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _gates_forward(gates: np.ndarray, c_prev: np.ndarray) -> tuple[np.ndarray, _GateCache]:
    """Apply the gate nonlinearities to ``(..., B, 4H)`` pre-activations.

    Returns ``[h_new ; c_new]`` as one ``(..., B, 2H)`` array and what
    :func:`_gates_backward` needs. One sigmoid call covers all four gate
    blocks (the cell block's value is unused); the ops are elementwise, so
    the bytes match separate calls on the ``i``/``f``/``o`` blocks, and
    on each direction of a stacked ``(D, B, 4H)`` input.
    """
    hidden = c_prev.shape[-1]
    sig = np_fast_sigmoid(gates)
    g_gate = np.tanh(gates[..., 2 * hidden: 3 * hidden])
    h_c = np.empty(gates.shape[:-1] + (2 * hidden,), dtype=gates.dtype)
    c_new = h_c[..., hidden:]
    np.add(sig[..., hidden: 2 * hidden] * c_prev, sig[..., :hidden] * g_gate, out=c_new)
    tanh_c_new = np.tanh(c_new)
    np.multiply(sig[..., 3 * hidden:], tanh_c_new, out=h_c[..., :hidden])
    return h_c, (sig, g_gate, tanh_c_new, c_prev)


def _gates_backward(
    d_h: np.ndarray, d_c_new: np.ndarray, cache: _GateCache
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of one gate step: ``(d_gates, d_c_prev)``."""
    sig, g_gate, tanh_c_new, c_prev = cache
    hidden = c_prev.shape[-1]
    i_gate = sig[..., :hidden]
    f_gate = sig[..., hidden: 2 * hidden]
    o_gate = sig[..., 3 * hidden:]
    d_o = d_h * tanh_c_new * o_gate * (1.0 - o_gate)
    d_c = d_c_new + d_h * o_gate * (1.0 - tanh_c_new * tanh_c_new)

    d_gates = np.empty_like(sig)
    d_gates[..., :hidden] = d_c * g_gate * i_gate * (1.0 - i_gate)
    d_gates[..., hidden: 2 * hidden] = d_c * c_prev * f_gate * (1.0 - f_gate)
    d_gates[..., 2 * hidden: 3 * hidden] = d_c * i_gate * (1.0 - g_gate * g_gate)
    d_gates[..., 3 * hidden:] = d_o
    return d_gates, d_c * f_gate


def lstm_cell_forward(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias: np.ndarray,
) -> tuple[np.ndarray, _GateCache]:
    """One LSTM step on arrays: ``x @ W_ih^T + h @ W_hh^T + b`` through
    :func:`_gates_forward`. Returns ``[h_new ; c_new]`` and the gate cache."""
    return _gates_forward(x @ weight_ih.T + h_prev @ weight_hh.T + bias, c_prev)


def lstm_cell_step(
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias: Tensor,
) -> tuple[Tensor, Tensor]:
    """One LSTM step as a single fused autodiff operation.

    Parameters
    ----------
    x:
        ``(B, input_size)`` step input.
    h_prev, c_prev:
        ``(B, H)`` previous hidden and cell state.
    weight_ih, weight_hh, bias:
        ``(4H, input_size)``, ``(4H, H)``, ``(4H,)`` fused gate parameters.

    Returns
    -------
    h_new, c_new:
        ``(B, H)`` tensors (two views of one fused tape node).
    """
    h_c, cache = lstm_cell_forward(
        x.data, h_prev.data, c_prev.data, weight_ih.data, weight_hh.data, bias.data
    )
    hidden = h_prev.data.shape[1]

    def backward(d_out: np.ndarray) -> None:
        d_gates, d_c_prev = _gates_backward(d_out[:, :hidden], d_out[:, hidden:], cache)
        if x.requires_grad:
            x._accumulate_grad(d_gates @ weight_ih.data)
        if weight_ih.requires_grad:
            weight_ih._accumulate_grad(d_gates.T @ x.data)
        if bias.requires_grad:
            bias._accumulate_grad(d_gates.sum(axis=0))
        if h_prev.requires_grad:
            h_prev._accumulate_grad(d_gates @ weight_hh.data)
        if c_prev.requires_grad:
            c_prev._accumulate_grad(d_c_prev)
        if weight_hh.requires_grad:
            weight_hh._accumulate_grad(d_gates.T @ h_prev.data)

    parents = (x, h_prev, c_prev, weight_ih, weight_hh, bias)
    out = Tensor._from_op(h_c, parents, backward)
    return out[:, :hidden], out[:, hidden:]


def lstm_sequence(
    projected: Sequence[Tensor],
    h0: Sequence[Tensor],
    c0: Sequence[Tensor],
    weight_hh: Sequence[Tensor],
    pad_mask: np.ndarray,
    reverse: Sequence[bool],
) -> Tensor:
    """One LSTM layer's recurrence, for ``D`` directions in lockstep, as a
    single tape node.

    Parameters
    ----------
    projected:
        One ``(B, T, 4H)`` tensor per direction: the input projections
        ``x @ W_ih^T + b`` for every step, in time order.
    h0, c0:
        One ``(B, H)`` initial hidden and cell state per direction.
    weight_hh:
        One ``(4H, H)`` recurrent weight per direction.
    pad_mask:
        Boolean ``(B, T)``; True marks padding. On a padded step a row
        carries its state through unchanged (and emits it as output).
    reverse:
        One flag per direction: run its steps from last to first. Outputs
        stay in time order.

    Returns
    -------
    packed:
        ``(D, B, T + 2, H)``: per direction, the per-step hidden states,
        then the final ``h`` and the final ``c``. Callers split it with
        basic slices.

    The projections are copied into one ``(D, B, T, 4H)`` step buffer, a
    reversed direction's time-reversed, so all directions share each step;
    a reversed direction's outputs are flipped back once at the end. A
    step is one stacked ``(D, B, H) @ (D, H, 4H)`` matmul (numpy makes one
    BLAS call per direction, on that direction's strides), one add of the
    step's projections, one :func:`_gates_forward` over ``(D, B, 4H)`` and,
    when any direction has a padded row, one ``np.where`` carry with a
    ``(D, B, 1)`` mask.

    The backward runs the recurrence in reverse with one stacked
    ``d_gates @ W_hh``, accumulating each direction's ``dW_hh`` one step at
    a time, last step first, so gradients round exactly as a chain of
    per-step :func:`lstm_cell_step` nodes would. Each ``dW_hh`` operand
    ``h_prev`` keeps the layout its direction's own recurrence gives it (a
    strided view after a live step, contiguous after a carried one): at
    ``H = 1`` BLAS gets that ``(B, 1)`` operand as a vector, and a stride
    of 2 rounds differently from a stride of 1.

    One buffer holds a step's projections, then (when the node is
    recorded) its gate sigmoids, then its gate gradients, which are the
    projections' gradients: a training step allocates nothing else of its
    size. Per-step state is kept only when the node is recorded.
    """
    n_dir = len(projected)
    batch, time_steps = pad_mask.shape
    hidden = h0[0].shape[1]
    steps = np.empty((n_dir, batch, time_steps, 4 * hidden), dtype=projected[0].data.dtype)
    for buffer, p, rev in zip(steps, projected, reverse):
        buffer[...] = p.data[:, ::-1] if rev else p.data
    masks = np.stack([pad_mask[:, ::-1] if rev else pad_mask for rev in reverse])
    w_hh = np.stack([w.data for w in weight_hh])
    w_hh_t = w_hh.transpose(0, 2, 1)
    parents = (*projected, *h0, *c0, *weight_hh)
    record = is_grad_enabled() and any(p.requires_grad for p in parents)
    padded = masks.any(axis=1)  # (D, T): some row of direction d carries at t
    carry = padded.any(axis=0)

    h = np.stack([state.data for state in h0])
    c = np.stack([state.data for state in c0])
    packed = np.empty((n_dir, batch, time_steps + 2, hidden), dtype=h.dtype)
    h_prev = [state.data for state in h0]  # each direction's dW_hh operand
    saved: list[tuple[list[np.ndarray], _GateCache]] = []
    for t in range(time_steps):
        gates = np.matmul(h, w_hh_t)
        gates += steps[:, :, t]
        h_c, cache = _gates_forward(gates, c)
        h_new, c_new = h_c[..., :hidden], h_c[..., hidden:]
        if carry[t]:
            pad_t = masks[:, :, t, None]
            h_new = np.where(pad_t, h, h_new)
            c_new = np.where(pad_t, c, c_new)
        if record:
            # The step's sigmoids go where its projections were, so the
            # buffer holds them instead of one allocation per step.
            sig = steps[:, :, t]
            sig[...] = cache[0]
            saved.append((h_prev, (sig,) + cache[1:]))
            h_prev = [h_new[d] if padded[d, t] else h_c[d, :, :hidden] for d in range(n_dir)]
        packed[:, :, t] = h_new
        h, c = h_new, c_new
    packed[:, :, time_steps] = h
    packed[:, :, time_steps + 1] = c
    for outputs, rev in zip(packed, reverse):
        if rev:
            outputs[:, :time_steps] = outputs[:, :time_steps][:, ::-1]

    def backward(d_packed: np.ndarray) -> None:
        d_outputs = [
            d_packed[d, :, :time_steps][:, ::-1] if rev else d_packed[d, :, :time_steps]
            for d, rev in enumerate(reverse)
        ]
        # d_h takes each step's output gradient in place: own it.
        d_h, d_c = d_packed[:, :, time_steps].copy(), d_packed[:, :, time_steps + 1]
        for t in range(time_steps - 1, -1, -1):
            operands, cache = saved.pop()  # frees each step's state as it goes
            for d_h_d, d_out in zip(d_h, d_outputs):
                d_h_d += d_out[:, t]
            if carry[t]:
                # Padded rows route the gradient to the carried state, live
                # rows to the cell, by mask products as ``where`` does.
                pad_t = masks[:, :, t, None]
                d_h_carry, d_c_carry = d_h * pad_t, d_c * pad_t
                d_h, d_c = d_h * ~pad_t, d_c * ~pad_t
            d_gates, d_c = _gates_backward(d_h, d_c, cache)
            steps[:, :, t] = d_gates
            for weight, d_g, h_p in zip(weight_hh, d_gates, operands):
                if weight.requires_grad:
                    weight._accumulate_grad(d_g.T @ h_p)
            d_h = np.matmul(d_gates, w_hh)
            if carry[t]:
                d_h = d_h + d_h_carry
                d_c = d_c + d_c_carry
        for d_proj, p, rev in zip(steps, projected, reverse):
            if not p.requires_grad:
                continue
            if rev:  # back to time order in place, two steps at a time
                for t in range(time_steps // 2):
                    d_proj[:, [t, -1 - t]] = d_proj[:, [-1 - t, t]]
            p._accumulate_grad(d_proj)
        for state, d_state in zip(h0, d_h):
            state._accumulate_grad(d_state)
        for state, d_state in zip(c0, d_c):
            state._accumulate_grad(d_state)

    return Tensor._from_op(packed, parents, backward)


# ----------------------------------------------------------------------
# Fused attention / pointer-score chains
# ----------------------------------------------------------------------
def fused_attention(
    decoder_state: Tensor,
    encoder_states: Tensor,
    weight: Tensor,
    pad_mask: np.ndarray | None = None,
    mask_value: float = -1e9,
) -> tuple[Tensor, Tensor]:
    """The whole global-attention chain as ONE tape node.

    Computes, at the full width ``T``, what
    :class:`repro.nn.attention.GlobalAttention` computes with elementary
    ops over the live source prefix (byte-identical outputs)::

        projected = decoder_state @ weight              # (B, E)
        scores    = tanh((projected[:,None,:] * enc).sum(2))   # (B, T)
        scores[pad] = mask_value
        weights   = softmax(scores, axis=1)             # stable kernel
        context   = (weights[:,:,None] * enc).sum(1)    # (B, E)

    This is a single node whose packed output is ``[context ; weights]``
    along axis 1, split by two basic slices; the hand-written backward is
    gradcheck-pinned.

    Coverage-mode attention is NOT expressible here (it mixes an
    accumulated history tensor into the scores); the layer keeps the
    elementary-op chain for that case.
    """
    d = decoder_state.data
    enc = encoder_states.data
    W = weight.data
    enc_size = enc.shape[2]

    projected = d @ W  # (B, E)
    raw = (projected[:, None, :] * enc).sum(axis=2)  # (B, T)
    tanh_scores = np.tanh(raw)
    if pad_mask is not None:
        scores = np.where(pad_mask, mask_value, tanh_scores)
    else:
        scores = tanh_scores
    weights_np = np_stable_softmax(scores, axis=1)
    context_np = (weights_np[:, :, None] * enc).sum(axis=1)  # (B, E)

    out_data = np.concatenate([context_np, weights_np], axis=1)

    def backward(d_out: np.ndarray) -> None:
        d_ctx = d_out[:, :enc_size]
        d_weights = d_out[:, enc_size:].copy()
        # context = sum_t weights_t * enc_t  (batched GEMM beats einsum here)
        d_weights += np.matmul(enc, d_ctx[:, :, None])[:, :, 0]
        d_enc = weights_np[:, :, None] * d_ctx[:, None, :] if encoder_states.requires_grad else None
        # softmax backward (matches ops.softmax)
        inner = (d_weights * weights_np).sum(axis=1, keepdims=True)
        d_scores = weights_np * (d_weights - inner)
        # masked_fill backward: no gradient into padded positions
        if pad_mask is not None:
            d_scores = d_scores * ~pad_mask
        # tanh backward
        d_raw = d_scores * (1.0 - tanh_scores * tanh_scores)
        if encoder_states.requires_grad:
            d_enc += d_raw[:, :, None] * projected[:, None, :]
            encoder_states._accumulate_grad(d_enc)
        d_proj = np.matmul(d_raw[:, None, :], enc)[:, 0, :]
        if decoder_state.requires_grad:
            decoder_state._accumulate_grad(d_proj @ W.T)
        if weight.requires_grad:
            weight._accumulate_grad(d.T @ d_proj)

    parents = (decoder_state, encoder_states, weight)
    out = Tensor._from_op(out_data, parents, backward)
    return out[:, :enc_size], out[:, enc_size:]


def fused_pointer_probs(
    projected: Tensor,
    encoder_states: Tensor,
    score_bias: Tensor,
    pad_mask: np.ndarray,
    mask_value: float = -1e9,
) -> Tensor:
    """The ACNN Eq. 3 pointer score→mask→softmax chain as ONE tape node.

    ``projected`` is the copy projection ``V [d_k ; c_k] + b_1`` (kept as
    an eager Linear so its parameters stay ordinary tape parents);
    this kernel fuses the rest at the full width, byte-identical to the
    elementary chain over the live source prefix::

        scores = (projected[:,None,:] * enc).sum(2) + score_bias  # (B, S)
        scores[pad] = mask_value
        probs  = softmax(scores, axis=1)

    One tape node with a hand-written backward, like
    :func:`fused_attention`.
    """
    p = projected.data
    enc = encoder_states.data

    raw = (p[:, None, :] * enc).sum(axis=2)  # (B, S)
    scores = raw + score_bias.data
    masked = np.where(pad_mask, mask_value, scores)
    probs_np = np_stable_softmax(masked, axis=1)

    def backward(d_probs: np.ndarray) -> None:
        # softmax backward (matches ops.softmax)
        inner = (d_probs * probs_np).sum(axis=1, keepdims=True)
        d_scores = probs_np * (d_probs - inner)
        # masked_fill backward
        d_scores = d_scores * ~pad_mask
        if score_bias.requires_grad:
            score_bias._accumulate_grad(d_scores)
        if encoder_states.requires_grad:
            encoder_states._accumulate_grad(d_scores[:, :, None] * p[:, None, :])
        if projected.requires_grad:
            projected._accumulate_grad(np.matmul(d_scores[:, None, :], enc)[:, 0, :])

    parents = (projected, encoder_states, score_bias)
    return Tensor._from_op(probs_np, parents, backward)
