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
- :func:`lstm_sequence` — one layer's whole recurrence over a sequence
  whose input projections ``x @ W_ih^T + b`` were batched into one matmul
  outside; output ``[outputs ; h_T ; c_T]`` along the time axis, with a
  hand-written backpropagation through time (used by
  :class:`repro.nn.lstm.LSTM`).

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
    """Apply the gate nonlinearities to ``(B, 4H)`` pre-activations.

    Returns ``[h_new ; c_new]`` as one ``(B, 2H)`` array and what
    :func:`_gates_backward` needs. One sigmoid call covers all four gate
    blocks (the cell block's value is unused); the ops are elementwise, so
    the bytes match separate calls on the ``i``/``f``/``o`` blocks.
    """
    hidden = c_prev.shape[1]
    sig = np_fast_sigmoid(gates)
    g_gate = np.tanh(gates[:, 2 * hidden: 3 * hidden])
    h_c = np.empty((gates.shape[0], 2 * hidden), dtype=gates.dtype)
    c_new = h_c[:, hidden:]
    np.add(sig[:, hidden: 2 * hidden] * c_prev, sig[:, :hidden] * g_gate, out=c_new)
    tanh_c_new = np.tanh(c_new)
    np.multiply(sig[:, 3 * hidden:], tanh_c_new, out=h_c[:, :hidden])
    return h_c, (sig, g_gate, tanh_c_new, c_prev)


def _gates_backward(
    d_h: np.ndarray, d_c_new: np.ndarray, cache: _GateCache
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of one gate step: ``(d_gates, d_c_prev)``."""
    sig, g_gate, tanh_c_new, c_prev = cache
    hidden = c_prev.shape[1]
    i_gate = sig[:, :hidden]
    f_gate = sig[:, hidden: 2 * hidden]
    o_gate = sig[:, 3 * hidden:]
    d_o = d_h * tanh_c_new * o_gate * (1.0 - o_gate)
    d_c = d_c_new + d_h * o_gate * (1.0 - tanh_c_new * tanh_c_new)

    d_gates = np.empty_like(sig)
    d_gates[:, :hidden] = d_c * g_gate * i_gate * (1.0 - i_gate)
    d_gates[:, hidden: 2 * hidden] = d_c * c_prev * f_gate * (1.0 - f_gate)
    d_gates[:, 2 * hidden: 3 * hidden] = d_c * i_gate * (1.0 - g_gate * g_gate)
    d_gates[:, 3 * hidden:] = d_o
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
    projected: Tensor,
    h0: Tensor,
    c0: Tensor,
    weight_hh: Tensor,
    pad_mask: np.ndarray,
    reverse: bool = False,
) -> Tensor:
    """One LSTM layer's recurrence over a sequence as a single tape node.

    Parameters
    ----------
    projected:
        ``(B, T, 4H)`` input projections ``x @ W_ih^T + b`` for every step.
    h0, c0:
        ``(B, H)`` initial hidden and cell state.
    weight_hh:
        ``(4H, H)`` recurrent weights.
    pad_mask:
        Boolean ``(B, T)``; True marks padding. On a padded step a row
        carries its state through unchanged (and emits it as output).
    reverse:
        Run the steps from last to first; outputs stay in time order.

    Returns
    -------
    packed:
        ``(B, T + 2, H)``: the per-step hidden states, then the final
        ``h`` and the final ``c``. Callers split it with three basic slices.

    Each step is ``P[:, t] + h @ W_hh^T`` through :func:`_gates_forward`,
    then a ``np.where`` carry on padded rows. The backward runs the
    recurrence in reverse, accumulating ``dW_hh`` one step at a time, last
    step first, so gradients round exactly as a chain of per-step
    :func:`lstm_cell_step` nodes would. Per-step state is kept only when
    the node is recorded, so encodes under ``no_grad`` retain nothing.
    """
    proj = projected.data
    batch, time_steps = proj.shape[0], proj.shape[1]
    w_hh = weight_hh.data
    parents = (projected, h0, c0, weight_hh)
    record = is_grad_enabled() and any(p.requires_grad for p in parents)
    padded = pad_mask.any(axis=0)
    order = range(time_steps - 1, -1, -1) if reverse else range(time_steps)

    h, c = h0.data, c0.data
    hidden = h.shape[1]
    packed = np.empty((batch, time_steps + 2, hidden), dtype=proj.dtype)
    saved: list[tuple[np.ndarray, _GateCache]] = []
    for t in order:
        h_c, cache = _gates_forward(proj[:, t] + h @ w_hh.T, c)
        h_new, c_new = h_c[:, :hidden], h_c[:, hidden:]
        if record:
            saved.append((h, cache))
        if padded[t]:
            pad_t = pad_mask[:, t: t + 1]
            h_new = np.where(pad_t, h, h_new)
            c_new = np.where(pad_t, c, c_new)
        packed[:, t] = h_new
        h, c = h_new, c_new
    packed[:, time_steps] = h
    packed[:, time_steps + 1] = c

    def backward(d_packed: np.ndarray) -> None:
        d_outputs = d_packed[:, :time_steps]
        d_h, d_c = d_packed[:, time_steps], d_packed[:, time_steps + 1]
        d_proj = np.empty_like(proj) if projected.requires_grad else None
        for t, (h_prev, cache) in zip(reversed(order), reversed(saved)):
            d_h = d_h + d_outputs[:, t]
            carry = padded[t]
            if carry:
                # Padded rows route the gradient to the carried state, live
                # rows to the cell, by mask products as ``where`` does.
                pad_t = pad_mask[:, t: t + 1]
                d_h_carry, d_c_carry = d_h * pad_t, d_c * pad_t
                d_h, d_c = d_h * ~pad_t, d_c * ~pad_t
            d_gates, d_c = _gates_backward(d_h, d_c, cache)
            if d_proj is not None:
                d_proj[:, t] = d_gates
            if weight_hh.requires_grad:
                weight_hh._accumulate_grad(d_gates.T @ h_prev)
            d_h = d_gates @ w_hh
            if carry:
                d_h = d_h + d_h_carry
                d_c = d_c + d_c_carry
        if d_proj is not None:
            projected._accumulate_grad(d_proj)
        if h0.requires_grad:
            h0._accumulate_grad(d_h)
        if c0.requires_grad:
            c0._accumulate_grad(d_c)

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
