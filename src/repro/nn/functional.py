"""Fused neural-network ops with hand-written backwards.

The recurrent models spend their time in the LSTM cell; expressing the cell
as ~16 elementary tape ops per timestep makes Python-level graph overhead
the bottleneck. The fused ops here compute a whole cell step as ONE tape
node whose output stacks ``[h_new ; c_new]`` along the feature axis; callers
split it with two cheap basic slices. The math is identical to the
elementary-op formulation (the test suite gradchecks it and compares the two
directly).

Two variants:

- :func:`lstm_cell_step` — self-contained step (used for single-step
  decoding).
- :func:`lstm_cell_step_preprojected` — takes ``x @ W_ih^T + b`` computed
  outside, so a full sequence can batch its input projections into one big
  matmul (used by :class:`repro.nn.lstm.LSTM` over whole sequences).

Gate layout in the fused weights is ``[input, forget, cell, output]``,
matching :class:`repro.nn.lstm.LSTMCell`.

With fusion on (:mod:`repro.tensor.lazy`) the same idea extends one level
up: :func:`fused_attention` collapses the attention score→mask→softmax→
context chain (~10 tape ops in :class:`repro.nn.attention.GlobalAttention`)
into one node with a hand-written backward, and :func:`fused_pointer_probs`
does the same for the ACNN Eq. 3 copy-score chain.

Every kernel performs the same numpy operations in the same order as its
elementary-op formulation, so forward outputs are byte-identical. The
attention and pointer kernels always run at the full source width; the
eager chains skip trailing columns that pad every row and still return
the same bytes (see :mod:`repro.nn.attention`). The
transcendentals route through :mod:`repro.nn.numerics` so the
byte-identity and NaN-propagation contracts hold (and
``scripts/lint_numerics.py`` treats this file as waiver-proof for raw
``np.log``/``np.exp``/``np.sqrt``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.numerics import np_fast_sigmoid, np_stable_softmax
from repro.tensor.core import Tensor

__all__ = [
    "lstm_cell_step",
    "lstm_cell_step_preprojected",
    "fused_attention",
    "fused_pointer_probs",
]


def _fast_sigmoid(x: np.ndarray) -> np.ndarray:
    return np_fast_sigmoid(x)


def _fused_core(
    gates: np.ndarray,
    h_prev: Tensor,
    c_prev: Tensor,
    weight_hh: Tensor,
    parents: tuple[Tensor, ...],
    input_backward,
) -> tuple[Tensor, Tensor]:
    """Shared forward/backward around precomputed gate pre-activations.

    ``input_backward(d_gates)`` propagates the gate gradient to whatever
    produced the input-side projection (either the raw x and W_ih, or the
    pre-projected tensor).
    """
    hidden = h_prev.data.shape[1]
    i_gate = _fast_sigmoid(gates[:, :hidden])
    f_gate = _fast_sigmoid(gates[:, hidden: 2 * hidden])
    g_gate = np.tanh(gates[:, 2 * hidden: 3 * hidden])
    o_gate = _fast_sigmoid(gates[:, 3 * hidden:])
    c_new = f_gate * c_prev.data + i_gate * g_gate
    tanh_c_new = np.tanh(c_new)
    h_new = o_gate * tanh_c_new

    out_data = np.concatenate([h_new, c_new], axis=1)

    def backward(d_out: np.ndarray) -> None:
        d_h = d_out[:, :hidden]
        d_c = d_out[:, hidden:].copy()
        d_o = d_h * tanh_c_new * o_gate * (1.0 - o_gate)
        d_c += d_h * o_gate * (1.0 - tanh_c_new * tanh_c_new)

        d_gates = np.empty_like(gates)
        d_gates[:, :hidden] = d_c * g_gate * i_gate * (1.0 - i_gate)
        d_gates[:, hidden: 2 * hidden] = d_c * c_prev.data * f_gate * (1.0 - f_gate)
        d_gates[:, 2 * hidden: 3 * hidden] = d_c * i_gate * (1.0 - g_gate * g_gate)
        d_gates[:, 3 * hidden:] = d_o

        input_backward(d_gates)
        if h_prev.requires_grad:
            h_prev._accumulate_grad(d_gates @ weight_hh.data)
        if c_prev.requires_grad:
            c_prev._accumulate_grad(d_c * f_gate)
        if weight_hh.requires_grad:
            weight_hh._accumulate_grad(d_gates.T @ h_prev.data)

    out = Tensor._from_op(out_data, parents, backward)
    return out[:, :hidden], out[:, hidden:]


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
    gates = x.data @ weight_ih.data.T + h_prev.data @ weight_hh.data.T + bias.data

    def input_backward(d_gates: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate_grad(d_gates @ weight_ih.data)
        if weight_ih.requires_grad:
            weight_ih._accumulate_grad(d_gates.T @ x.data)
        if bias.requires_grad:
            bias._accumulate_grad(d_gates.sum(axis=0))

    parents = (x, h_prev, c_prev, weight_ih, weight_hh, bias)
    return _fused_core(gates, h_prev, c_prev, weight_hh, parents, input_backward)


def lstm_cell_step_preprojected(
    x_projected: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    weight_hh: Tensor,
) -> tuple[Tensor, Tensor]:
    """LSTM step whose input projection ``x @ W_ih^T + b`` was precomputed.

    Lets a sequence model compute all timesteps' input projections in one
    batched matmul and feed per-step ``(B, 4H)`` slices here.
    """
    gates = x_projected.data + h_prev.data @ weight_hh.data.T

    def input_backward(d_gates: np.ndarray) -> None:
        if x_projected.requires_grad:
            x_projected._accumulate_grad(d_gates)

    parents = (x_projected, h_prev, c_prev, weight_hh)
    return _fused_core(gates, h_prev, c_prev, weight_hh, parents, input_backward)


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
    gradcheck-pinned against the eager chain.

    Coverage-mode attention is NOT expressible here (it mixes an
    accumulated history tensor into the scores); callers keep the
    elementary-op path for that case.
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
