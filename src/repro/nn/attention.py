"""Global attention as specified in Section 3.1 of the paper.

The attention-based encoding of the input at decoding step ``k`` is

    c_k = sum_t a_{k,t} h_t
    a_{k,t} = softmax_t(e_{k,t})
    e_{k,t} = tanh(d_k^T W_h h_t)

where ``d_k`` is the decoder hidden state and ``h_t`` the (bidirectional)
encoder state at source position ``t``. Padding positions are excluded from
the softmax via a mask.

Trailing source columns that pad *every* row (a short source padded out to
the serving width) are skipped: scores and the context run over the live
prefix only (:func:`live_width`), and only the softmax runs at the full
width, over scores padded back with the mask value. The result is byte for
byte the full-width computation:

- each score reduces its own position's feature axis, so it does not
  depend on how many positions follow it;
- the context sums the position axis one slice at a time, so the skipped
  ``+ 0.0`` terms (exactly zero weights) change nothing;
- the softmax denominator sums a contiguous axis pairwise, grouping its
  terms by the axis length, so it would round differently at a narrower
  width. That is why the softmax keeps the full width.

On the tape, :meth:`GlobalAttention.forward` runs the whole chain as the
single fused node :func:`repro.nn.functional.fused_attention`, at the full
width (same bytes, as above). Coverage mixes an accumulated history into
the scores, which the kernel cannot express, so coverage attention keeps
the elementary-op chain over the live prefix.
:meth:`GlobalAttention.forward_array` runs the elementary chain's numpy
operations on plain arrays for inference decode steps, so all three give
the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.functional import fused_attention
from repro.nn.module import Module, Parameter
from repro.nn.numerics import np_stable_softmax
from repro.tensor.core import Tensor
from repro.tensor.ops import concat, expand_dims, masked_fill, softmax, tanh

__all__ = ["GlobalAttention", "live_width", "pad_masked_scores", "pad_masked_scores_array"]

_MASK_VALUE = -1e9


def live_width(pad_mask: np.ndarray | None, width: int) -> int:
    """One past the last source column that some row does not pad.

    ``width`` when there is no mask, when the last column holds a real
    token (always the case for a :func:`~repro.data.batching.collate`
    batch), or when every column is padding.
    """
    if pad_mask is None:
        return width
    real_columns = np.flatnonzero(~pad_mask.all(axis=0))
    return int(real_columns[-1]) + 1 if real_columns.size else width


def pad_masked_scores(scores: Tensor, width: int) -> Tensor:
    """Pad ``(B, live)`` masked scores out to ``(B, width)`` with the mask
    value, so the softmax normalizes at the full width."""
    rows, live = scores.shape
    if live == width:
        return scores
    return concat([scores, Tensor(np.full((rows, width - live), _MASK_VALUE))], axis=1)


def pad_masked_scores_array(scores: np.ndarray, width: int) -> np.ndarray:
    """:func:`pad_masked_scores` on arrays."""
    rows, live = scores.shape
    if live == width:
        return scores
    return np.concatenate([scores, np.full((rows, width - live), _MASK_VALUE)], axis=1)


class GlobalAttention(Module):
    """Bilinear-scored global attention over encoder states.

    Parameters
    ----------
    decoder_size:
        Width of the decoder hidden state ``d_k``.
    encoder_size:
        Width of the per-position encoder state ``h_t`` (``2 * hidden`` for
        the bidirectional encoder).
    rng:
        Generator for the ``W_h`` init.
    """

    def __init__(
        self,
        decoder_size: int,
        encoder_size: int,
        rng: np.random.Generator,
        use_coverage: bool = False,
    ) -> None:
        super().__init__()
        self.decoder_size = decoder_size
        self.encoder_size = encoder_size
        self.weight = Parameter(init.xavier_uniform((decoder_size, encoder_size), rng), name="W_h")
        # Coverage extension (See et al. 2017): a learned scalar mixes the
        # accumulated attention history into the scores, discouraging the
        # decoder from re-attending (and re-emitting) the same positions.
        self.coverage_weight = Parameter(np.zeros(1), name="w_cov") if use_coverage else None

    def scores(self, decoder_state: Tensor, encoder_states: Tensor) -> Tensor:
        """Unnormalized scores ``e_{k,t} = tanh(d_k^T W_h h_t)``.

        Shapes: ``decoder_state`` is ``(B, decoder_size)``,
        ``encoder_states`` is ``(B, T, encoder_size)``; returns ``(B, T)``.
        """
        projected = decoder_state @ self.weight  # (B, encoder_size)
        raw = (expand_dims(projected, 1) * encoder_states).sum(axis=2)  # (B, T)
        return tanh(raw)

    def forward(
        self,
        decoder_state: Tensor,
        encoder_states: Tensor,
        pad_mask: np.ndarray | None = None,
        coverage: Tensor | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Compute the context vector and attention weights.

        Parameters
        ----------
        decoder_state:
            ``(B, decoder_size)`` current decoder hidden state ``d_k``.
        encoder_states:
            ``(B, T, encoder_size)`` bidirectional encoder outputs.
        pad_mask:
            Optional ``(B, T)`` boolean array, True at padding positions.
        coverage:
            Optional ``(B, T)`` accumulated attention history; only valid
            when the layer was built with ``use_coverage=True``.

        Returns
        -------
        context, weights:
            ``context`` is ``(B, encoder_size)`` (``c_k`` in the paper);
            ``weights`` is ``(B, T)`` (``a_{k,t}``), summing to one over the
            non-padded positions.
        """
        if coverage is None:
            return fused_attention(
                decoder_state, encoder_states, self.weight, pad_mask, mask_value=_MASK_VALUE
            )
        width = encoder_states.shape[1]
        live = live_width(pad_mask, width)
        if live < width:
            encoder_states = encoder_states[:, :live]
            pad_mask = pad_mask[:, :live]
            if coverage is not None:
                coverage = coverage[:, :live]
        scores = self.scores(decoder_state, encoder_states)
        if coverage is not None:
            if self.coverage_weight is None:
                raise ValueError("attention layer was built without use_coverage=True")
            scores = scores + coverage * self.coverage_weight
        if pad_mask is not None:
            scores = masked_fill(scores, pad_mask, _MASK_VALUE)
        weights = softmax(pad_masked_scores(scores, width), axis=1)
        live_weights = weights if live == width else weights[:, :live]
        context = (expand_dims(live_weights, 2) * encoder_states).sum(axis=1)
        return context, weights

    def forward_array(
        self,
        decoder_state: np.ndarray,
        encoder_states: np.ndarray,
        pad_mask: np.ndarray | None = None,
        coverage: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` on arrays, off the tape: the eager chain's numpy
        operations in the same order (live prefix, coverage term, softmax
        at the full width), so the context and weights match its bytes."""
        width = encoder_states.shape[1]
        live = live_width(pad_mask, width)
        if live < width:
            encoder_states = encoder_states[:, :live]
            pad_mask = pad_mask[:, :live]
            if coverage is not None:
                coverage = coverage[:, :live]
        projected = decoder_state @ self.weight.data
        scores = np.tanh((np.expand_dims(projected, 1) * encoder_states).sum(axis=2))
        if coverage is not None:
            if self.coverage_weight is None:
                raise ValueError("attention layer was built without use_coverage=True")
            scores = scores + coverage * self.coverage_weight.data
        if pad_mask is not None:
            scores = np.where(pad_mask, _MASK_VALUE, scores)
        weights = np_stable_softmax(pad_masked_scores_array(scores, width), axis=1)
        live_weights = weights if live == width else weights[:, :live]
        context = (np.expand_dims(live_weights, 2) * encoder_states).sum(axis=1)
        return context, weights
