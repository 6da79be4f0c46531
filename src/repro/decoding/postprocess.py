"""Decode-time post-processing.

:func:`replace_unknowns` implements the classic OpenNMT ``-replace_unk``
trick that attention-only systems (like the Du et al. baseline) use to
patch over their lack of a copy mechanism: every generated ``<unk>`` is
replaced by the source token that received the most attention at that step.
The ACNN makes this unnecessary — its copy path produces the source token
directly — which is exactly the comparison the UNK-replacement ablation
draws.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.decoding.greedy import argmax_pick, decode_tokens, recording_step
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import DecodeStep
from repro.models.du_attention import DuAttentionModel

__all__ = ["replace_unknowns", "greedy_decode_with_attention"]


def greedy_decode_with_attention(
    model: DuAttentionModel,
    batch: Batch,
    max_length: int = 30,
) -> tuple[list[Hypothesis], list[list[np.ndarray]]]:
    """Greedy decode recording per-step attention (for UNK replacement).

    Returns the hypotheses plus, per example, one attention vector per
    emitted token. The tokens are :func:`~repro.decoding.greedy_decode`'s:
    the model's own step picks them (for an ACNN, the Eq. 2 mixture with
    coverage). A model without attention raises ``TypeError``; a NaN step
    raises :class:`~repro.models.base.NonFiniteLogits`, as in greedy
    decoding.
    """
    if not isinstance(model, DuAttentionModel):
        raise TypeError(f"{type(model).__name__} has no attention to replace UNKs with")
    records: list[DecodeStep] = []
    hypotheses = decode_tokens(
        model, batch, argmax_pick, max_length, step_fn=recording_step(model, records)
    )
    attentions = [
        [record.attention[row].copy() for record in records[: len(hypothesis.token_ids)]]
        for row, hypothesis in enumerate(hypotheses)
    ]
    return hypotheses, attentions


def replace_unknowns(
    tokens: list[str],
    attentions: list[np.ndarray],
    source_tokens: tuple[str, ...],
) -> list[str]:
    """Replace each ``<unk>`` with the most-attended source token.

    Parameters
    ----------
    tokens:
        Generated surface tokens.
    attentions:
        One ``(S,)`` attention vector per token (from
        :func:`greedy_decode_with_attention`).
    source_tokens:
        The source sequence the attention points into.
    """
    from repro.data.vocabulary import UNK

    if len(tokens) != len(attentions):
        raise ValueError(f"{len(tokens)} tokens vs {len(attentions)} attention vectors")
    replaced: list[str] = []
    for token, attention in zip(tokens, attentions):
        window = np.asarray(attention)[: len(source_tokens)]
        if token == UNK and window.size and np.isfinite(window).any():
            # NaN attention weights must not win the argmax; mask them out.
            window = np.where(np.isfinite(window), window, -np.inf)
            replaced.append(source_tokens[int(np.argmax(window))])
        else:
            replaced.append(token)
    return replaced
