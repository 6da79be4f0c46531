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
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary
from repro.decoding.hypothesis import Hypothesis, extended_ids_to_tokens
from repro.models.base import NonFiniteLogits, QuestionGenerator
from repro.models.du_attention import DuAttentionModel
from repro.tensor.core import no_grad

__all__ = ["replace_unknowns", "greedy_decode_with_attention"]


def greedy_decode_with_attention(
    model: DuAttentionModel,
    batch: Batch,
    max_length: int = 30,
) -> tuple[list[Hypothesis], list[list[np.ndarray]]]:
    """Greedy decode recording per-step attention (for UNK replacement).

    Returns the hypotheses plus, per example, one attention vector per
    emitted token. A NaN step raises
    :class:`~repro.models.base.NonFiniteLogits`, as in greedy decoding.
    """
    model.eval()
    with no_grad():
        context = model.encode(batch)
        state = model.initial_decoder_state(context)
        batch_size = context.batch_size
        prev = np.full(batch_size, BOS_ID, dtype=np.int64)
        sequences: list[list[int]] = [[] for _ in range(batch_size)]
        attentions: list[list[np.ndarray]] = [[] for _ in range(batch_size)]
        log_probs = np.zeros(batch_size)
        finished = np.zeros(batch_size, dtype=bool)

        for step in range(max_length):
            token_ids = model.map_to_decoder_vocab(prev, model.decoder_vocab_size, UNK_ID)
            embedded = model.decoder_embedding(token_ids)
            _, _, attn, logits, new_states = model._decode_step(
                embedded, state.lstm_states, context.encoder_states, context.src_pad_mask
            )
            from repro.models.base import DecoderStepState
            from repro.tensor.ops import log_softmax

            state = DecoderStepState(new_states)
            step_lp = log_softmax(logits, axis=-1).data
            nan_rows = np.isnan(step_lp).any(axis=1)
            if nan_rows.any():
                raise NonFiniteLogits("_decode_step", step=step, rows=int(nan_rows.sum()))
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf
            choices = step_lp.argmax(axis=1)
            chosen_lp = step_lp[np.arange(batch_size), choices]
            for row in range(batch_size):
                if finished[row]:
                    continue
                log_probs[row] += chosen_lp[row]
                if choices[row] == EOS_ID:
                    finished[row] = True
                    continue
                sequences[row].append(int(choices[row]))
                attentions[row].append(attn.data[row].copy())
            if finished.all():
                break
            prev = np.where(finished, EOS_ID, choices)

    hypotheses = [
        Hypothesis(tuple(sequences[row]), float(log_probs[row]), finished=bool(finished[row]))
        for row in range(batch_size)
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
