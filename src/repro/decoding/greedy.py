"""Greedy (argmax) decoding — the beam-size-1 special case, batched."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import DecodeStep, NonFiniteLogits, QuestionGenerator
from repro.tensor.core import no_grad

__all__ = ["decode_tokens", "greedy_decode", "recording_step"]


def greedy_decode(
    model: QuestionGenerator,
    batch: Batch,
    max_length: int = 30,
    deadline=None,
) -> list[Hypothesis]:
    """Decode every example in the batch greedily.

    Returns one finished :class:`Hypothesis` per example; sequences that hit
    ``max_length`` without emitting EOS are returned unfinished.

    ``deadline`` is the same cooperative budget the beam engine accepts
    (an object with ``check()``, consulted before the encode and once per
    step); a NaN decode step raises the typed
    :class:`~repro.models.base.NonFiniteLogits`.
    """
    return decode_tokens(model, batch, argmax_pick, max_length, deadline)


def argmax_pick(step_lp: np.ndarray) -> np.ndarray:
    """The greedy pick: each row's most probable token."""
    return step_lp.argmax(axis=1)


def recording_step(model: QuestionGenerator, records: list[DecodeStep]) -> Callable:
    """A :func:`decode_tokens` step that runs ``model.decode_step`` and
    appends each step's record to ``records``."""

    def step(prev_tokens, state, context):
        record = model.decode_step(prev_tokens, state, context)
        records.append(record)
        return record.log_probs, record.state

    return step


def decode_tokens(
    model: QuestionGenerator,
    batch: Batch,
    pick: Callable[[np.ndarray], np.ndarray],
    max_length: int = 30,
    deadline=None,
    step_fn: Callable | None = None,
) -> list[Hypothesis]:
    """The greedy token loop, with the pick rule as a parameter.

    ``pick`` maps one step's ``(B, V_ext)`` log-probs (PAD and BOS masked to
    ``-inf``) to the next token of every row; finished rows keep feeding
    EOS. A NaN step raises :class:`~repro.models.base.NonFiniteLogits`
    before ``pick`` sees it.

    ``step_fn`` replaces ``model.step_log_probs`` (same arguments and
    result); the trace and UNK-replacement decoders pass one that keeps
    each step's :class:`~repro.models.base.DecodeStep`.
    """
    if step_fn is None:
        step_fn = model.step_log_probs
    model.eval()
    with no_grad():
        if deadline is not None:
            deadline.check()
        context = model.encode(batch)
        state = model.initial_decoder_state(context)
        batch_size = context.batch_size

        prev = np.full(batch_size, BOS_ID, dtype=np.int64)
        sequences: list[list[int]] = [[] for _ in range(batch_size)]
        log_probs = np.zeros(batch_size)
        finished = np.zeros(batch_size, dtype=bool)

        for step in range(max_length):
            if deadline is not None:
                deadline.check()
            step_lp, state = step_fn(prev, state, context)
            nan_rows = np.isnan(step_lp).any(axis=1)
            if nan_rows.any():
                raise NonFiniteLogits("step_log_probs", step=step, rows=int(nan_rows.sum()))
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf
            choices = pick(step_lp)
            chosen_lp = step_lp[np.arange(batch_size), choices]
            for row in range(batch_size):
                if finished[row]:
                    continue
                log_probs[row] += chosen_lp[row]
                if choices[row] == EOS_ID:
                    # EOS contributes to the score (as in beam search) but
                    # is not part of the surface sequence.
                    finished[row] = True
                    continue
                sequences[row].append(int(choices[row]))
            if finished.all():
                break
            # Finished rows keep feeding EOS; it no longer affects them.
            prev = np.where(finished, EOS_ID, choices)

    return [
        Hypothesis(tuple(sequences[row]), float(log_probs[row]), finished=bool(finished[row]))
        for row in range(batch_size)
    ]
