"""Per-example beam search: the reference oracle for the batched engine.

The paper sets the beam size to 3 at test time. Batch-level decoding is
:func:`repro.decoding.batched_beam.batched_beam_decode`, which decodes
every example of the batch simultaneously. :func:`beam_decode_example`
decodes one example at a time; it drives the *same* canonical candidate
walk and stopping rule as the engine, so the two paths return identical
hypotheses (the batched-beam tests and the decode-throughput baseline
compare against it):

- expand every live hypothesis by the full extended vocabulary;
- keep the top ``beam_size`` viable continuations, widening the candidate
  scan past ``2 * beam_size`` if EOS finishes or non-viable entries crowd
  the window;
- move EOS-terminated hypotheses to the finished pool;
- stop when the pool is full and the best finished normalized score beats
  every live hypothesis's optimistic (GNMT-style) bound.
"""

from __future__ import annotations

import numpy as np

from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding.batched_beam import select_step_candidates, should_stop_row
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import EncoderContext, QuestionGenerator
from repro.tensor.core import no_grad

__all__ = ["beam_decode_example"]


def beam_decode_example(
    model: QuestionGenerator,
    context: EncoderContext,
    example_index: int,
    beam_size: int = 3,
    max_length: int = 30,
    length_penalty: float = 1.0,
) -> Hypothesis:
    """Beam search for one example of an encoded batch.

    Parameters
    ----------
    model, context:
        The model and the :meth:`~repro.models.base.QuestionGenerator.encode`
        output it produced.
    example_index:
        Which batch row to decode.
    beam_size:
        Number of live hypotheses (paper: 3).
    max_length:
        Hard cap on generated length.
    length_penalty:
        Exponent for length normalization when ranking finished hypotheses
        (1.0 = average log-probability).
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")

    with no_grad():
        live = [Hypothesis((), 0.0)]
        base_state = model.initial_decoder_state(context)
        state = base_state.select(np.array([example_index]))
        finished: list[Hypothesis] = []

        for step in range(max_length):
            width = len(live)
            prev = np.array(
                [hyp.token_ids[-1] if hyp.token_ids else BOS_ID for hyp in live],
                dtype=np.int64,
            )
            rows = np.full(width, example_index)
            step_lp, new_state = model.step_log_probs(prev, state, context, row_indices=rows)
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf

            # Candidate scores: (width, V_ext) cumulative log-probs.
            totals = step_lp + np.array([hyp.log_prob for hyp in live])[:, None]
            eos_picks, continuations = select_step_candidates(totals, step_lp, beam_size)

            for source, token_lp in eos_picks:
                grown = live[source].extended(EOS_ID, token_lp, finished=True)
                # Drop the EOS token itself from the surface sequence.
                finished.append(
                    Hypothesis(grown.token_ids[:-1], grown.log_prob, finished=True)
                )
            if not continuations:
                break
            state = new_state.select(np.array([source for source, _, _ in continuations]))
            live = [
                live[source].extended(token, token_lp, finished=False)
                for source, token, token_lp in continuations
            ]

            if should_stop_row(
                finished,
                [hyp.log_prob for hyp in live],
                step + 1,
                beam_size,
                max_length,
                length_penalty,
            ):
                break

        if not finished:
            finished = [Hypothesis(h.token_ids, h.log_prob, finished=False) for h in live]
        return max(finished, key=lambda h: h.score(length_penalty))
