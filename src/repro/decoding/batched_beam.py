"""Batch-parallel beam search engine.

The paper decodes everything with beam size 3, so beam search is the hot
path of the whole evaluation pipeline. The classic per-example beam
(:func:`repro.decoding.beam.beam_decode_example`) calls ``step_log_probs``
with only ``beam_size`` rows per step, leaving the numpy backend's batched
matmuls idle. This engine decodes all ``B`` examples of a batch at once:

- the hypothesis frontier is a flattened ``(B * beam_size,)`` row block —
  frontier row ``i`` belongs to example ``i // beam_size`` and beam slot
  ``i % beam_size``; live hypotheses always occupy the *leading* slots of
  their example's block, dead slots are masked to ``-inf``;
- encoder tensors are expanded **once** via
  :func:`repro.models.base.expand_encoder_context` instead of re-gathered
  with ``row_indices`` on every step;
- top-k candidate selection runs as a single ``argpartition`` over the
  ``(B, beam_size * V_ext)`` score matrix for all examples at once;
- recurrent state is reordered with one
  :meth:`~repro.models.base.DecoderStepState.select` per step;
- each example keeps its own finished pool and early-stop flag, so short
  examples stop expanding while long ones continue.

The candidate walk and the stopping rule live here as the *canonical*
definitions (:func:`select_step_candidates`, :func:`should_stop_row`) and
are shared with the per-example beam, which guarantees the two paths return
identical hypotheses. :func:`advance_beam_row` is the one per-example beam
step built on them (walk, EOS picks into the finished pool, grown
continuations with their state-select, next-token and log-prob arrays, stop
rule); this engine runs it per example with its shared top-k, the serving
frontier (:mod:`repro.serving.engine`) per slot, and n-best
(:mod:`repro.decoding.nbest`) through this engine's pools, which
:func:`ranked_pool` builds. Two decode-path fixes are part of these
definitions:

1. **Optimistic early stop.** Under length normalization
   (``score = log_prob / len**penalty``) a live hypothesis's score can
   still *rise* as it grows, so comparing the best finished score against
   the best live *current* score prunes prematurely. The stop rule instead
   uses the standard OpenNMT/GNMT-style optimistic bound: the live raw
   log-probability normalized at whichever future length maximizes it.
2. **Adaptive candidate scan.** The scan over ranked candidates widens past
   the initial ``2 * beam_size`` window whenever it has not yet found
   ``beam_size`` viable continuations, so a window full of EOS finishes or
   non-viable junk (``-inf`` control tokens, unreachable OOV slots at
   :data:`~repro.models.base.OOV_LOG_FLOOR`) no longer kills the beam while
   expandable candidates remain further down the ranking.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import (
    NonFiniteLogits,
    OOV_LOG_FLOOR,
    QuestionGenerator,
    expand_encoder_context,
)
from repro.observability import Telemetry, emit_gate_statistics, get_telemetry, nonfinite_sentinel
from repro.tensor.core import no_grad

__all__ = [
    "NON_VIABLE_FLOOR",
    "RowAdvance",
    "advance_beam_row",
    "batched_beam_decode",
    "batched_beam_search",
    "ranked_pool",
    "select_step_candidates",
    "should_stop_row",
]

NON_VIABLE_FLOOR = OOV_LOG_FLOOR / 10
"""Step log-probabilities at or below this are never selected as
candidates: they mark unreachable slots (models without a copy path stamp
their OOV columns with :data:`~repro.models.base.OOV_LOG_FLOOR`), not real
probability mass."""


def select_step_candidates(
    totals: np.ndarray,
    step_lp: np.ndarray,
    beam_size: int,
    order: np.ndarray | None = None,
) -> tuple[list[tuple[int, float]], list[tuple[int, int, float]]]:
    """Pick one step's EOS finishes and live continuations for one example.

    Parameters
    ----------
    totals:
        ``(width, V_ext)`` cumulative candidate scores (step log-probs plus
        the source hypothesis's log-prob).
    step_lp:
        ``(width, V_ext)`` this step's log-probs (used for viability and for
        the per-token increment).
    beam_size:
        Number of live continuations to collect.
    order:
        Optional precomputed candidate ranking (flat indices into
        ``totals``, best first) — the batched engine passes the slice of its
        shared vectorized top-k. Must cover at least the top
        ``min(2 * beam_size, totals.size)`` candidates.

    Returns
    -------
    finished, live:
        ``finished`` is ``[(source, token_log_prob), ...]`` for every EOS
        candidate ranked above the point where the walk stopped; ``live`` is
        ``[(source, token, token_log_prob), ...]``, at most ``beam_size``
        long. Both lists are in descending candidate-score order, ties
        broken by flat candidate index (deterministic).

    The walk widens its scan past the initial ``2 * beam_size`` window until
    it has ``beam_size`` live continuations or has ranked every candidate —
    a window monopolized by EOS/non-viable entries cannot starve the beam.
    """
    flat = totals.reshape(-1)
    v_ext = totals.shape[1]
    total = flat.size
    scan = min(2 * beam_size, total)

    while True:
        if order is not None and order.size >= scan:
            ranked = order[:scan]
        elif scan >= total:
            ranked = np.argsort(-flat, kind="stable")
        else:
            window = np.argpartition(-flat, scan - 1)[:scan]
            ranked = window[np.lexsort((window, -flat[window]))]

        finished: list[tuple[int, float]] = []
        live: list[tuple[int, int, float]] = []
        for flat_index in ranked:
            source, token = divmod(int(flat_index), v_ext)
            token_lp = float(step_lp[source, token])
            if not np.isfinite(token_lp) or token_lp <= NON_VIABLE_FLOOR:
                continue
            if token == EOS_ID:
                finished.append((source, token_lp))
                continue
            live.append((source, token, token_lp))
            if len(live) == beam_size:
                break
        if len(live) == beam_size or scan >= total:
            return finished, live
        # Not enough viable continuations in this window: widen and redo the
        # walk from scratch (restarting keeps the result independent of the
        # window sequence, so per-example and batched paths agree).
        scan = min(2 * scan, total)
        order = None


def should_stop_row(
    finished: list[Hypothesis],
    live_log_probs: list[float],
    current_length: int,
    beam_size: int,
    max_length: int,
    length_penalty: float,
) -> bool:
    """Early-stop rule for one example's beam.

    Stops only when the finished pool is full *and* the best finished
    normalized score beats every live hypothesis's **optimistic bound**: its
    raw log-probability normalized at whichever reachable length maximizes
    the score. Raw log-probs only decrease, but under a positive length
    penalty the normalizer grows with length, so a live (negative) score can
    still rise — comparing against the live *current* score (the old rule)
    prunes hypotheses that would have won.
    """
    if len(finished) < beam_size or not live_log_probs:
        return False
    best_finished = max(h.score(length_penalty) for h in finished)
    norm_now = max(1, current_length) ** length_penalty
    norm_max = max(1, max_length) ** length_penalty
    best_bound = max(
        max(lp / norm_now, lp / norm_max) for lp in live_log_probs  # numerics: ok — length-penalty norms are >= 1
    )
    return best_finished >= best_bound


class RowAdvance(NamedTuple):
    """One example's beam after one step (see :func:`advance_beam_row`)."""

    live: list[Hypothesis]
    select: np.ndarray
    """``(beam_size,)`` live slot each new slot grew from; identity at dead slots."""
    tokens: np.ndarray
    """``(beam_size,)`` next input token per slot; EOS at dead slots."""
    log_probs: np.ndarray
    """``(beam_size,)`` live log-probs; ``-inf`` at dead slots."""
    stop: bool


def advance_beam_row(
    live: list[Hypothesis],
    finished: list[Hypothesis],
    totals: np.ndarray,
    step_lp: np.ndarray,
    beam_size: int,
    length: int,
    max_length: int,
    length_penalty: float,
    order: np.ndarray | None = None,
) -> RowAdvance:
    """Advance one example's beam by one decode step.

    ``totals`` and ``step_lp`` are the ``(len(live), V_ext)`` candidate
    scores and step log-probs of the example's live slots; ``order`` is an
    optional ranking over its whole ``(beam_size, V_ext)`` block (the
    batched engine's shared top-k), restricted here to the live slots: their
    flat indices coincide with the live candidate matrix, and if dead
    ``-inf`` slots crowded the window the walk ranks the live slice itself.
    EOS picks join ``finished`` in place (the EOS token scores but never
    surfaces). ``length`` is the decoded length after this step.

    ``stop`` is set when :func:`should_stop_row` fires or no viable
    continuation remains; in the latter case ``live`` comes back unchanged,
    so :func:`ranked_pool` can still fall back to it.
    """
    if order is not None and len(live) < beam_size:
        order = order[order < totals.size]
    eos_picks, continuations = select_step_candidates(
        totals, step_lp, beam_size, order=order
    )
    for source, token_lp in eos_picks:
        grown = live[source].extended(EOS_ID, token_lp, finished=True)
        finished.append(Hypothesis(grown.token_ids[:-1], grown.log_prob, finished=True))
    select = np.arange(beam_size, dtype=np.int64)
    tokens = np.full(beam_size, EOS_ID, dtype=np.int64)
    log_probs = np.full(beam_size, -np.inf)
    if not continuations:
        return RowAdvance(live, select, tokens, log_probs, True)
    new_live: list[Hypothesis] = []
    for j, (source, token, token_lp) in enumerate(continuations):
        grown = live[source].extended(token, token_lp, finished=False)
        new_live.append(grown)
        select[j] = source
        tokens[j] = token
        log_probs[j] = grown.log_prob
    stop = should_stop_row(
        finished,
        [h.log_prob for h in new_live],
        length,
        beam_size,
        max_length,
        length_penalty,
    )
    return RowAdvance(new_live, select, tokens, log_probs, stop)


def ranked_pool(
    finished: list[Hypothesis], live: list[Hypothesis], length_penalty: float
) -> list[Hypothesis]:
    """The finished hypotheses, else the live ones marked unfinished,
    sorted best-first by normalized score (ties keep their order)."""
    pool = finished or [Hypothesis(h.token_ids, h.log_prob, finished=False) for h in live]
    return sorted(pool, key=lambda h: -h.score(length_penalty))


def batched_beam_search(
    model: QuestionGenerator,
    batch: Batch,
    beam_size: int = 3,
    max_length: int = 30,
    length_penalty: float = 1.0,
    telemetry: Telemetry | None = None,
    deadline=None,
) -> list[list[Hypothesis]]:
    """Beam-decode every example simultaneously; returns ranked pools.

    The result has one list per example, sorted best-first by normalized
    score (ties keep finish order). Pools hold the finished hypotheses the
    beam collected; an example whose beam hit ``max_length`` without
    finishing returns its live hypotheses unfinished, like the per-example
    beam.

    ``deadline`` is an optional cooperative budget (any object with a
    ``check()`` method, e.g. :class:`repro.serving.deadline.Deadline`):
    it is consulted before the encode and once per beam step, and its own
    typed error propagates the moment the budget is exhausted — the
    serving layer catches it to fall down the degradation ladder.

    A decode step that produces NaN log-probabilities raises the typed
    :class:`~repro.models.base.NonFiniteLogits` (after firing a
    ``health.decode.logits`` sentinel) instead of silently starving the
    beam and returning empty hypotheses.

    Each call reports one ``decode.batch`` span (with an ``encode`` child),
    step/token counters, and tokens-per-second / hypotheses-per-second
    gauges through ``telemetry`` (the ambient hub when not given).
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")

    tel = telemetry if telemetry is not None else get_telemetry()
    decode_start = time.perf_counter()
    steps_run = 0
    tokens_generated = 0

    model.eval()
    with no_grad(), tel.span(
        "decode.batch", extra={"examples": batch.size, "beam_size": beam_size}
    ) as span_info:
        if deadline is not None:
            deadline.check()
        with tel.span("encode"):
            context = model.encode(batch)
        num_examples = context.batch_size
        expanded = expand_encoder_context(context, beam_size)
        state = model.initial_decoder_state(expanded)

        live: list[list[Hypothesis]] = [[Hypothesis((), 0.0)] for _ in range(num_examples)]
        finished: list[list[Hypothesis]] = [[] for _ in range(num_examples)]
        done = np.zeros(num_examples, dtype=bool)
        # Frontier bookkeeping: slot j of example r is frontier row
        # r * beam_size + j; only the first len(live[r]) slots are alive.
        prev = np.full(num_examples * beam_size, BOS_ID, dtype=np.int64)
        live_lp = np.full((num_examples, beam_size), -np.inf)
        live_lp[:, 0] = 0.0

        for step in range(max_length):
            if done.all():
                break
            if deadline is not None:
                deadline.check()
            step_lp, new_state = model.step_log_probs(prev, state, expanded)
            steps_run += 1
            nan_rows = np.isnan(step_lp).any(axis=1)
            if nan_rows.any():
                nonfinite_sentinel(
                    tel, "decode.logits", float("nan"), phase="beam", beam_step=step
                )
                raise NonFiniteLogits("step_log_probs", step=step, rows=int(nan_rows.sum()))
            step_lp[:, PAD_ID] = -np.inf
            step_lp[:, BOS_ID] = -np.inf
            v_ext = step_lp.shape[1]
            step_rows = step_lp.reshape(num_examples, beam_size, v_ext)
            totals = step_rows + live_lp[:, :, None]

            # One vectorized top-k over (B, beam_size * V_ext) for all rows;
            # the python walk below only touches these few candidates.
            flat = totals.reshape(num_examples, beam_size * v_ext)
            scan = min(2 * beam_size, flat.shape[1])
            window = np.argpartition(-flat, scan - 1, axis=1)[:, :scan]
            window_vals = np.take_along_axis(flat, window, axis=1)
            rank = np.lexsort((window, -window_vals), axis=1)
            ranked = np.take_along_axis(window, rank, axis=1)

            select = np.arange(num_examples * beam_size, dtype=np.int64)
            next_prev = np.full(num_examples * beam_size, EOS_ID, dtype=np.int64)
            next_lp = np.full((num_examples, beam_size), -np.inf)
            for r in np.flatnonzero(~done):
                width = len(live[r])
                advance = advance_beam_row(
                    live[r],
                    finished[r],
                    totals[r, :width],
                    step_rows[r, :width],
                    beam_size,
                    step + 1,
                    max_length,
                    length_penalty,
                    order=ranked[r],
                )
                base = r * beam_size
                live[r] = advance.live
                done[r] = advance.stop
                select[base: base + beam_size] = base + advance.select
                next_prev[base: base + beam_size] = advance.tokens
                next_lp[r] = advance.log_probs
            tokens_generated += int(np.isfinite(next_lp).sum())
            state = new_state.select(select)
            prev = next_prev
            live_lp = next_lp

        pools = [ranked_pool(pool, hyps, length_penalty) for pool, hyps in zip(finished, live)]

        elapsed = time.perf_counter() - decode_start
        span_info["steps"] = steps_run
        span_info["tokens"] = tokens_generated
        tel.counter("decode.steps", steps_run)
        tel.throughput("decode.tokens", tokens_generated, elapsed)
        tel.throughput("decode.hypotheses", num_examples, elapsed)
        if hasattr(model, "pop_decode_gate_stats"):
            emit_gate_statistics(tel, "decode.gate", model.pop_decode_gate_stats())
        return pools


def batched_beam_decode(
    model: QuestionGenerator,
    batch: Batch,
    beam_size: int = 3,
    max_length: int = 30,
    length_penalty: float = 1.0,
    telemetry: Telemetry | None = None,
    deadline=None,
) -> list[Hypothesis]:
    """Best hypothesis per example, via the batch-parallel engine."""
    pools = batched_beam_search(
        model,
        batch,
        beam_size=beam_size,
        max_length=max_length,
        length_penalty=length_penalty,
        telemetry=telemetry,
        deadline=deadline,
    )
    return [pool[0] for pool in pools]
