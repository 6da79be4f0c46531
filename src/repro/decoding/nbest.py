"""N-best beam decoding.

Question generation's flagship application (per the paper's introduction) is
producing question-answer pairs at scale for QA training; for that you want
*several* candidate questions per source, not just the best one.
:func:`beam_decode_nbest` exposes the ranked pools of the batch-parallel
beam (:func:`~repro.decoding.batched_beam.batched_beam_search`); it runs no
decode loop of its own.
"""

from __future__ import annotations

from repro.data.batching import Batch
from repro.decoding.batched_beam import batched_beam_search
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import QuestionGenerator

__all__ = ["beam_decode_nbest"]


def beam_decode_nbest(
    model: QuestionGenerator,
    batch: Batch,
    n_best: int = 3,
    beam_size: int | None = None,
    max_length: int = 30,
    length_penalty: float = 1.0,
) -> list[list[Hypothesis]]:
    """Return up to ``n_best`` hypotheses per example, best first.

    Each list is the example's :func:`batched_beam_search` pool (finished
    hypotheses, else the live ones unfinished), deduplicated by surface and
    cut to ``n_best``.

    ``beam_size`` defaults to ``n_best`` and must not be smaller: the stop
    rule waits for ``beam_size`` finished hypotheses, so a narrower beam
    could stop before its pool reaches the requested depth. A beam finishes
    at most about ``beam_size`` distinct hypotheses per step, so ask for a
    wider beam if you need guaranteed-deep n-best lists.
    """
    if n_best < 1:
        raise ValueError(f"n_best must be >= 1, got {n_best}")
    beam_size = beam_size or n_best
    if beam_size < n_best:
        raise ValueError(f"beam_size must be >= n_best, got {beam_size} < {n_best}")

    pools = batched_beam_search(
        model, batch, beam_size=beam_size, max_length=max_length, length_penalty=length_penalty
    )
    lists: list[list[Hypothesis]] = []
    for pool in pools:
        # Pools are ranked, so the first hypothesis per surface is its best.
        unique: dict[tuple[int, ...], Hypothesis] = {}
        for hypothesis in pool:
            unique.setdefault(hypothesis.token_ids, hypothesis)
        lists.append(list(unique.values())[:n_best])
    return lists
