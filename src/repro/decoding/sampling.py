"""Stochastic decoding: temperature and top-k sampling.

An extension beyond the paper's beam search, useful for generating *diverse*
question sets from one source (e.g. building QA training data, one of the
applications the paper's introduction motivates).
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.decoding.greedy import decode_tokens
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import QuestionGenerator

__all__ = ["sample_decode"]


def sample_decode(
    model: QuestionGenerator,
    batch: Batch,
    rng: np.random.Generator,
    temperature: float = 1.0,
    top_k: int | None = None,
    max_length: int = 30,
) -> list[Hypothesis]:
    """Sample one sequence per batch example.

    Parameters
    ----------
    rng:
        Source of randomness (pass a seeded generator for reproducibility).
    temperature:
        Softmax temperature; < 1 sharpens toward greedy, > 1 flattens.
    top_k:
        If set, sample only among the k most probable tokens per step.

    Runs greedy decoding's token loop
    (:func:`~repro.decoding.greedy.decode_tokens`) with a sampled pick, so a
    NaN decode step raises the typed
    :class:`~repro.models.base.NonFiniteLogits`.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")

    def pick(step_lp: np.ndarray) -> np.ndarray:
        scaled = step_lp / temperature  # numerics: ok — temperature validated > 0 above
        choices = np.empty(len(scaled), dtype=np.int64)
        for row, row_scores in enumerate(scaled):
            if top_k is not None:
                keep = np.argpartition(-row_scores, min(top_k, row_scores.size - 1))[:top_k]
                mask = np.full_like(row_scores, -np.inf)
                mask[keep] = row_scores[keep]
                row_scores = mask
            shifted = row_scores - row_scores.max()
            probs = np.exp(shifted)  # numerics: ok — shifted <= 0, exp cannot overflow
            probs /= probs.sum()  # numerics: ok — max element contributes exp(0) = 1
            choices[row] = rng.choice(len(probs), p=probs)
        return choices

    return decode_tokens(model, batch, pick, max_length)
