"""Decode-time introspection: attention maps and switch-gate traces.

The paper's core claim is that the gate ``z_k`` (Eq. 4) selects *adaptively*
between copying and generating. :func:`trace_generation` replays a greedy
decode step by step, recording for each emitted token the attention
distribution over source positions, the copy distribution, the gate value,
and whether the token came out of the extended (copy) region of the
vocabulary — the raw material for verifying adaptivity quantitatively
(see :func:`gate_statistics`) or eyeballing it (:func:`render_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.batching import collate
from repro.data.dataset import EncodedExample
from repro.data.vocabulary import PAD_ID, Vocabulary
from repro.decoding.greedy import argmax_pick, decode_tokens, recording_step
from repro.decoding.hypothesis import extended_ids_to_tokens
from repro.models.acnn import ACNN
from repro.models.base import DecodeStep

__all__ = ["StepTrace", "GenerationTrace", "trace_generation", "gate_statistics", "render_trace"]


@dataclass(frozen=True)
class StepTrace:
    """One decoding step of one example."""

    token: str
    token_id: int
    copied: bool
    """True when the emitted id lies in the extended (source-OOV) region."""
    switch: float
    """Gate value z_k in (0, 1): 1 = copy, 0 = generate."""
    attention: np.ndarray
    """(S,) attention weights over source positions."""
    copy_distribution: np.ndarray
    """(S,) copy probabilities over source positions."""


@dataclass(frozen=True)
class GenerationTrace:
    """A full greedy decode of one example with per-step internals."""

    source_tokens: tuple[str, ...]
    generated_tokens: tuple[str, ...]
    steps: tuple[StepTrace, ...]

    @property
    def mean_switch(self) -> float:
        if not self.steps:
            return 0.0
        return float(np.mean([step.switch for step in self.steps]))


def trace_generation(
    model: ACNN,
    encoded: EncodedExample,
    decoder_vocab: Vocabulary,
    max_length: int = 30,
) -> GenerationTrace:
    """Greedy-decode one example, recording the model internals per step.

    The picks are :func:`~repro.decoding.greedy.greedy_decode`'s, so the
    trace reports the tokens greedy decoding emits. A NaN step raises
    :class:`~repro.models.base.NonFiniteLogits`, as in greedy decoding.
    """
    if not isinstance(model, ACNN):
        raise TypeError("trace_generation requires an ACNN (it reads the copy internals)")
    records: list[DecodeStep] = []
    batch = collate([encoded], pad_id=PAD_ID)
    (hypothesis,) = decode_tokens(
        model, batch, argmax_pick, max_length, step_fn=recording_step(model, records)
    )
    tokens = extended_ids_to_tokens(hypothesis.token_ids, decoder_vocab, encoded.oov_tokens)
    steps = tuple(
        StepTrace(
            token=token,
            token_id=token_id,
            copied=token_id >= model.decoder_vocab_size,
            switch=float(record.switch[0]),
            attention=record.attention[0].copy(),
            copy_distribution=record.copy_distribution[0].copy(),
        )
        for token, token_id, record in zip(tokens, hypothesis.token_ids, records)
    )
    return GenerationTrace(
        source_tokens=encoded.src_tokens,
        generated_tokens=tuple(tokens),
        steps=steps,
    )


def gate_statistics(traces: list[GenerationTrace]) -> dict[str, float]:
    """Aggregate evidence that the gate is adaptive.

    Returns the mean gate value at steps that emitted a copied
    (extended-region) token vs steps that generated from the vocabulary,
    plus the overall copy rate. An adaptive gate shows
    ``mean_switch_when_copying >> mean_switch_when_generating``.
    """
    copy_gates: list[float] = []
    gen_gates: list[float] = []
    for trace in traces:
        for step in trace.steps:
            (copy_gates if step.copied else gen_gates).append(step.switch)
    total = len(copy_gates) + len(gen_gates)
    return {
        "mean_switch_when_copying": float(np.mean(copy_gates)) if copy_gates else float("nan"),
        "mean_switch_when_generating": float(np.mean(gen_gates)) if gen_gates else float("nan"),
        "copy_rate": len(copy_gates) / total if total else 0.0,  # numerics: ok — inline zero-check ternary
        "steps": float(total),
    }


def render_trace(trace: GenerationTrace, top_k: int = 3) -> str:
    """Text rendering: per generated token, the gate and top attended words."""
    lines = [f"source: {' '.join(trace.source_tokens)}", ""]
    header = f"{'token':>14s}  {'z':>5s}  {'copied':>6s}  top attention"
    lines.append(header)
    lines.append("-" * len(header))
    for step in trace.steps:
        order = np.argsort(-step.attention)[:top_k]
        attended = ", ".join(
            f"{trace.source_tokens[i]}:{step.attention[i]:.2f}"
            for i in order
            if i < len(trace.source_tokens)
        )
        lines.append(
            f"{step.token:>14s}  {step.switch:5.2f}  {'yes' if step.copied else 'no':>6s}  {attended}"
        )
    return "\n".join(lines)
