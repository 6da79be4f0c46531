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
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary
from repro.decoding.hypothesis import extended_ids_to_tokens
from repro.models.acnn import ACNN
from repro.models.base import DecoderStepState, NonFiniteLogits
from repro.tensor.core import Tensor, no_grad
from repro.tensor.ops import softmax

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

    A NaN step raises :class:`~repro.models.base.NonFiniteLogits`, as in
    greedy decoding.
    """
    if not isinstance(model, ACNN):
        raise TypeError("trace_generation requires an ACNN (it reads the copy internals)")
    model.eval()
    batch = collate([encoded], pad_id=PAD_ID)

    steps: list[StepTrace] = []
    with no_grad():
        context = model.encode(batch)
        state = model.initial_decoder_state(context)
        prev = np.array([BOS_ID], dtype=np.int64)
        for step in range(max_length):
            token_ids = model.map_to_decoder_vocab(prev, model.decoder_vocab_size, UNK_ID)
            embedded = model.decoder_embedding(token_ids)
            coverage = Tensor(state.coverage) if state.coverage is not None else None
            d_k, c_k, attn, logits, new_lstm = model._decode_step(
                embedded,
                state.lstm_states,
                context.encoder_states,
                context.src_pad_mask,
                coverage=coverage,
            )
            p_att = softmax(logits, axis=-1).data
            p_cop = model.copy_distribution(
                d_k, c_k, context.encoder_states, context.src_pad_mask
            ).data
            z = model.switch(d_k, c_k, embedded).data

            extended = model._extended_mixture(p_att, p_cop, z, context.src_ext, context.max_oov)[0]
            if np.isnan(extended).any():
                raise NonFiniteLogits("_extended_mixture", step=step, rows=1)
            extended[PAD_ID] = 0.0
            extended[BOS_ID] = 0.0
            choice = int(extended.argmax())

            state = DecoderStepState(
                new_lstm,
                coverage=state.coverage + attn.data if state.coverage is not None else None,
            )
            if choice == EOS_ID:
                break
            token = extended_ids_to_tokens([choice], decoder_vocab, encoded.oov_tokens)[0]
            steps.append(
                StepTrace(
                    token=token,
                    token_id=choice,
                    copied=choice >= model.decoder_vocab_size,
                    switch=float(z[0]),
                    attention=attn.data[0].copy(),
                    copy_distribution=p_cop[0].copy(),
                )
            )
            prev = np.array([choice], dtype=np.int64)

    return GenerationTrace(
        source_tokens=encoded.src_tokens,
        generated_tokens=tuple(step.token for step in steps),
        steps=tuple(steps),
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
