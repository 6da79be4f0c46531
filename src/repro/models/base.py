"""Shared model interface.

All three systems (Seq2Seq baseline, Du et al. attention model, ACNN)
implement :class:`QuestionGenerator`:

- :meth:`loss` — teacher-forced training loss on a :class:`Batch`;
- :meth:`encode` — run the encoder, producing an :class:`EncoderContext`;
- :meth:`initial_decoder_state` / :meth:`decode_step` — the incremental
  decoding interface: one decoder step per family, returning a
  :class:`DecodeStep` record (log-probs, next state and the step's
  internals). Decode steps are inference-only and run on plain arrays;
  the training loss runs the same step on the autodiff tape;
- :meth:`step_log_probs` — the ``(log_probs, state)`` view of that record,
  which the greedy/beam decoders drive.

The log-probabilities cover the *extended* vocabulary (decoder vocab
followed by per-example source OOV slots); models without a copy path
stamp the OOV slots with :data:`OOV_LOG_FLOOR`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.batching import Batch
from repro.nn.module import Module
from repro.tensor.core import Tensor

__all__ = [
    "EncoderContext",
    "DecodeStep",
    "DecoderStepState",
    "DecodeInTrainingMode",
    "NonFiniteLogits",
    "QuestionGenerator",
    "OOV_LOG_FLOOR",
    "expand_encoder_context",
]

State = tuple[Tensor, Tensor]

OOV_LOG_FLOOR = -1e18
"""Log-probability stamp for extended-vocab slots a model cannot reach
(models without a copy path). Far below any real log-probability; decoders
treat anything at or below ``OOV_LOG_FLOOR / 10`` as non-viable."""


class NonFiniteLogits(RuntimeError):
    """A decode step produced NaN log-probabilities.

    ``-inf`` is a legitimate masking value (PAD/BOS, unreachable OOV
    slots), but NaN is always a contract violation — diverged weights, a
    numerically broken step, or an injected fault. The decoders raise this
    typed error instead of silently selecting nothing and returning empty
    hypotheses, so a serving layer can degrade or retry explicitly.
    """

    def __init__(self, where: str, step: int | None = None, rows: int = 0) -> None:
        detail = f" at step {step}" if step is not None else ""
        super().__init__(
            f"non-finite (NaN) log-probabilities from {where}{detail}"
            + (f" in {rows} row(s)" if rows else "")
        )
        self.where = where
        self.step = step
        self.rows = rows


class DecodeInTrainingMode(RuntimeError):
    """:meth:`QuestionGenerator.decode_step` was called on a model in
    training mode.

    Decode steps are inference-only: they run without dropout and off the
    tape. Call ``model.eval()`` first, as every decoder does.
    """

    def __init__(self, model: str) -> None:
        super().__init__(f"{model}.decode_step is inference-only; call model.eval() first")
        self.model = model


@dataclass
class EncoderContext:
    """Everything decoding needs about an encoded batch."""

    encoder_states: Tensor
    """(B, S, enc_out) per-position encoder representations (None-like zero
    tensor for the attention-free baseline, which ignores it)."""
    src_pad_mask: np.ndarray
    """(B, S) True at padding."""
    src_ext: np.ndarray
    """(B, S) extended-vocabulary ids for copy scattering."""
    max_oov: int
    """Largest per-example OOV count in the batch."""
    initial_states: list[State]
    """Per-layer decoder start states (bridged from the encoder)."""

    @property
    def batch_size(self) -> int:
        return self.src_ext.shape[0]


def expand_encoder_context(context: EncoderContext, beam_size: int) -> EncoderContext:
    """Repeat every per-example row ``beam_size`` times along the batch axis.

    Row ``i`` of the result backs hypothesis-frontier row ``i`` of the
    batched beam engine, i.e. example ``i // beam_size``. Expanding once up
    front lets every subsequent :meth:`QuestionGenerator.step_log_probs`
    call run with ``row_indices=None`` (rows align 1:1 with the frontier)
    instead of re-gathering encoder tensors on every step.
    """
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if beam_size == 1:
        return context

    def repeat(array: np.ndarray) -> np.ndarray:
        return np.repeat(array, beam_size, axis=0)

    return EncoderContext(
        encoder_states=Tensor(repeat(context.encoder_states.data)),
        src_pad_mask=repeat(context.src_pad_mask),
        src_ext=repeat(context.src_ext),
        max_oov=context.max_oov,
        initial_states=[
            (Tensor(repeat(h.data)), Tensor(repeat(c.data)))
            for h, c in context.initial_states
        ],
    )


@dataclass
class DecoderStepState:
    """Recurrent decoder state carried between steps."""

    lstm_states: list[State]
    coverage: np.ndarray | None = None
    """(B, S) accumulated attention (only for coverage-enabled models)."""

    def select(self, indices: np.ndarray) -> "DecoderStepState":
        """Reorder/duplicate along the batch axis (beam bookkeeping)."""
        picked = [
            (Tensor(h.data[indices]), Tensor(c.data[indices]))
            for h, c in self.lstm_states
        ]
        coverage = self.coverage[indices] if self.coverage is not None else None
        return DecoderStepState(picked, coverage=coverage)


@dataclass(slots=True)
class DecodeStep:
    """One decoder step (:meth:`QuestionGenerator.decode_step`): what the
    decoders rank, the state to carry on, and the step's internals."""

    log_probs: np.ndarray
    """(B, decoder_vocab + max_oov) extended-vocabulary log-probabilities."""
    state: DecoderStepState
    attention: np.ndarray | None = None
    """(B, S) attention weights over source positions (None without
    attention)."""
    copy_distribution: np.ndarray | None = None
    """(B, S) Eq. 3 copy probabilities over source positions (ACNN only)."""
    switch: np.ndarray | None = None
    """(B,) Eq. 4 gate ``z_k`` (ACNN only)."""
    probs: np.ndarray | None = None
    """(B, decoder_vocab + max_oov) Eq. 2 probabilities that ``log_probs``
    smooths (ACNN only)."""


class QuestionGenerator(Module):
    """Abstract base for every model in the comparison."""

    name: str = "base"

    def __init__(self, decoder_vocab_size: int) -> None:
        super().__init__()
        self.decoder_vocab_size = decoder_vocab_size

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        """Teacher-forced token-averaged NLL for one batch."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Decoding interface
    # ------------------------------------------------------------------
    def encode(self, batch: Batch) -> EncoderContext:
        """Run the encoder over a batch (call under ``no_grad`` for eval)."""
        raise NotImplementedError

    def initial_decoder_state(self, context: EncoderContext) -> DecoderStepState:
        """The decoder state before the first step (bridged encoder states)."""
        return DecoderStepState(list(context.initial_states))

    def decode_step(
        self,
        prev_tokens: np.ndarray,
        state: DecoderStepState,
        context: EncoderContext,
        row_indices: np.ndarray | None = None,
    ) -> DecodeStep:
        """One decoding step, with its internals.

        Inference-only: runs on the parameters' arrays, off the tape, and
        raises :class:`DecodeInTrainingMode` on a model in training mode.

        Parameters
        ----------
        prev_tokens:
            ``(B,)`` previously generated extended-vocab ids (ids beyond the
            decoder vocabulary are fed back as UNK).
        state:
            Recurrent state from the previous step.
        context:
            Output of :meth:`encode`. With ``row_indices=None`` the rows of
            ``prev_tokens``/``state`` align 1:1 with the context's batch
            rows — the batched beam engine relies on this after expanding
            the context once via :func:`expand_encoder_context`. When the
            per-example beam expands one encoded example into several
            hypothesis rows instead, ``row_indices`` maps each row of
            ``prev_tokens`` onto the context's batch row.
        """
        raise NotImplementedError

    def step_log_probs(
        self,
        prev_tokens: np.ndarray,
        state: DecoderStepState,
        context: EncoderContext,
        row_indices: np.ndarray | None = None,
    ) -> tuple[np.ndarray, DecoderStepState]:
        """:meth:`decode_step` as the ``(log_probs, new_state)`` pair the
        decoders drive (and the serving fault injector intercepts)."""
        step = self.decode_step(prev_tokens, state, context, row_indices)
        return step.log_probs, step.state

    def extended_vocab_size(self, context: EncoderContext) -> int:
        """Decoder vocabulary plus this batch's per-example OOV slots."""
        return self.decoder_vocab_size + context.max_oov

    # ------------------------------------------------------------------
    # Introspection (Figure 1 reproduction)
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable component inventory of the architecture."""
        raise NotImplementedError

    def _require_inference(self) -> None:
        """Refuse a decode step in training mode (see :meth:`decode_step`)."""
        if self.training:
            raise DecodeInTrainingMode(type(self).__name__)

    @staticmethod
    def _context_rows(context: EncoderContext, row_indices: np.ndarray | None):
        """Encoder arrays for the requested rows.

        ``row_indices=None`` is the batched contract: the caller guarantees
        its step rows already align 1:1 with the context rows (either a
        plain batch, or a frontier over a pre-expanded context), so no
        gather happens. A non-None ``row_indices`` is the per-example beam's
        per-step re-gather.
        """
        states = context.encoder_states.data
        if row_indices is None:
            return states, context.src_pad_mask, context.src_ext
        return states[row_indices], context.src_pad_mask[row_indices], context.src_ext[row_indices]

    @staticmethod
    def floor_oov_slots(log_probs: np.ndarray, context: EncoderContext) -> np.ndarray:
        """Append the batch's OOV slots to decoder-vocab log-probs of a model
        without a copy path: unreachable, so stamped with the floor that
        decoders treat as non-viable, never as selectable mass."""
        if not context.max_oov:
            return log_probs
        pad = np.full((log_probs.shape[0], context.max_oov), OOV_LOG_FLOOR)
        return np.concatenate([log_probs, pad], axis=1)

    @staticmethod
    def map_to_decoder_vocab(prev_tokens: np.ndarray, vocab_size: int, unk_id: int) -> np.ndarray:
        """Replace extended-vocab ids (copied OOVs) with UNK for embedding."""
        prev_tokens = np.asarray(prev_tokens)
        return np.where(prev_tokens >= vocab_size, unk_id, prev_tokens)
