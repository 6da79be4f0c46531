"""The Adaptive Copying Neural Network (ACNN) — the paper's contribution.

ACNN extends the Du et al. attention model with Eqs. 2-4 of Section 3.2:

- **Eq. 2 (mixture)**: ``P(y_k) = z_k P_cop(y_k) + (1 - z_k) P_att(y_k)``,
  where ``P_att`` generates from the decoder vocabulary and ``P_cop`` copies
  from the source.
- **Eq. 3 (copy distribution)**: a softmax over the words of the source
  sequence scored against the transformed decoder context. As printed in
  the paper, Eq. 3 reuses the symbol ``V`` on both sides and is dimensionally
  ambiguous; we implement the standard pointer reading that matches its
  shape: each source position ``t`` receives the score

      s_t = h_t^T (V [d_k ; c_k] + b_1) + b_2

  (``h_t`` = encoder state at position t, ``V`` a learned projection of the
  concatenated decoder state and context, ``b_1`` a vector bias, ``b_2`` a
  scalar bias), and ``P_cop`` is the masked softmax of ``s`` over source
  positions; the probability of *word* w is the sum over positions holding
  w. This keeps Eq. 3's "softmax over the unique word set of the source"
  semantics.
- **Eq. 4 (adaptive switch)**:
  ``z_k = sigmoid(W_d^T d_k + W_c^T c_k + W_s^T y_{k-1} + b)`` with
  ``y_{k-1}`` the embedding of the previous output token — the data-adaptive
  gate that selects between generating and copying.

For ablations, ``switch_mode`` can freeze the gate: ``"adaptive"`` (paper),
``"fixed"`` with a constant ``z`` (0 = pure attention, 1 = pure copy).

Eqs. 3 and 4 each have a tape form (:meth:`ACNN.copy_distribution`,
:meth:`ACNN.switch`) for the teacher-forced loss and, next to it, an array
form for inference decode steps (:meth:`ACNN.decode_step`). Eq. 3's tape
form is the single fused node
:func:`repro.nn.functional.fused_pointer_probs`; both give the same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import PAD_ID, UNK_ID
from repro.models.base import DecoderStepState, DecodeStep, EncoderContext
from repro.models.config import ModelConfig
from repro.models.du_attention import DuAttentionModel
from repro.nn import Linear, Parameter, sequence_nll
from repro.nn import init as nn_init
from repro.nn.attention import live_width, pad_masked_scores_array
from repro.nn.loss import PROBABILITY_FLOOR
from repro.nn.functional import fused_pointer_probs
from repro.nn.numerics import (
    np_bernoulli_entropy,
    np_saturating_sigmoid,
    np_smoothed_log,
    np_stable_softmax,
    saturating_sigmoid,
)
from repro.tensor.core import Tensor
from repro.tensor.ops import concat, gather_rows, minimum, softmax

__all__ = ["ACNN"]

_MASK_VALUE = -1e9


class ACNN(DuAttentionModel):
    """Adaptive copying model: attention decoder + copy path + switch gate."""

    name = "acnn"

    def __init__(
        self,
        config: ModelConfig,
        encoder_vocab_size: int,
        decoder_vocab_size: int,
        switch_mode: str = "adaptive",
        fixed_switch: float = 0.5,
        use_coverage: bool = False,
        coverage_loss_weight: float = 1.0,
        use_answer_features: bool = False,
        answer_feature_dim: int = 8,
    ) -> None:
        super().__init__(
            config,
            encoder_vocab_size,
            decoder_vocab_size,
            use_answer_features=use_answer_features,
            answer_feature_dim=answer_feature_dim,
        )
        if switch_mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown switch_mode {switch_mode!r}")
        if not 0.0 <= fixed_switch <= 1.0:
            raise ValueError(f"fixed_switch must be in [0, 1], got {fixed_switch}")
        if coverage_loss_weight < 0:
            raise ValueError(f"coverage_loss_weight must be >= 0, got {coverage_loss_weight}")
        self.switch_mode = switch_mode
        self.fixed_switch = fixed_switch
        self.use_coverage = use_coverage
        self.coverage_loss_weight = coverage_loss_weight
        self.collect_gate_stats = False
        """When true (set by the trainer/evaluator while telemetry is
        active), each forward pass summarizes the Eq. 2/4 switch gate into
        :attr:`last_gate_stats` — z mean, Bernoulli entropy, hard copy rate
        over non-pad tokens. Off by default: un-observed runs pay nothing."""
        self.last_gate_stats: dict | None = None
        self._decode_gate_accum: dict | None = None

        rng = np.random.default_rng(config.seed + 100)
        if use_coverage:
            # Rebuild the attention layer with the coverage term (See et al.
            # 2017 extension; see DESIGN.md's ablation index).
            from repro.nn import GlobalAttention

            self.attention = GlobalAttention(
                config.hidden_size,
                self.encoder_output_size,
                np.random.default_rng(config.seed + 200),
                use_coverage=True,
            )
        hidden = config.hidden_size
        # Eq. 3: V [d_k ; c_k] + b_1 projects into encoder-state space; b_2
        # is the scalar score bias.
        self.copy_projection = Linear(hidden + self.encoder_output_size, self.encoder_output_size, rng)
        self.copy_score_bias = Parameter(np.zeros(1), name="copy_b2")
        # Eq. 4: one weight vector per input of the switch gate.
        self.switch_d = Parameter(nn_init.uniform((hidden,), rng), name="W_d")
        self.switch_c = Parameter(nn_init.uniform((self.encoder_output_size,), rng), name="W_c")
        self.switch_y = Parameter(nn_init.uniform((config.embedding_dim,), rng), name="W_s")
        self.switch_bias = Parameter(np.zeros(1), name="switch_b")

    # ------------------------------------------------------------------
    # Copy machinery
    # ------------------------------------------------------------------
    def copy_distribution(
        self,
        d_k: Tensor,
        c_k: Tensor,
        encoder_states: Tensor,
        src_pad_mask: np.ndarray,
    ) -> Tensor:
        """Eq. 3: ``P_cop`` over source positions, padding masked out.

        The score→bias→mask→softmax chain is one fused tape node at the
        full width. The Linear stays an ordinary tape op, so its parameters
        remain ordinary tape parents.
        """
        projected = self.copy_projection(concat([d_k, c_k], axis=1))  # (B, enc_out)
        return fused_pointer_probs(
            projected, encoder_states, self.copy_score_bias, src_pad_mask, mask_value=_MASK_VALUE
        )

    def copy_distribution_array(
        self,
        d_k: np.ndarray,
        c_k: np.ndarray,
        encoder_states: np.ndarray,
        src_pad_mask: np.ndarray,
    ) -> np.ndarray:
        """:meth:`copy_distribution` on arrays, off the tape: the elementary
        chain over the live source prefix, softmax at the full width (same
        bytes as the fused kernel, see :mod:`repro.nn.attention`)."""
        projected = self.copy_projection.forward_array(np.concatenate([d_k, c_k], axis=1))
        width = encoder_states.shape[1]
        live = live_width(src_pad_mask, width)
        if live < width:
            encoder_states = encoder_states[:, :live]
            src_pad_mask = src_pad_mask[:, :live]
        scores = (np.expand_dims(projected, 1) * encoder_states).sum(axis=2)  # (B, live)
        scores = scores + self.copy_score_bias.data
        scores = np.where(src_pad_mask, _MASK_VALUE, scores)
        return np_stable_softmax(pad_masked_scores_array(scores, width), axis=1)

    def _extended_mixture(
        self,
        p_att: np.ndarray,
        p_cop: np.ndarray,
        z: np.ndarray,
        src_ext: np.ndarray,
        max_oov: int,
    ) -> np.ndarray:
        """Eq. 2 over the extended vocabulary, as a plain probability array.

        Scatters the copy distribution (over source positions) onto extended
        token ids and mixes it with the generation distribution:
        ``(B, decoder_vocab + max_oov)``. Trailing columns that pad every
        row are skipped: their copy mass is exactly zero.
        """
        live = live_width(src_ext == PAD_ID, src_ext.shape[1])
        src_ext, p_cop = src_ext[:, :live], p_cop[:, :live]
        batch_size = p_att.shape[0]
        z = z.reshape(-1, 1)
        extended = np.zeros((batch_size, self.decoder_vocab_size + max_oov))
        extended[:, : self.decoder_vocab_size] = (1.0 - z) * p_att
        rows = np.repeat(np.arange(batch_size)[:, None], src_ext.shape[1], axis=1)
        np.add.at(extended, (rows, src_ext), z * p_cop)
        return extended

    def switch(self, d_k: Tensor, c_k: Tensor, y_prev_embedded: Tensor) -> Tensor:
        """Eq. 4: the adaptive copy/generate gate ``z_k`` in (0, 1).

        The adaptive gate is computed with a saturation guard: a gate that
        returns exactly 0 or 1 multiplies one branch of the Eq. 2 mixture
        by exact zero, which kills both the probability and the gradient
        of any target token only the other branch can explain. (``fixed``
        mode is left unguarded on purpose — 0/1 there is the requested
        pure-attention / pure-copy ablation.)
        """
        if self.switch_mode == "fixed":
            return Tensor(np.full((d_k.shape[0],), self.fixed_switch))
        logit = (
            d_k @ self.switch_d
            + c_k @ self.switch_c
            + y_prev_embedded @ self.switch_y
            + self.switch_bias
        )
        return saturating_sigmoid(logit)  # (B,), in [eps, 1 - eps]

    def switch_array(
        self, d_k: np.ndarray, c_k: np.ndarray, y_prev_embedded: np.ndarray
    ) -> np.ndarray:
        """:meth:`switch` on arrays, off the tape (same numpy operations)."""
        if self.switch_mode == "fixed":
            return np.full((d_k.shape[0],), self.fixed_switch)
        logit = (
            d_k @ self.switch_d.data
            + c_k @ self.switch_c.data
            + y_prev_embedded @ self.switch_y.data
            + self.switch_bias.data
        )
        return np_saturating_sigmoid(logit)

    # ------------------------------------------------------------------
    # Training (Eq. 1/2: maximize the mixture likelihood of gold tokens)
    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        context = self.encode(batch)
        states = list(context.initial_states)
        embedded = self.decoder_embedding(batch.tgt_input)
        time_steps = batch.tgt_input.shape[1]
        valid = ~batch.tgt_pad_mask

        coverage: Tensor | None = None
        if self.use_coverage:
            coverage = Tensor(np.zeros((batch.size, batch.src.shape[1])))
        coverage_penalty: Tensor | None = None

        gate_z_sum = gate_entropy_sum = gate_copy_sum = 0.0
        gate_tokens = 0

        step_probs: list[Tensor] = []
        for t in range(time_steps):
            x_t = embedded[:, t, :]
            d_k, c_k, attn, logits, states = self._decode_step(
                x_t, states, context.encoder_states, context.src_pad_mask, coverage=coverage
            )
            p_att = softmax(logits, axis=-1)  # (B, V)
            p_att_target = gather_rows(p_att, batch.tgt_output[:, t])
            # Zero out the generation path where it may not explain the
            # token (decoder-OOV but copyable: only the copy path counts).
            p_att_target = p_att_target * Tensor(batch.att_allowed[:, t])

            p_cop = self.copy_distribution(d_k, c_k, context.encoder_states, context.src_pad_mask)
            p_cop_target = (p_cop * Tensor(batch.copy_match[:, t, :])).sum(axis=1)

            z = self.switch(d_k, c_k, x_t)
            mixture = z * p_cop_target + (1.0 - z) * p_att_target  # Eq. 2
            step_probs.append(mixture)

            if self.collect_gate_stats:
                mask = valid[:, t]
                z_values = z.data[mask]
                gate_z_sum += float(z_values.sum())
                gate_entropy_sum += float(np_bernoulli_entropy(z_values).sum())
                gate_copy_sum += float((z_values > 0.5).sum())
                gate_tokens += int(mask.sum())

            if coverage is not None:
                # Coverage loss (See et al. 2017): penalize re-attending.
                overlap = minimum(attn, coverage).sum(axis=1)
                step_penalty = (overlap * Tensor(valid[:, t].astype(float))).sum()
                coverage_penalty = (
                    step_penalty if coverage_penalty is None else coverage_penalty + step_penalty
                )
                coverage = coverage + attn

        if self.collect_gate_stats:
            from repro.observability import gate_statistics

            self.last_gate_stats = gate_statistics(
                gate_z_sum, gate_entropy_sum, gate_copy_sum, gate_tokens
            )

        nll = sequence_nll(step_probs, batch.tgt_output, batch.tgt_pad_mask)
        if coverage_penalty is not None and self.coverage_loss_weight > 0:
            total_tokens = float(valid.sum())
            nll = nll + coverage_penalty * (self.coverage_loss_weight / total_tokens)  # numerics: ok — total_tokens > 0 enforced by sequence_nll
        return nll

    # ------------------------------------------------------------------
    # Decoding: full extended-vocabulary distribution
    # ------------------------------------------------------------------
    def initial_decoder_state(self, context: EncoderContext) -> DecoderStepState:
        state = super().initial_decoder_state(context)
        if self.use_coverage:
            batch, src_len = context.src_ext.shape
            state.coverage = np.zeros((batch, src_len))
        return state

    def decode_step(
        self,
        prev_tokens: np.ndarray,
        state: DecoderStepState,
        context: EncoderContext,
        row_indices: np.ndarray | None = None,
    ) -> DecodeStep:
        """One step of Eqs. 2-4: attention, ``P_cop``, ``z_k`` and their
        Eq. 2 mixture over the extended vocabulary."""
        self._require_inference()
        encoder_states, src_pad_mask, src_ext = self._context_rows(context, row_indices)
        token_ids = self.map_to_decoder_vocab(prev_tokens, self.decoder_vocab_size, UNK_ID)
        embedded = self.decoder_embedding.forward_array(token_ids)
        d_k, c_k, attn, logits, new_states = self._decode_step_array(
            embedded, state.lstm_states, encoder_states, src_pad_mask, coverage=state.coverage
        )
        p_att = np_stable_softmax(logits, axis=-1)  # (B, V)
        p_cop = self.copy_distribution_array(d_k, c_k, encoder_states, src_pad_mask)  # (B, S)
        z = self.switch_array(d_k, c_k, embedded)  # (B,)

        if self.collect_gate_stats:
            accum = self._decode_gate_accum or {"z": 0.0, "entropy": 0.0, "copy": 0.0, "tokens": 0}
            accum["z"] += float(z.sum())
            accum["entropy"] += float(np_bernoulli_entropy(z).sum())
            accum["copy"] += float((z > 0.5).sum())
            accum["tokens"] += int(z.shape[0])
            self._decode_gate_accum = accum

        extended = self._extended_mixture(p_att, p_cop, z, src_ext, context.max_oov)
        new_coverage = state.coverage + attn if state.coverage is not None else None
        return DecodeStep(
            # Eq. 2 probabilities can be exactly 0 (un-copyable extended
            # ids); the smoothed log matches the historical additive guard
            # bit-for-bit so beam scores are unchanged.
            np_smoothed_log(extended, PROBABILITY_FLOOR),
            DecoderStepState(new_states, coverage=new_coverage),
            attention=attn,
            copy_distribution=p_cop,
            switch=z,
            probs=extended,
        )

    def pop_decode_gate_stats(self) -> dict | None:
        """Gate stats accumulated over decode steps since the last pop.

        The decoding engines drain this after each batch so the telemetry
        layer can gauge how often inference actually copies (per frontier
        row per step; no pad masking exists at decode time). ``None`` when
        nothing was collected.
        """
        accum = self._decode_gate_accum
        self._decode_gate_accum = None
        if accum is None:
            return None
        from repro.observability import gate_statistics

        return gate_statistics(accum["z"], accum["entropy"], accum["copy"], accum["tokens"])

    def describe(self) -> str:
        cfg = self.config
        switch = (
            "adaptive: z_k = sigmoid(W_d d_k + W_c c_k + W_s y_{k-1} + b)"
            if self.switch_mode == "adaptive"
            else f"fixed: z = {self.fixed_switch}"
        )
        return (
            "ACNN — Adaptive Copying Neural Network (Lu & Guo 2019)\n"
            f"  encoder: {cfg.num_layers}-layer bidirectional LSTM({cfg.hidden_size} per direction)\n"
            f"  decoder: {cfg.num_layers}-layer LSTM({cfg.hidden_size}), bridged init\n"
            "  attention: global, e_kt = tanh(d_k^T W_h h_t)\n"
            "  generation: P_att = softmax(W_y tanh(W_k [d_k ; c_k]))\n"
            "  copy: P_cop = softmax_t(h_t^T (V [d_k ; c_k] + b_1) + b_2) over source words\n"
            f"  switch ({switch})\n"
            "  output: P(y_k) = z_k P_cop + (1 - z_k) P_att   [Eq. 2]"
            + (
                f"\n  coverage: attention history term + loss (weight {self.coverage_loss_weight})"
                if self.use_coverage
                else ""
            )
        )
