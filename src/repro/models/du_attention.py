"""The Du et al. (2017) attention baseline ("Du-sent" / "Du-para").

Architecture, following the paper's Section 3 (which ACNN extends):

- bidirectional LSTM encoder over the sentence or truncated paragraph;
- decoder LSTM whose initial state is a learned bridge from the encoder's
  final forward/backward states;
- global attention (:class:`~repro.nn.attention.GlobalAttention`) producing
  a context vector ``c_k`` per decoding step;
- generation distribution ``P_att(y_k) = softmax(W_y tanh(W_k [d_k ; c_k]))``
  over the decoder vocabulary (Eq. 2's attention component).

No copy mechanism: out-of-vocabulary question words cannot be produced,
which is precisely the deficit the ACNN addresses.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import PAD_ID, UNK_ID
from repro.models.base import DecoderStepState, DecodeStep, EncoderContext, QuestionGenerator
from repro.models.config import ModelConfig
from repro.nn import BidirectionalLSTM, Dropout, Embedding, GlobalAttention, Linear, LSTM
from repro.nn.lstm import State
from repro.nn.numerics import np_log_softmax
from repro.tensor.core import Tensor
from repro.tensor.ops import concat, gather_rows, log_softmax, tanh

__all__ = ["DuAttentionModel"]


class DuAttentionModel(QuestionGenerator):
    """Bi-LSTM encoder + global-attention decoder (no copying)."""

    name = "du-attention"

    def __init__(
        self,
        config: ModelConfig,
        encoder_vocab_size: int,
        decoder_vocab_size: int,
        use_answer_features: bool = False,
        answer_feature_dim: int = 8,
    ) -> None:
        super().__init__(decoder_vocab_size)
        self.config = config
        rng = np.random.default_rng(config.seed)
        hidden = config.hidden_size
        self.encoder_output_size = 2 * hidden
        self.use_answer_features = use_answer_features

        self.encoder_embedding = Embedding(
            encoder_vocab_size, config.embedding_dim, rng, padding_idx=PAD_ID
        )
        self.decoder_embedding = Embedding(
            decoder_vocab_size, config.embedding_dim, rng, padding_idx=PAD_ID
        )
        encoder_input_size = config.embedding_dim
        if use_answer_features:
            # Zhou et al. (2017) answer-position features: a learned tag
            # embedding (outside/inside the answer span) concatenated onto
            # each encoder input token.
            if answer_feature_dim < 1:
                raise ValueError(f"answer_feature_dim must be >= 1, got {answer_feature_dim}")
            self.answer_embedding = Embedding(2, answer_feature_dim, rng)
            encoder_input_size += answer_feature_dim
        else:
            self.answer_embedding = None
        self.encoder = BidirectionalLSTM(
            encoder_input_size,
            hidden,
            config.num_layers,
            rng,
            dropout=config.dropout,
            dropout_seed=config.seed + 1,
        )
        self.decoder = LSTM(
            config.embedding_dim,
            hidden,
            config.num_layers,
            rng,
            dropout=config.dropout,
            dropout_seed=config.seed + 3,
        )
        self.attention = GlobalAttention(hidden, self.encoder_output_size, rng)
        # Bridges from [h_fwd ; h_bwd] to the decoder's start state, one pair
        # of projections per layer.
        self.bridge_h = [Linear(self.encoder_output_size, hidden, rng) for _ in range(config.num_layers)]
        self.bridge_c = [Linear(self.encoder_output_size, hidden, rng) for _ in range(config.num_layers)]
        for layer, (bh, bc) in enumerate(zip(self.bridge_h, self.bridge_c)):
            setattr(self, f"bridge_h_{layer}", bh)
            setattr(self, f"bridge_c_{layer}", bc)
        # Readout: P_att = softmax(W_y tanh(W_k [d_k ; c_k])).
        self.readout = Linear(hidden + self.encoder_output_size, hidden, rng)
        self.output_projection = Linear(hidden, decoder_vocab_size, rng)
        self.output_dropout = Dropout(config.dropout, seed=config.seed + 4)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, batch: Batch) -> EncoderContext:
        embedded = self.encoder_embedding(batch.src)
        if self.answer_embedding is not None:
            tags = batch.answer_mask.astype(np.int64)
            embedded = concat([embedded, self.answer_embedding(tags)], axis=2)
        outputs, fwd_states, bwd_states = self.encoder(embedded, pad_mask=batch.src_pad_mask)
        initial: list[State] = []
        for layer in range(self.config.num_layers):
            h = concat([fwd_states[layer][0], bwd_states[layer][0]], axis=1)
            c = concat([fwd_states[layer][1], bwd_states[layer][1]], axis=1)
            initial.append((tanh(self.bridge_h[layer](h)), tanh(self.bridge_c[layer](c))))
        return EncoderContext(
            encoder_states=outputs,
            src_pad_mask=batch.src_pad_mask,
            src_ext=batch.src_ext,
            max_oov=max((len(t) for t in batch.oov_tokens), default=0),
            initial_states=initial,
        )

    # ------------------------------------------------------------------
    # Shared decode step (also used by the ACNN subclass)
    # ------------------------------------------------------------------
    def _decode_step(
        self,
        x_embedded: Tensor,
        states: list[State],
        encoder_states: Tensor,
        src_pad_mask: np.ndarray,
        coverage: Tensor | None = None,
    ) -> tuple[Tensor, Tensor, Tensor, Tensor, list[State]]:
        """One step of the attentional decoder.

        Returns ``(d_k, c_k, attention_weights, vocab_logits, new_states)``.
        """
        d_k, new_states = self.decoder.step(x_embedded, states)
        c_k, attn_weights = self.attention(
            d_k, encoder_states, pad_mask=src_pad_mask, coverage=coverage
        )
        readout = tanh(self.readout(concat([d_k, c_k], axis=1)))
        logits = self.output_projection(self.output_dropout(readout))
        return d_k, c_k, attn_weights, logits, new_states

    def _decode_step_array(
        self,
        x_embedded: np.ndarray,
        states: list[State],
        encoder_states: np.ndarray,
        src_pad_mask: np.ndarray,
        coverage: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[State]]:
        """:meth:`_decode_step` in inference mode, on arrays (no dropout, no
        tape), with the same return value."""
        d_k, new_states = self.decoder.step_array(x_embedded, states)
        c_k, attn_weights = self.attention.forward_array(
            d_k, encoder_states, pad_mask=src_pad_mask, coverage=coverage
        )
        readout = np.tanh(self.readout.forward_array(np.concatenate([d_k, c_k], axis=1)))
        logits = self.output_projection.forward_array(readout)
        return d_k, c_k, attn_weights, logits, new_states

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        context = self.encode(batch)
        states = list(context.initial_states)
        embedded = self.decoder_embedding(batch.tgt_input)
        time_steps = batch.tgt_input.shape[1]
        valid = ~batch.tgt_pad_mask

        total = None
        for t in range(time_steps):
            _, _, _, logits, states = self._decode_step(
                embedded[:, t, :], states, context.encoder_states, context.src_pad_mask
            )
            log_probs = log_softmax(logits, axis=-1)
            picked = gather_rows(log_probs, batch.tgt_output[:, t])
            weighted = (picked * Tensor(valid[:, t].astype(float))).sum()
            total = weighted if total is None else total + weighted
        return -total * (1.0 / float(valid.sum()))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode_step(
        self,
        prev_tokens: np.ndarray,
        state: DecoderStepState,
        context: EncoderContext,
        row_indices: np.ndarray | None = None,
    ) -> DecodeStep:
        self._require_inference()
        encoder_states, src_pad_mask, _ = self._context_rows(context, row_indices)
        token_ids = self.map_to_decoder_vocab(prev_tokens, self.decoder_vocab_size, UNK_ID)
        embedded = self.decoder_embedding.forward_array(token_ids)
        _, _, attn, logits, new_states = self._decode_step_array(
            embedded, state.lstm_states, encoder_states, src_pad_mask
        )
        return DecodeStep(
            self.floor_oov_slots(np_log_softmax(logits, axis=-1), context),
            DecoderStepState(new_states),
            attention=attn,
        )

    def describe(self) -> str:
        cfg = self.config
        return (
            "Du et al. (2017) attention model\n"
            f"  encoder: {cfg.num_layers}-layer bidirectional LSTM({cfg.hidden_size} per direction)\n"
            f"  decoder: {cfg.num_layers}-layer LSTM({cfg.hidden_size}), bridged init\n"
            "  attention: global, e_kt = tanh(d_k^T W_h h_t)\n"
            "  output: P_att = softmax(W_y tanh(W_k [d_k ; c_k]))\n"
            "  copy mechanism: none"
        )
