"""The Seq2Seq comparison baseline (Sutskever et al., 2014).

A plain encoder-decoder: stacked unidirectional LSTM encoder, decoder
initialized from the encoder's final states, and a vocabulary softmax over
the decoder hidden state. No attention and no copy path — the weakest system
in Table 1, included exactly as the paper includes it.
"""

from __future__ import annotations

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import PAD_ID, UNK_ID
from repro.models.base import DecoderStepState, DecodeStep, EncoderContext, QuestionGenerator
from repro.models.config import ModelConfig
from repro.nn import LSTM, Dropout, Embedding, Linear, cross_entropy
from repro.nn.numerics import np_log_softmax
from repro.tensor.core import Tensor

__all__ = ["Seq2SeqBaseline"]


class Seq2SeqBaseline(QuestionGenerator):
    """Vanilla sequence-to-sequence model.

    Parameters
    ----------
    config:
        Shared hyperparameters.
    encoder_vocab_size, decoder_vocab_size:
        Sizes of the two (asymmetric) vocabularies.
    """

    name = "seq2seq"

    def __init__(
        self,
        config: ModelConfig,
        encoder_vocab_size: int,
        decoder_vocab_size: int,
    ) -> None:
        super().__init__(decoder_vocab_size)
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.encoder_embedding = Embedding(
            encoder_vocab_size, config.embedding_dim, rng, padding_idx=PAD_ID
        )
        self.decoder_embedding = Embedding(
            decoder_vocab_size, config.embedding_dim, rng, padding_idx=PAD_ID
        )
        self.encoder = LSTM(
            config.embedding_dim,
            config.hidden_size,
            config.num_layers,
            rng,
            dropout=config.dropout,
            dropout_seed=config.seed + 1,
        )
        self.decoder = LSTM(
            config.embedding_dim,
            config.hidden_size,
            config.num_layers,
            rng,
            dropout=config.dropout,
            dropout_seed=config.seed + 2,
        )
        self.output_projection = Linear(config.hidden_size, decoder_vocab_size, rng)
        self.output_dropout = Dropout(config.dropout, seed=config.seed + 3)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, batch: Batch) -> EncoderContext:
        embedded = self.encoder_embedding(batch.src)
        outputs, final_states = self.encoder(embedded, pad_mask=batch.src_pad_mask)
        return EncoderContext(
            encoder_states=outputs,  # unused by this model but kept uniform
            src_pad_mask=batch.src_pad_mask,
            src_ext=batch.src_ext,
            max_oov=max((len(t) for t in batch.oov_tokens), default=0),
            initial_states=final_states,
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def loss(self, batch: Batch) -> Tensor:
        context = self.encode(batch)
        states = list(context.initial_states)
        embedded = self.decoder_embedding(batch.tgt_input)
        time_steps = batch.tgt_input.shape[1]

        step_logits = []
        for t in range(time_steps):
            hidden, states = self.decoder.step(embedded[:, t, :], states)
            step_logits.append(self.output_projection(self.output_dropout(hidden)))

        valid = ~batch.tgt_pad_mask
        losses = []
        for t, logits in enumerate(step_logits):
            losses.append(
                cross_entropy(logits, batch.tgt_output[:, t], mask=valid[:, t])
                * float(valid[:, t].sum())
            )
        total = losses[0]
        for term in losses[1:]:
            total = total + term
        return total * (1.0 / float(valid.sum()))

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
        token_ids = self.map_to_decoder_vocab(prev_tokens, self.decoder_vocab_size, UNK_ID)
        embedded = self.decoder_embedding.forward_array(token_ids)
        hidden, new_states = self.decoder.step_array(embedded, state.lstm_states)
        log_probs = np_log_softmax(self.output_projection.forward_array(hidden), axis=-1)
        return DecodeStep(self.floor_oov_slots(log_probs, context), DecoderStepState(new_states))

    def describe(self) -> str:
        cfg = self.config
        return (
            "Seq2Seq (Sutskever et al. 2014)\n"
            f"  encoder: {cfg.num_layers}-layer unidirectional LSTM({cfg.hidden_size})\n"
            f"  decoder: {cfg.num_layers}-layer LSTM({cfg.hidden_size}) "
            "initialized from encoder final states\n"
            "  output: softmax(W d_k) over the decoder vocabulary\n"
            "  attention: none | copy mechanism: none"
        )
