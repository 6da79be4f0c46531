"""Batch-parallel beam engine: equivalence, tape hygiene, and the two
decode-path regression fixes (premature early-stop pruning, beam death when
the candidate window holds no viable continuation)."""

import numpy as np
import pytest

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.batching import Batch
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding import (
    batched_beam_decode,
    batched_beam_search,
    beam_decode_example,
)
from repro.models import ModelConfig, build_model
from repro.models.base import DecoderStepState, EncoderContext, QuestionGenerator
from repro.tensor import Tensor, no_grad
from repro.tensor.profiler import TapeProfile

_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "velkin"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]


def _synthetic_batch(seed: int, num_examples: int = 5):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(num_examples):
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(3, 7)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    return encoder, decoder, batch


# ---------------------------------------------------------------------------
# Equivalence: the engine must reproduce the per-example beam exactly
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
@pytest.mark.parametrize("beam_size", [1, 3, 5])
def test_batched_matches_per_example(family, beam_size):
    encoder, decoder, batch = _synthetic_batch(seed=11)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=2, dropout=0.0, seed=3)
    model = build_model(family, config, len(encoder), len(decoder))

    batched = batched_beam_decode(model, batch, beam_size=beam_size, max_length=10)
    model.eval()
    with no_grad():
        context = model.encode(batch)
        per_example = [
            beam_decode_example(model, context, i, beam_size=beam_size, max_length=10)
            for i in range(context.batch_size)
        ]
    assert len(batched) == batch.size
    for b, p in zip(batched, per_example):
        assert b.token_ids == p.token_ids
        assert b.log_prob == p.log_prob  # byte-identical, not approximate
        assert b.finished == p.finished


def test_batched_matches_per_example_with_coverage():
    """Coverage state rides the frontier through select() like LSTM state."""
    encoder, decoder, batch = _synthetic_batch(seed=23)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=7)
    model = build_model("acnn", config, len(encoder), len(decoder), use_coverage=True)

    batched = batched_beam_decode(model, batch, beam_size=3, max_length=8)
    model.eval()
    with no_grad():
        context = model.encode(batch)
        per_example = [
            beam_decode_example(model, context, i, beam_size=3, max_length=8)
            for i in range(context.batch_size)
        ]
    for b, p in zip(batched, per_example):
        assert b.token_ids == p.token_ids
        assert b.log_prob == p.log_prob


def test_batched_search_pools_ranked():
    encoder, decoder, batch = _synthetic_batch(seed=9)
    config = ModelConfig(embedding_dim=6, hidden_size=8, num_layers=1, dropout=0.0, seed=2)
    model = build_model("acnn", config, len(encoder), len(decoder))
    pools = batched_beam_search(model, batch, beam_size=3, max_length=8)
    assert len(pools) == batch.size
    for pool in pools:
        assert pool
        scores = [h.score(1.0) for h in pool]
        assert scores == sorted(scores, reverse=True)


def test_batched_decode_creates_no_tape_nodes():
    """Decoding is inference-only: the autograd tape must stay empty."""
    encoder, decoder, batch = _synthetic_batch(seed=3)
    config = ModelConfig(embedding_dim=6, hidden_size=8, num_layers=1, dropout=0.0, seed=4)
    model = build_model("acnn", config, len(encoder), len(decoder))
    with TapeProfile() as profile:
        batched_beam_decode(model, batch, beam_size=3, max_length=8)
    assert profile.nodes == 0


def test_batched_rejects_bad_width():
    encoder, decoder, batch = _synthetic_batch(seed=3)
    config = ModelConfig(embedding_dim=6, hidden_size=8, num_layers=1, dropout=0.0, seed=4)
    model = build_model("acnn", config, len(encoder), len(decoder))
    with pytest.raises(ValueError):
        batched_beam_decode(model, batch, beam_size=0)


# ---------------------------------------------------------------------------
# Regression: scripted models exercising the two decode-path bugs
# ---------------------------------------------------------------------------
_A, _B = 4, 5  # content token ids in the scripted 6-token vocabulary


class _ScriptedModel(QuestionGenerator):
    """Decoder whose step distribution depends only on the previous token.

    ``script`` maps prev-token id -> {token id: log-prob}; everything not
    listed is -inf. State is a dummy single row so beam bookkeeping works.
    """

    def __init__(self, script, vocab_size=6):
        super().__init__(decoder_vocab_size=vocab_size)
        self.script = script

    def encode(self, batch: Batch) -> EncoderContext:
        size = batch.size
        return EncoderContext(
            encoder_states=Tensor(np.zeros((size, 1, 1))),
            src_pad_mask=np.zeros((size, 1), dtype=bool),
            src_ext=np.zeros((size, 1), dtype=np.int64),
            max_oov=0,
            initial_states=[(Tensor(np.zeros((size, 1))), Tensor(np.zeros((size, 1))))],
        )

    def step_log_probs(self, prev_tokens, state, context, row_indices=None):
        rows = []
        for prev in np.asarray(prev_tokens):
            row = np.full(self.decoder_vocab_size, -np.inf)
            for token, lp in self.script.get(int(prev), {}).items():
                row[token] = lp
            rows.append(row)
        return np.stack(rows), state


def _one_example_batch():
    word = ("w",)
    example = QGExample(sentence=word, paragraph=word, question=word)
    encoder = Vocabulary.build([word])
    decoder = Vocabulary(["w", "x"])
    dataset = QGDataset([example], encoder, decoder)
    return collate(list(dataset), pad_id=0)


def test_early_stop_uses_optimistic_bound():
    """Length normalization can raise a live score; the old current-score
    stop rule pruned the eventual winner.

    From BOS: EOS at -1.0 (finished '()' scores -1.0), token A at -1.2
    (current normalized score -1.2, so the old rule stops). Continuing costs
    ~nothing: A -> B -> EOS ends at log-prob ~-1.2 over 2 tokens = -0.6,
    which beats the finished -1.0.
    """
    model = _ScriptedModel(
        {
            BOS_ID: {EOS_ID: -1.0, _A: -1.2},
            _A: {_B: -1e-4},
            _B: {EOS_ID: -1e-4},
        }
    )
    batch = _one_example_batch()
    with no_grad():
        context = model.encode(batch)
        best = beam_decode_example(
            model, context, 0, beam_size=1, max_length=10, length_penalty=1.0
        )
    assert best.token_ids == (_A, _B)
    assert best.finished
    assert best.score(1.0) == pytest.approx(-0.6001, abs=1e-3)
    # The batched engine applies the same rule.
    batched = batched_beam_decode(model, batch, beam_size=1, max_length=10)
    assert batched[0].token_ids == (_A, _B)


def test_beam_survives_window_of_finishes_and_junk():
    """If every entry in the top-2*beam window finishes or is non-viable,
    the beam must widen its scan and keep expanding, not die.

    From BOS the window fills with junk (+inf corrupt slots, skipped as
    non-viable) and nothing else, so the old fixed-width scan returned an
    empty, unfinished hypothesis even though viable continuations ranked
    just below the window.
    """
    script = {
        BOS_ID: {EOS_ID: -2.0, _A: -1.0, 6: np.inf, 7: np.inf, 8: np.inf, 9: np.inf},
        _A: {_B: -1e-4},
        _B: {EOS_ID: -1e-4},
    }
    model = _ScriptedModel(script, vocab_size=10)
    batch = _one_example_batch()
    with no_grad():
        context = model.encode(batch)
        best = beam_decode_example(
            model, context, 0, beam_size=1, max_length=10, length_penalty=1.0
        )
    assert best.finished
    assert best.token_ids == (_A, _B)
    batched = batched_beam_decode(model, batch, beam_size=1, max_length=10)
    assert batched[0].token_ids == (_A, _B)
    assert batched[0].finished


def test_unreachable_oov_slots_never_selected():
    """Non-copy models stamp OOV columns with a log floor; the beam must
    treat those as unreachable rather than as astronomically bad candidates
    occupying live slots."""
    rng = np.random.default_rng(0)
    sentence = tuple(rng.choice(_WORDS, size=5))
    examples = [QGExample(sentence=sentence, paragraph=sentence, question=("where", "?"))]
    encoder = Vocabulary.build([sentence])
    decoder = Vocabulary(["where", "?"])  # tiny: junk slots crowd wide beams
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    config = ModelConfig(embedding_dim=6, hidden_size=8, num_layers=1, dropout=0.0, seed=0)
    model = build_model("du-attention", config, len(encoder), len(decoder))
    for hyp in batched_beam_search(model, batch, beam_size=4, max_length=6)[0]:
        assert all(t < len(decoder) for t in hyp.token_ids)
        assert hyp.log_prob > -1e17


def test_nan_logits_raise_typed_error():
    """NaN log-probs are a typed NonFiniteLogits, not a silent empty beam.

    Before the serving work, NaN rows were swallowed by the viability
    filter and surfaced as empty hypotheses; now both engines raise a
    retryable error naming the step.
    """
    from repro.decoding import greedy_decode
    from repro.models.base import NonFiniteLogits

    class _NaNModel(_ScriptedModel):
        def step_log_probs(self, prev_tokens, state, context, row_indices=None):
            log_probs, state = super().step_log_probs(
                prev_tokens, state, context, row_indices
            )
            log_probs[:, :] = np.nan
            return log_probs, state

    model = _NaNModel({BOS_ID: {EOS_ID: -1.0}})
    batch = _one_example_batch()
    with pytest.raises(NonFiniteLogits) as excinfo:
        batched_beam_decode(model, batch, beam_size=2, max_length=5)
    assert excinfo.value.step == 0
    assert excinfo.value.rows >= 1
    with pytest.raises(NonFiniteLogits):
        greedy_decode(model, batch, max_length=5)
