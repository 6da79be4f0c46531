"""Tests for UNK replacement and its attention-recording greedy decoder."""

import numpy as np
import pytest

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import UNK
from repro.decoding import (
    greedy_decode,
    greedy_decode_with_attention,
    replace_unknowns,
)
from repro.models import ModelConfig, build_model
from repro.models.base import NonFiniteLogits


@pytest.fixture(scope="module")
def du_setup():
    examples = [
        QGExample(
            sentence=tuple("zorvex was born in karlin .".split()),
            paragraph=tuple("zorvex was born in karlin .".split()),
            question=tuple("where was zorvex born ?".split()),
        ),
        QGExample(
            sentence=tuple("draxby is the capital of ostavia .".split()),
            paragraph=tuple("draxby is the capital of ostavia .".split()),
            question=tuple("what is the capital of ostavia ?".split()),
        ),
    ]
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(["where", "was", "born", "?", "what", "is", "the", "capital", "of"])
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=0)
    model = build_model("du-attention", config, len(encoder), len(decoder))
    # A few training steps break the near-ties of a random init.
    from repro.optim import SGD

    optimizer = SGD(model.parameters(), lr=0.5)
    for _ in range(30):
        loss = model.loss(batch)
        loss.backward()
        optimizer.step()
        model.zero_grad()
    return model, batch, decoder


def test_greedy_with_attention_shapes(du_setup):
    model, batch, _ = du_setup
    hypotheses, attentions = greedy_decode_with_attention(model, batch, max_length=6)
    assert len(hypotheses) == batch.size
    for hyp, attns in zip(hypotheses, attentions):
        assert len(hyp.token_ids) == len(attns)
        for vector in attns:
            assert vector.shape == (batch.src.shape[1],)
            assert np.isclose(vector.sum(), 1.0)


def test_greedy_with_attention_matches_plain_greedy(du_setup):
    model, batch, _ = du_setup
    plain = greedy_decode(model, batch, max_length=6)
    with_attn, _ = greedy_decode_with_attention(model, batch, max_length=6)
    assert [h.token_ids for h in plain] == [h.token_ids for h in with_attn]


def test_replace_unknowns_substitutes_best_attended():
    source = ("zorvex", "was", "born")
    attention = [np.array([0.8, 0.1, 0.1]), np.array([0.1, 0.8, 0.1])]
    tokens = [UNK, "was"]
    assert replace_unknowns(tokens, attention, source) == ["zorvex", "was"]


def test_replace_unknowns_ignores_known_tokens():
    source = ("a", "b")
    attention = [np.array([0.0, 1.0])]
    assert replace_unknowns(["hello"], attention, source) == ["hello"]


def test_replace_unknowns_length_mismatch_raises():
    with pytest.raises(ValueError):
        replace_unknowns([UNK], [], ("a",))


def test_replace_unknowns_attention_truncated_to_source():
    source = ("only",)
    attention = [np.array([0.2, 0.8, 0.9])]  # padding columns beyond source
    assert replace_unknowns([UNK], attention, source) == ["only"]


def test_greedy_with_attention_nan_step_raises_typed_error(du_setup, monkeypatch):
    """A NaN decode step raises NonFiniteLogits instead of returning a
    hypothesis with ``log_prob=nan``."""
    model, batch, _ = du_setup
    original = model.decode_step

    def nan_step(*args, **kwargs):
        record = original(*args, **kwargs)
        record.log_probs[0, :] = np.nan
        return record

    monkeypatch.setattr(model, "decode_step", nan_step)
    with pytest.raises(NonFiniteLogits) as excinfo:
        greedy_decode_with_attention(model, batch, max_length=6)
    assert excinfo.value.step == 0
    assert excinfo.value.rows == 1


def _untrained(family, du_setup, seed, **kwargs):
    """A fresh ``family`` model over the ``du_setup`` vocabularies."""
    du_model, batch, decoder = du_setup
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=seed)
    encoder_size = du_model.encoder_embedding.weight.shape[0]
    model = build_model(family, config, encoder_size, len(decoder), **kwargs)
    if kwargs.get("use_coverage"):
        model.attention.coverage_weight.data[:] = 5.0
    return model, batch


@pytest.mark.parametrize("use_coverage", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_acnn_greedy_with_attention_decodes_like_greedy(du_setup, use_coverage, seed):
    """On an ACNN the tokens come from the Eq. 2 mixture (with coverage),
    exactly as ``greedy_decode`` picks them, not from the attention
    softmax alone."""
    model, batch = _untrained("acnn", du_setup, seed, use_coverage=use_coverage)
    plain = greedy_decode(model, batch, max_length=6)
    with_attn, attentions = greedy_decode_with_attention(model, batch, max_length=6)
    assert [h.token_ids for h in with_attn] == [h.token_ids for h in plain]
    assert [np.float64(h.log_prob).tobytes() for h in with_attn] == [
        np.float64(h.log_prob).tobytes() for h in plain
    ]
    assert [len(rows) for rows in attentions] == [len(h.token_ids) for h in plain]


@pytest.mark.parametrize("seed", range(3))
def test_acnn_greedy_with_attention_reports_the_coverage_step_log_probs_adds(du_setup, seed):
    """Each recorded attention row is exactly the increment
    ``step_log_probs`` adds to its coverage when fed the decoded tokens."""
    from repro.data.vocabulary import BOS_ID, EOS_ID
    from repro.tensor import no_grad

    model, batch = _untrained("acnn", du_setup, seed, use_coverage=True)
    hypotheses, attentions = greedy_decode_with_attention(model, batch, max_length=6)
    assert any(len(rows) >= 2 for rows in attentions)

    def fed(row, step):
        tokens = hypotheses[row].token_ids
        if step == 0:
            return BOS_ID
        return tokens[step - 1] if step - 1 < len(tokens) else EOS_ID

    with no_grad():
        context = model.encode(batch)
        state = model.initial_decoder_state(context)
        coverage = state.coverage.copy()
        for step in range(max(len(rows) for rows in attentions)):
            prev = np.array([fed(row, step) for row in range(batch.size)], dtype=np.int64)
            _, state = model.step_log_probs(prev, state, context)
            for row, rows in enumerate(attentions):
                if step < len(rows):
                    coverage[row] = coverage[row] + rows[step]
                    assert np.array_equal(state.coverage[row], coverage[row])  # bytes


def test_greedy_with_attention_rejects_a_model_without_attention(du_setup, monkeypatch):
    """Seq2Seq has no attention to record: a ``TypeError`` before any
    decoding, not an ``AttributeError`` halfway through."""
    model, batch = _untrained("seq2seq", du_setup, 0)

    def no_encode(batch):
        raise AssertionError("encoded a batch it cannot decode")

    monkeypatch.setattr(model, "encode", no_encode)
    with pytest.raises(TypeError):
        greedy_decode_with_attention(model, batch, max_length=6)
