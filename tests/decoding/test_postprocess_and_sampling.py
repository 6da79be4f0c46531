"""Tests for UNK replacement and sampling decoders."""

import numpy as np
import pytest

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import UNK
from repro.decoding import (
    greedy_decode,
    greedy_decode_with_attention,
    replace_unknowns,
    sample_decode,
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
    # A few training steps break the near-ties of a random init, making
    # low-temperature sampling deterministic enough to compare with greedy.
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


def test_sample_decode_returns_per_example(du_setup):
    model, batch, _ = du_setup
    hyps = sample_decode(model, batch, np.random.default_rng(0), max_length=6)
    assert len(hyps) == batch.size
    for hyp in hyps:
        assert len(hyp.token_ids) <= 6


def test_sample_decode_seeded_reproducible(du_setup):
    model, batch, _ = du_setup
    a = sample_decode(model, batch, np.random.default_rng(7), max_length=6)
    b = sample_decode(model, batch, np.random.default_rng(7), max_length=6)
    assert [h.token_ids for h in a] == [h.token_ids for h in b]


def test_sample_decode_temperature_zero_like_behaviour(du_setup):
    """Very low temperature should reproduce greedy choices."""
    model, batch, _ = du_setup
    greedy = greedy_decode(model, batch, max_length=6)
    cold = sample_decode(
        model, batch, np.random.default_rng(0), temperature=1e-4, max_length=6
    )
    assert [h.token_ids for h in greedy] == [h.token_ids for h in cold]


def test_sample_decode_diversity_at_high_temperature(du_setup):
    model, batch, _ = du_setup
    rng = np.random.default_rng(0)
    outputs = {
        tuple(h.token_ids)
        for _ in range(5)
        for h in sample_decode(model, batch, rng, temperature=3.0, max_length=6)
    }
    assert len(outputs) > 2


def test_sample_decode_top_k_limits_support(du_setup):
    model, batch, _ = du_setup
    hyps = sample_decode(model, batch, np.random.default_rng(1), top_k=1, max_length=6)
    greedy = greedy_decode(model, batch, max_length=6)
    assert [h.token_ids for h in hyps] == [h.token_ids for h in greedy]


def test_sample_decode_validation(du_setup):
    model, batch, _ = du_setup
    with pytest.raises(ValueError):
        sample_decode(model, batch, np.random.default_rng(0), temperature=0.0)
    with pytest.raises(ValueError):
        sample_decode(model, batch, np.random.default_rng(0), top_k=0)


def test_greedy_with_attention_nan_step_raises_typed_error(du_setup, monkeypatch):
    """A NaN decode step raises NonFiniteLogits instead of returning a
    hypothesis with ``log_prob=nan``."""
    model, batch, _ = du_setup
    original = model._decode_step

    def nan_step(*args, **kwargs):
        d_k, c_k, attn, logits, states = original(*args, **kwargs)
        logits.data[0, :] = np.nan
        return d_k, c_k, attn, logits, states

    monkeypatch.setattr(model, "_decode_step", nan_step)
    with pytest.raises(NonFiniteLogits) as excinfo:
        greedy_decode_with_attention(model, batch, max_length=6)
    assert excinfo.value.step == 0
    assert excinfo.value.rows == 1


def test_sample_decode_nan_step_raises_typed_error(du_setup, monkeypatch):
    """A NaN decode step is the typed NonFiniteLogits, as in greedy decoding,
    not the bare ValueError ``rng.choice`` raises on NaN probabilities."""
    model, batch, _ = du_setup
    original = model.step_log_probs

    def nan_step(prev_tokens, state, context, row_indices=None):
        log_probs, state = original(prev_tokens, state, context, row_indices)
        log_probs[0, :] = np.nan
        return log_probs, state

    monkeypatch.setattr(model, "step_log_probs", nan_step)
    with pytest.raises(NonFiniteLogits) as excinfo:
        sample_decode(model, batch, np.random.default_rng(0), max_length=6)
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
