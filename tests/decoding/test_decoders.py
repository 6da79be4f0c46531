"""Tests for greedy and beam decoding against real (small) models."""

import numpy as np
import pytest

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding import batched_beam_decode, beam_decode_example, greedy_decode
from repro.models import ModelConfig, build_model
from repro.optim import SGD, clip_grad_norm
from repro.tensor import no_grad


@pytest.fixture(scope="module")
def setup():
    sentences = [
        "zorvex was born in karlin .",
        "the velkin tower was designed by mirosta .",
        "draxby is the capital of ostavia .",
    ]
    questions = [
        "where was zorvex born ?",
        "who designed the velkin tower ?",
        "what is the capital of ostavia ?",
    ]
    examples = [
        QGExample(sentence=tuple(s.split()), paragraph=tuple(s.split()), question=tuple(q.split()))
        for s, q in zip(sentences, questions)
    ]
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(
        ["where", "was", "born", "?", "who", "designed", "the", "what", "is", "capital", "of", "tower"]
    )
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    config = ModelConfig(embedding_dim=16, hidden_size=20, num_layers=1, dropout=0.0, seed=5)
    model = build_model("acnn", config, len(encoder), len(decoder))
    optimizer = SGD(model.parameters(), lr=0.8)
    for _ in range(150):
        model.train()
        loss = model.loss(batch)
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        model.zero_grad()
    return model, batch, decoder


def test_greedy_returns_one_hypothesis_per_example(setup):
    model, batch, _ = setup
    hyps = greedy_decode(model, batch, max_length=12)
    assert len(hyps) == batch.size


def test_greedy_never_emits_pad_or_bos(setup):
    model, batch, _ = setup
    for hyp in greedy_decode(model, batch, max_length=12):
        assert PAD_ID not in hyp.token_ids
        assert BOS_ID not in hyp.token_ids
        assert EOS_ID not in hyp.token_ids  # EOS terminates, never appears


def test_greedy_respects_max_length(setup):
    model, batch, _ = setup
    for hyp in greedy_decode(model, batch, max_length=4):
        assert len(hyp.token_ids) <= 4


def test_greedy_overfit_model_reproduces_gold(setup):
    """An overfit model should greedily regenerate its training questions."""
    model, batch, decoder = setup
    from repro.decoding import extended_ids_to_tokens

    matches = 0
    for hyp, encoded in zip(greedy_decode(model, batch, max_length=12), batch.examples):
        tokens = extended_ids_to_tokens(hyp.token_ids, decoder, encoded.oov_tokens)
        if tuple(tokens) == encoded.example.question:
            matches += 1
    assert matches >= 2, f"only {matches}/3 training questions reproduced"


def test_beam_size_one_matches_greedy_tokens(setup):
    model, batch, _ = setup
    greedy = greedy_decode(model, batch, max_length=12)
    beam = batched_beam_decode(model, batch, beam_size=1, max_length=12, length_penalty=0.0)
    for g, b in zip(greedy, beam):
        if g.finished and b.finished:
            assert g.token_ids == b.token_ids


def test_beam_returns_finished_hypotheses_on_easy_fit(setup):
    model, batch, _ = setup
    for hyp in batched_beam_decode(model, batch, beam_size=3, max_length=15):
        assert hyp.finished


def test_beam_score_at_least_greedy(setup):
    """Beam-3's selected average log-prob must be >= greedy's."""
    model, batch, _ = setup
    greedy = greedy_decode(model, batch, max_length=12)
    beam = batched_beam_decode(model, batch, beam_size=3, max_length=12)
    for g, b in zip(greedy, beam):
        if g.finished and b.finished:
            assert b.score(1.0) >= g.score(1.0) - 1e-9


def test_beam_rejects_bad_width(setup):
    model, batch, _ = setup
    with no_grad():
        context = model.encode(batch)
    with pytest.raises(ValueError):
        beam_decode_example(model, context, 0, beam_size=0)


def test_beam_deterministic(setup):
    model, batch, _ = setup
    a = batched_beam_decode(model, batch, beam_size=3, max_length=12)
    b = batched_beam_decode(model, batch, beam_size=3, max_length=12)
    assert [h.token_ids for h in a] == [h.token_ids for h in b]


def test_decoding_works_for_all_families(setup):
    _, batch, decoder = setup
    for family in ("seq2seq", "du-attention"):
        config = ModelConfig(embedding_dim=8, hidden_size=8, num_layers=1, dropout=0.0, seed=1)
        model = build_model(family, config, 50, len(decoder))
        # Encoder vocab size must cover batch ids; rebuild with actual size.
        model = build_model(family, config, int(batch.src.max()) + 1, len(decoder))
        hyps = batched_beam_decode(model, batch, beam_size=2, max_length=6)
        assert len(hyps) == batch.size
