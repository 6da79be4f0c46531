"""Tests for n-best beam decoding."""

import numpy as np
import pytest

from repro.data import BatchIterator, QGDataset, QGExample, Vocabulary, collate
from repro.decoding import batched_beam_decode, beam_decode_nbest
from repro.models import ModelConfig, build_model
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def trained():
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
    config = ModelConfig(embedding_dim=12, hidden_size=16, num_layers=1, dropout=0.0, seed=3)
    model = build_model("acnn", config, len(encoder), len(decoder))
    Trainer(
        model,
        BatchIterator(dataset, batch_size=2, seed=0),
        None,
        TrainerConfig(epochs=60, learning_rate=0.8, halve_at_epoch=50),
    ).train()
    return model, batch


def test_nbest_returns_lists_per_example(trained):
    model, batch = trained
    lists = beam_decode_nbest(model, batch, n_best=3, beam_size=4, max_length=10)
    assert len(lists) == batch.size
    for candidates in lists:
        assert 1 <= len(candidates) <= 3


def test_nbest_sorted_by_score(trained):
    model, batch = trained
    for candidates in beam_decode_nbest(model, batch, n_best=3, beam_size=4, max_length=10):
        scores = [h.score(1.0) for h in candidates]
        assert scores == sorted(scores, reverse=True)


def test_nbest_has_no_duplicate_surfaces(trained):
    model, batch = trained
    for candidates in beam_decode_nbest(model, batch, n_best=4, beam_size=5, max_length=10):
        surfaces = [h.token_ids for h in candidates]
        assert len(surfaces) == len(set(surfaces))


def test_nbest_top1_matches_beam_search(trained):
    model, batch = trained
    best = batched_beam_decode(model, batch, beam_size=3, max_length=10)
    nbest = beam_decode_nbest(model, batch, n_best=1, beam_size=3, max_length=10)
    for single, candidates in zip(best, nbest):
        if single.finished and candidates[0].finished:
            assert single.token_ids == candidates[0].token_ids


def test_nbest_validation(trained):
    model, batch = trained
    with pytest.raises(ValueError):
        beam_decode_nbest(model, batch, n_best=0)


def test_nbest_deterministic(trained):
    model, batch = trained
    a = beam_decode_nbest(model, batch, n_best=3, beam_size=4, max_length=10)
    b = beam_decode_nbest(model, batch, n_best=3, beam_size=4, max_length=10)
    assert [[h.token_ids for h in lst] for lst in a] == [[h.token_ids for h in lst] for lst in b]
