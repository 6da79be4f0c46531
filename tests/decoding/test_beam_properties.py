"""Beam-search properties on randomly initialized (untrained) models.

These hold regardless of training state, so they run on cheap random
models: wider beams never select worse normalized scores, hypotheses never
contain control tokens, and the search is deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import BOS_ID, EOS_ID, PAD_ID
from repro.decoding import batched_beam_decode
from repro.models import ModelConfig, build_model

_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]


def _problem(seed):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(2):
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(3, 6)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    config = ModelConfig(
        embedding_dim=int(rng.integers(3, 8)),
        hidden_size=int(rng.integers(3, 8)),
        num_layers=1,
        dropout=0.0,
        seed=seed,
    )
    model = build_model("acnn", config, len(encoder), len(decoder))
    return model, batch


@given(st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_wider_beam_never_scores_worse(seed):
    model, batch = _problem(seed)
    narrow = batched_beam_decode(model, batch, beam_size=1, max_length=8)
    wide = batched_beam_decode(model, batch, beam_size=4, max_length=8)
    for n, w in zip(narrow, wide):
        if n.finished and w.finished:
            assert w.score(1.0) >= n.score(1.0) - 1e-9


@given(st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_no_control_tokens_in_output(seed):
    model, batch = _problem(seed)
    for hyp in batched_beam_decode(model, batch, beam_size=3, max_length=8):
        assert PAD_ID not in hyp.token_ids
        assert BOS_ID not in hyp.token_ids
        assert EOS_ID not in hyp.token_ids


@given(st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_beam_log_probs_are_nonpositive(seed):
    model, batch = _problem(seed)
    for hyp in batched_beam_decode(model, batch, beam_size=2, max_length=8):
        assert hyp.log_prob <= 1e-9


@given(st.integers(0, 50))
@settings(max_examples=10, deadline=None)
def test_beam_respects_max_length(seed):
    model, batch = _problem(seed)
    for hyp in batched_beam_decode(model, batch, beam_size=2, max_length=5):
        assert len(hyp.token_ids) <= 5
