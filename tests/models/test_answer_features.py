"""Tests for the answer-position feature extension (Zhou et al. 2017)."""

import numpy as np
import pytest

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.dataset import _find_span
from repro.models import build_model
from repro.optim import SGD


def test_find_span_basic():
    assert _find_span(("a", "b", "c", "d"), ("b", "c")) == (1, 2)


def test_find_span_absent():
    assert _find_span(("a", "b"), ("x",)) == ()


def test_find_span_empty_needle():
    assert _find_span(("a",), ()) == ()


def test_find_span_needle_longer_than_haystack():
    assert _find_span(("a",), ("a", "b")) == ()


def test_find_span_first_occurrence():
    assert _find_span(("x", "a", "x", "a"), ("a",)) == (1,)


def _answer_example():
    return QGExample(
        sentence=tuple("zorvex was born in karlin .".split()),
        paragraph=tuple("zorvex was born in karlin .".split()),
        question=tuple("where was zorvex born ?".split()),
        answer=("karlin",),
    )


def _dataset():
    example = _answer_example()
    encoder = Vocabulary.build([example.sentence])
    decoder = Vocabulary(["where", "was", "born", "?"])
    return QGDataset([example], encoder, decoder)


def test_encoded_answer_positions():
    encoded = _dataset()[0]
    assert encoded.answer_positions == (4,)
    assert encoded.src_tokens[4] == "karlin"


def test_batch_answer_mask():
    dataset = _dataset()
    batch = collate(list(dataset), pad_id=0)
    expected = np.zeros(batch.src.shape[1])
    expected[4] = 1.0
    assert np.allclose(batch.answer_mask[0], expected)


@pytest.mark.parametrize("family", ["du-attention", "acnn"])
def test_answer_feature_model_trains(family, tiny_config, tiny_vocabs, tiny_batch):
    encoder, decoder = tiny_vocabs
    model = build_model(
        family, tiny_config, len(encoder), len(decoder), use_answer_features=True
    )
    names = {name for name, _ in model.named_parameters()}
    assert "answer_embedding.weight" in names

    optimizer = SGD(model.parameters(), lr=0.3)
    first = model.loss(tiny_batch)
    assert np.isfinite(first.item())
    first.backward()
    optimizer.step()
    model.zero_grad()
    assert model.loss(tiny_batch).item() < first.item()


def test_answer_features_change_encoding(tiny_config, tiny_vocabs, tiny_batch):
    """With a nonzero answer mask, the tag embedding must alter the encoder."""
    encoder, decoder = tiny_vocabs
    model = build_model(
        "acnn", tiny_config, len(encoder), len(decoder), use_answer_features=True
    ).eval()
    from repro.tensor import no_grad
    import dataclasses

    with no_grad():
        base = model.encode(tiny_batch).encoder_states.data.copy()
        flipped = dataclasses.replace(
            tiny_batch, answer_mask=1.0 - tiny_batch.answer_mask
        )
        other = model.encode(flipped).encoder_states.data
    assert not np.allclose(base, other)


def test_answer_feature_dim_validation(tiny_config, tiny_vocabs):
    encoder, decoder = tiny_vocabs
    with pytest.raises(ValueError):
        build_model(
            "du-attention", tiny_config, len(encoder), len(decoder),
            use_answer_features=True, answer_feature_dim=0,
        )


def test_answer_feature_beam_decoding(tiny_config, tiny_vocabs, tiny_batch):
    from repro.decoding import batched_beam_decode

    encoder, decoder = tiny_vocabs
    model = build_model(
        "acnn", tiny_config, len(encoder), len(decoder), use_answer_features=True
    )
    hyps = batched_beam_decode(model, tiny_batch, beam_size=2, max_length=6)
    assert len(hyps) == tiny_batch.size
