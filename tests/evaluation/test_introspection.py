"""Tests for the switch-gate / attention trace machinery."""

import numpy as np
import pytest

from repro.data import BatchIterator, QGDataset, QGExample, Vocabulary
from repro.evaluation import gate_statistics, render_trace, trace_generation
from repro.models import ModelConfig, build_model
from repro.training import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def trained_acnn():
    sentences = [
        "zorvex was born in karlin .",
        "mira designed the velkin tower .",
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
    config = ModelConfig(embedding_dim=16, hidden_size=24, num_layers=1, dropout=0.0, seed=5)
    model = build_model("acnn", config, len(encoder), len(decoder))
    Trainer(
        model,
        BatchIterator(dataset, batch_size=3, seed=0),
        None,
        TrainerConfig(epochs=120, learning_rate=0.8, halve_at_epoch=100),
    ).train()
    return model, dataset, decoder


def test_trace_structure(trained_acnn):
    model, dataset, decoder = trained_acnn
    trace = trace_generation(model, dataset[0], decoder, max_length=10)
    assert trace.source_tokens == dataset[0].src_tokens
    assert len(trace.steps) == len(trace.generated_tokens)
    for step in trace.steps:
        assert 0.0 < step.switch < 1.0
        assert step.attention.shape == (len(trace.source_tokens),)
        assert np.isclose(step.attention.sum(), 1.0, atol=1e-6)
        assert np.isclose(step.copy_distribution.sum(), 1.0, atol=1e-6)


def test_trace_nan_step_raises_typed_error(trained_acnn, monkeypatch):
    """A NaN decode step raises NonFiniteLogits instead of tracing NaNs."""
    from repro.models.base import NonFiniteLogits

    model, dataset, decoder = trained_acnn
    original = model.decode_step

    def nan_step(*args, **kwargs):
        record = original(*args, **kwargs)
        record.probs[:] = np.nan
        record.log_probs[:] = np.nan
        return record

    monkeypatch.setattr(model, "decode_step", nan_step)
    with pytest.raises(NonFiniteLogits) as excinfo:
        trace_generation(model, dataset[0], decoder, max_length=10)
    assert excinfo.value.step == 0


def test_trace_requires_acnn(trained_acnn):
    _, dataset, decoder = trained_acnn
    other = build_model(
        "du-attention",
        ModelConfig(embedding_dim=8, hidden_size=8, num_layers=1, dropout=0.0),
        50,
        len(decoder),
    )
    with pytest.raises(TypeError):
        trace_generation(other, dataset[0], decoder)


def test_copied_steps_marked(trained_acnn):
    """The overfit model copies the entity; those steps must be flagged."""
    model, dataset, decoder = trained_acnn
    copied_any = False
    for encoded in dataset:
        trace = trace_generation(model, encoded, decoder, max_length=10)
        for step in trace.steps:
            if step.token not in decoder:
                assert step.copied
                copied_any = True
    assert copied_any


def test_gate_is_adaptive_on_overfit_model(trained_acnn):
    """Mean z at copy steps should exceed mean z at generation steps."""
    model, dataset, decoder = trained_acnn
    traces = [trace_generation(model, e, decoder, max_length=10) for e in dataset]
    stats = gate_statistics(traces)
    assert stats["steps"] > 0
    if stats["copy_rate"] > 0:
        assert stats["mean_switch_when_copying"] > stats["mean_switch_when_generating"]


def test_gate_statistics_empty():
    stats = gate_statistics([])
    assert stats["copy_rate"] == 0.0


def test_render_trace_mentions_tokens(trained_acnn):
    model, dataset, decoder = trained_acnn
    trace = trace_generation(model, dataset[0], decoder, max_length=10)
    text = render_trace(trace)
    assert "source:" in text
    for token in trace.generated_tokens:
        assert token in text


@pytest.mark.parametrize("seed", range(5))
def test_trace_attention_is_the_coverage_step_log_probs_decodes_with(trained_acnn, seed):
    """With coverage on, each traced attention row is exactly the increment
    ``step_log_probs`` adds to its coverage state when fed the traced
    tokens: the trace reports the attention the model decodes with."""
    from repro.data import collate
    from repro.data.vocabulary import BOS_ID, PAD_ID
    from repro.tensor import no_grad

    _, dataset, decoder = trained_acnn
    config = ModelConfig(embedding_dim=16, hidden_size=24, num_layers=1, dropout=0.0, seed=seed)
    model = build_model(
        "acnn", config, len(dataset.encoder_vocab), len(decoder), use_coverage=True
    ).eval()
    model.attention.coverage_weight.data[:] = 5.0
    encoded = dataset[seed % len(dataset)]
    trace = trace_generation(model, encoded, decoder, max_length=6)
    assert len(trace.steps) >= 2

    with no_grad():
        context = model.encode(collate([encoded], pad_id=PAD_ID))
        state = model.initial_decoder_state(context)
        coverage = state.coverage
        prev = np.array([BOS_ID], dtype=np.int64)
        for step in trace.steps:
            _, state = model.step_log_probs(prev, state, context)
            coverage = coverage + step.attention[None, :]
            assert np.array_equal(state.coverage, coverage)  # bytes, not close
            prev = np.array([step.token_id], dtype=np.int64)
