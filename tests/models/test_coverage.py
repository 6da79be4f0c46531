"""Tests for the coverage extension (See et al. 2017) on the ACNN."""

import numpy as np
import pytest

from repro.data import collate
from repro.data.vocabulary import BOS_ID
from repro.models import ACNN, ModelConfig, build_model
from repro.nn import GlobalAttention
from repro.tensor import Tensor, check_gradients, no_grad


def _model(tiny_config, tiny_vocabs, **kwargs):
    encoder, decoder = tiny_vocabs
    return build_model("acnn", tiny_config, len(encoder), len(decoder), use_coverage=True, **kwargs)


def test_coverage_attention_requires_flag():
    attn = GlobalAttention(4, 6, np.random.default_rng(0), use_coverage=False)
    d = Tensor(np.zeros((1, 4)))
    h = Tensor(np.zeros((1, 3, 6)))
    with pytest.raises(ValueError):
        attn(d, h, coverage=Tensor(np.zeros((1, 3))))


def test_coverage_attention_changes_scores_once_weight_nonzero():
    attn = GlobalAttention(4, 6, np.random.default_rng(0), use_coverage=True)
    attn.coverage_weight.data[0] = -2.0
    rng = np.random.default_rng(1)
    d = Tensor(rng.standard_normal((1, 4)))
    h = Tensor(rng.standard_normal((1, 3, 6)))
    heavy = Tensor(np.array([[5.0, 0.0, 0.0]]))
    _, base = attn(d, h)
    _, shifted = attn(d, h, coverage=heavy)
    # Negative coverage weight suppresses the already-covered position.
    assert shifted.data[0, 0] < base.data[0, 0]


def test_coverage_attention_gradcheck():
    attn = GlobalAttention(2, 3, np.random.default_rng(2), use_coverage=True)
    attn.coverage_weight.data[0] = 0.5
    rng = np.random.default_rng(3)
    d = Tensor(rng.standard_normal((1, 2)), requires_grad=True)
    h = Tensor(rng.standard_normal((1, 4, 3)), requires_grad=True)
    cov = Tensor(rng.random((1, 4)), requires_grad=True)

    def loss():
        context, _ = attn(d, h, coverage=cov)
        return (context * context).sum()

    check_gradients(loss, [d, h, cov, attn.weight, attn.coverage_weight], rtol=1e-3)


def test_coverage_model_has_coverage_parameter(tiny_config, tiny_vocabs):
    model = _model(tiny_config, tiny_vocabs)
    names = {name for name, _ in model.named_parameters()}
    assert "attention.coverage_weight" in names


def test_coverage_loss_finite_and_trains(tiny_config, tiny_vocabs, tiny_batch):
    from repro.optim import SGD

    model = _model(tiny_config, tiny_vocabs)
    optimizer = SGD(model.parameters(), lr=0.5)
    first = model.loss(tiny_batch)
    assert np.isfinite(first.item())
    first.backward()
    optimizer.step()
    model.zero_grad()
    assert model.loss(tiny_batch).item() < first.item() + 1e-9


def test_coverage_penalty_increases_loss_vs_plain_nll(tiny_config, tiny_vocabs, tiny_batch):
    encoder, decoder = tiny_vocabs
    with_pen = build_model(
        "acnn", tiny_config, len(encoder), len(decoder),
        use_coverage=True, coverage_loss_weight=1.0,
    )
    without_pen = build_model(
        "acnn", tiny_config, len(encoder), len(decoder),
        use_coverage=True, coverage_loss_weight=0.0,
    )
    without_pen.load_state_dict(with_pen.state_dict())
    assert with_pen.loss(tiny_batch).item() >= without_pen.loss(tiny_batch).item()


def test_coverage_state_threads_through_decoding(tiny_config, tiny_vocabs, tiny_batch):
    model = _model(tiny_config, tiny_vocabs).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        state = model.initial_decoder_state(context)
        assert state.coverage is not None
        assert np.allclose(state.coverage, 0.0)
        prev = np.full(context.batch_size, BOS_ID, dtype=np.int64)
        _, state = model.step_log_probs(prev, state, context)
        # One step accumulates exactly one attention distribution per row.
        sums = state.coverage.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-6)
        _, state = model.step_log_probs(prev, state, context)
        assert np.allclose(state.coverage.sum(axis=1), 2.0, atol=1e-6)


def test_coverage_state_select_for_beam(tiny_config, tiny_vocabs, tiny_batch):
    model = _model(tiny_config, tiny_vocabs).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        state = model.initial_decoder_state(context)
        picked = state.select(np.array([0, 0, 1]))
    assert picked.coverage.shape[0] == 3


def test_coverage_beam_decoding_runs(tiny_config, tiny_vocabs, tiny_batch):
    from repro.decoding import batched_beam_decode

    model = _model(tiny_config, tiny_vocabs)
    hyps = batched_beam_decode(model, tiny_batch, beam_size=2, max_length=6)
    assert len(hyps) == tiny_batch.size


def test_coverage_loss_gradcheck(tiny_vocabs, tiny_dataset):
    encoder, decoder = tiny_vocabs
    config = ModelConfig(embedding_dim=4, hidden_size=3, num_layers=1, dropout=0.0, seed=11)
    model = ACNN(config, len(encoder), len(decoder), use_coverage=True, coverage_loss_weight=0.7)
    model.attention.coverage_weight.data[0] = 0.3
    batch = collate(list(tiny_dataset)[:2], pad_id=0)
    check_gradients(lambda: model.loss(batch), model.parameters(), rtol=2e-3, atol=1e-6)


def test_coverage_rejects_negative_weight(tiny_config, tiny_vocabs):
    encoder, decoder = tiny_vocabs
    with pytest.raises(ValueError):
        build_model(
            "acnn", tiny_config, len(encoder), len(decoder),
            use_coverage=True, coverage_loss_weight=-1.0,
        )


def test_describe_mentions_coverage(tiny_config, tiny_vocabs):
    assert "coverage" in _model(tiny_config, tiny_vocabs).describe()
