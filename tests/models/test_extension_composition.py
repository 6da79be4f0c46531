"""The ACNN extensions must compose: coverage + answer tags together,
through training and beam decoding."""

import numpy as np

from repro.decoding import batched_beam_decode, greedy_decode
from repro.models import build_model
from repro.optim import SGD, clip_grad_norm


def _full_acnn(tiny_config, tiny_vocabs):
    encoder, decoder = tiny_vocabs
    return build_model(
        "acnn",
        tiny_config,
        len(encoder),
        len(decoder),
        use_coverage=True,
        coverage_loss_weight=0.5,
        use_answer_features=True,
    )


def test_composed_model_registers_all_extension_parameters(tiny_config, tiny_vocabs):
    model = _full_acnn(tiny_config, tiny_vocabs)
    names = {name for name, _ in model.named_parameters()}
    assert "attention.coverage_weight" in names
    assert "answer_embedding.weight" in names
    assert "switch_d" in names
    assert "copy_projection.weight" in names


def test_composed_model_trains(tiny_config, tiny_vocabs, tiny_batch):
    model = _full_acnn(tiny_config, tiny_vocabs)
    optimizer = SGD(model.parameters(), lr=0.5)
    losses = []
    for _ in range(6):
        loss = model.loss(tiny_batch)
        losses.append(loss.item())
        assert np.isfinite(losses[-1])
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        model.zero_grad()
    assert losses[-1] < losses[0]


def test_composed_model_gradients_reach_every_parameter(tiny_config, tiny_vocabs, tiny_batch):
    model = _full_acnn(tiny_config, tiny_vocabs)
    model.loss(tiny_batch).backward()
    missing = [name for name, p in model.named_parameters() if p.grad is None]
    assert not missing, missing


def test_composed_model_decodes_both_ways(tiny_config, tiny_vocabs, tiny_batch):
    model = _full_acnn(tiny_config, tiny_vocabs)
    greedy = greedy_decode(model, tiny_batch, max_length=6)
    beam = batched_beam_decode(model, tiny_batch, beam_size=3, max_length=6)
    assert len(greedy) == len(beam) == tiny_batch.size


def test_composed_describe_lists_everything(tiny_config, tiny_vocabs):
    text = _full_acnn(tiny_config, tiny_vocabs).describe()
    assert "coverage" in text
    assert "adaptive" in text
