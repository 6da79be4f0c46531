"""The training loss on the fused tape kernels against the elementary chains.

On the tape, non-coverage attention runs as one ``fused_attention`` node and
ACNN's Eq. 3 copy distribution as one ``fused_pointer_probs`` node, both at
the full source width. The references below are the elementary-op chains
they replaced, kept inline: each scores the live source prefix and
normalizes at the full width. Installed on the model classes, they give
the reference loss. The loss must agree byte for byte and every parameter
gradient to ``rtol=1e-10`` (the hand-written backwards sum in another
order), with and without source columns that pad every row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.models import ModelConfig, build_model
from repro.models.acnn import ACNN
from repro.nn.attention import GlobalAttention, live_width, pad_masked_scores
from repro.serving.cache import pad_batch
from repro.tensor.ops import concat, expand_dims, masked_fill, softmax
from repro.tensor.profiler import TapeProfile

_MASK_VALUE = -1e9
_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "velkin"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]


def _reference_attention(self, decoder_state, encoder_states, pad_mask=None, coverage=None):
    assert coverage is None, "the reference covers non-coverage attention only"
    width = encoder_states.shape[1]
    live = live_width(pad_mask, width)
    if live < width:
        encoder_states = encoder_states[:, :live]
        pad_mask = pad_mask[:, :live]
    scores = self.scores(decoder_state, encoder_states)
    if pad_mask is not None:
        scores = masked_fill(scores, pad_mask, _MASK_VALUE)
    weights = softmax(pad_masked_scores(scores, width), axis=1)
    live_weights = weights if live == width else weights[:, :live]
    context = (expand_dims(live_weights, 2) * encoder_states).sum(axis=1)
    return context, weights


def _reference_copy_distribution(self, d_k, c_k, encoder_states, src_pad_mask):
    projected = self.copy_projection(concat([d_k, c_k], axis=1))
    width = encoder_states.shape[1]
    live = live_width(src_pad_mask, width)
    if live < width:
        encoder_states = encoder_states[:, :live]
        src_pad_mask = src_pad_mask[:, :live]
    scores = (expand_dims(projected, 1) * encoder_states).sum(axis=2)
    scores = scores + self.copy_score_bias
    scores = masked_fill(scores, src_pad_mask, _MASK_VALUE)
    return softmax(pad_masked_scores(scores, width), axis=1)


def _install_reference(monkeypatch):
    monkeypatch.setattr(GlobalAttention, "forward", _reference_attention)
    monkeypatch.setattr(ACNN, "copy_distribution", _reference_copy_distribution)


def _fleet(seed, family, num_examples, num_layers, trailing_pad):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(num_examples):
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(1, 8)))
        # Questions reuse source words, so the copy path carries gradient.
        question = tuple(rng.choice(_QWORDS + list(sentence), size=rng.integers(2, 6)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)
    batch = pad_batch(batch, batch.src.shape[1] + trailing_pad)
    config = ModelConfig(
        embedding_dim=int(rng.integers(4, 10)),
        hidden_size=int(rng.integers(4, 12)),
        num_layers=num_layers,
        dropout=0.0,
        seed=seed,
    )
    model = build_model(family, config, len(encoder), len(decoder))
    # A fresh init attends near-uniformly, which leaves the attention
    # gradients too small to compare: sharpen it.
    for parameter in model.parameters():
        parameter.data *= 5.0
    return model, batch


def _loss_and_gradients(model, batch):
    model.zero_grad()
    loss = model.loss(batch)
    loss.backward()
    grads = [None if p.grad is None else p.grad.copy() for p in model.parameters()]
    model.zero_grad()
    return loss.item(), grads


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(["du-attention", "acnn"]),
    num_examples=st.integers(1, 4),
    num_layers=st.integers(1, 2),
    trailing_pad=st.sampled_from([0, 3]),
)
@settings(max_examples=30, deadline=None)
def test_fused_loss_matches_the_elementary_chains(
    seed, family, num_examples, num_layers, trailing_pad
):
    model, batch = _fleet(seed, family, num_examples, num_layers, trailing_pad)
    fused_loss, fused_grads = _loss_and_gradients(model, batch)
    with pytest.MonkeyPatch.context() as patch:
        _install_reference(patch)
        reference_loss, reference_grads = _loss_and_gradients(model, batch)

    assert np.float64(fused_loss).tobytes() == np.float64(reference_loss).tobytes()
    for parameter, fused, reference in zip(model.parameters(), fused_grads, reference_grads):
        if reference is None:
            assert fused is None, parameter.name
            continue
        np.testing.assert_allclose(fused, reference, rtol=1e-10, atol=1e-12, err_msg=parameter.name)


def test_fused_acnn_loss_builds_fewer_nodes_per_target_step():
    """The two fused chains replace about 15 elementary nodes per target
    step (attention about 10, the copy chain about 4) with 4: two packed
    nodes and two slices. Everything else is unchanged."""
    model, batch = _fleet(13, "acnn", 4, 2, trailing_pad=0)
    with TapeProfile() as fused_profile:
        model.loss(batch)
    with pytest.MonkeyPatch.context() as patch:
        _install_reference(patch)
        with TapeProfile() as reference_profile:
            model.loss(batch)
    saved_per_step = (reference_profile.nodes - fused_profile.nodes) / batch.tgt_input.shape[1]
    assert saved_per_step >= 8
