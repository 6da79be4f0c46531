"""Kernel fusion mode: the ``lazy()`` scope, the process-wide default, and
the equivalence contract (fusion on must be byte-identical to eager for
forwards and tolerance-pinned for backwards), plus the reentrancy-audited
``no_grad``.
"""

import numpy as np
import pytest

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.decoding import batched_beam_decode
from repro.decoding.greedy import greedy_decode
from repro.models import ModelConfig, build_model
from repro.tensor import Tensor, no_grad
from repro.tensor.core import is_grad_enabled
from repro.tensor.lazy import fusion_enabled, is_lazy_enabled, lazy, set_fusion_enabled
from repro.tensor.profiler import TapeProfile

_WORDS = ["zorvex", "karlin", "tower", "river", "1887", "ostavia", "velkin"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "?"]


def _synthetic_batch(seed: int, num_examples: int = 4):
    rng = np.random.default_rng(seed)
    examples = []
    for _ in range(num_examples):
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(3, 7)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    dataset = QGDataset(examples, encoder, decoder)
    return encoder, decoder, collate(list(dataset), pad_id=0)


def _model(family, encoder, decoder, seed=3, layers=2):
    config = ModelConfig(
        embedding_dim=8, hidden_size=10, num_layers=layers, dropout=0.0, seed=seed
    )
    return build_model(family, config, len(encoder), len(decoder))


# ---------------------------------------------------------------------------
# Mode plumbing: contexts and the process-wide default
# ---------------------------------------------------------------------------
def test_lazy_context_and_decorator():
    assert not is_lazy_enabled()
    with lazy():
        assert is_lazy_enabled()
        with lazy():  # nests
            assert is_lazy_enabled()
        assert is_lazy_enabled()
    assert not is_lazy_enabled()

    @lazy()
    def staged():
        return is_lazy_enabled()

    assert staged()
    assert not is_lazy_enabled()


def test_lazy_exception_safe():
    with pytest.raises(RuntimeError):
        with lazy():
            raise RuntimeError("boom")
    assert not is_lazy_enabled()


def test_fusion_default_off_and_resolution():
    assert not fusion_enabled()  # zero behavior change out of the box
    assert not is_lazy_enabled()
    previous = set_fusion_enabled(True)
    try:
        assert previous is False
        assert is_lazy_enabled()  # the default turns fusion on outside lazy()
    finally:
        set_fusion_enabled(False)
    assert not is_lazy_enabled()


# ---------------------------------------------------------------------------
# Equivalence contract: fusion on == fusion off, byte for byte
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_beam_decode_fusion_byte_identical(family):
    encoder, decoder, batch = _synthetic_batch(seed=11)
    model = _model(family, encoder, decoder)
    off = batched_beam_decode(model, batch, beam_size=3, max_length=10)
    with lazy():
        on = batched_beam_decode(model, batch, beam_size=3, max_length=10)
    assert [h.token_ids for h in off] == [h.token_ids for h in on]
    assert [h.log_prob for h in off] == [h.log_prob for h in on]  # exact
    assert [h.finished for h in off] == [h.finished for h in on]


@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_greedy_decode_fusion_byte_identical(family):
    encoder, decoder, batch = _synthetic_batch(seed=5)
    model = _model(family, encoder, decoder, layers=3)  # stacked cells share shapes
    off = greedy_decode(model, batch, max_length=10)
    with lazy():
        on = greedy_decode(model, batch, max_length=10)
    assert [h.token_ids for h in off] == [h.token_ids for h in on]
    assert [h.log_prob for h in off] == [h.log_prob for h in on]


def test_coverage_model_keeps_eager_attention_but_matches():
    encoder, decoder, batch = _synthetic_batch(seed=23)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=7)
    model = build_model("acnn", config, len(encoder), len(decoder), use_coverage=True)
    off = batched_beam_decode(model, batch, beam_size=3, max_length=8)
    with lazy():
        on = batched_beam_decode(model, batch, beam_size=3, max_length=8)
    assert [h.token_ids for h in off] == [h.token_ids for h in on]
    assert [h.log_prob for h in off] == [h.log_prob for h in on]


@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_loss_and_gradients_match_under_fusion(family):
    encoder, decoder, batch = _synthetic_batch(seed=7)
    eager_model = _model(family, encoder, decoder)
    fused_model = _model(family, encoder, decoder)

    eager_loss = eager_model.loss(batch)
    eager_loss.backward()
    with lazy():
        fused_loss = fused_model.loss(batch)
        fused_loss.backward()

    assert eager_loss.item() == fused_loss.item()  # forward byte-identical
    for p_eager, p_fused in zip(eager_model.parameters(), fused_model.parameters()):
        if p_eager.grad is None:
            assert p_fused.grad is None
            continue
        # Backwards are tolerance-pinned: the hand-written fused backward
        # sums in a different order than the elementary chain.
        np.testing.assert_allclose(p_fused.grad, p_eager.grad, rtol=1e-10, atol=1e-12)


def test_trainer_config_fusion_flag_matches_eager():
    from repro.data.batching import BatchIterator
    from repro.training import Trainer, TrainerConfig

    rng = np.random.default_rng(19)
    examples = []
    for _ in range(4):
        sentence = tuple(rng.choice(_WORDS, size=rng.integers(3, 7)))
        question = tuple(rng.choice(_QWORDS, size=rng.integers(2, 5)))
        examples.append(QGExample(sentence=sentence, paragraph=sentence, question=question))
    encoder = Vocabulary.build([e.sentence for e in examples])
    decoder = Vocabulary(_QWORDS)
    dataset = QGDataset(examples, encoder, decoder)
    batch = collate(list(dataset), pad_id=0)

    def run():
        model = _model("acnn", encoder, decoder, seed=3)
        trainer = Trainer(
            model,
            BatchIterator(dataset, batch_size=4, seed=1),
            config=TrainerConfig(epochs=1),
        )
        return trainer.train_batch(batch)

    loss_off, norm_off = run()
    with lazy():
        loss_on, norm_on = run()
    assert loss_off == loss_on
    np.testing.assert_allclose(norm_on, norm_off, rtol=1e-10)


# ---------------------------------------------------------------------------
# Node budget of fused training steps
# ---------------------------------------------------------------------------
def test_fused_training_step_has_constant_node_budget():
    """Under fusion each decoder step adds a fixed small number of tape
    nodes regardless of how many elementary ops the chains would take."""
    encoder, decoder, batch = _synthetic_batch(seed=13)
    time_steps = batch.tgt_input.shape[1]

    model_eager = _model("acnn", encoder, decoder)
    with TapeProfile() as eager_profile:
        model_eager.loss(batch)

    model_fused = _model("acnn", encoder, decoder)
    with TapeProfile() as fused_profile, lazy():
        model_fused.loss(batch)

    assert fused_profile.nodes < eager_profile.nodes
    # The fused chains replace ~15 elementary nodes per step (attention ~10
    # + copy chain ~4) with 2; everything else is unchanged.
    saved_per_step = (eager_profile.nodes - fused_profile.nodes) / time_steps
    assert saved_per_step >= 8


# ---------------------------------------------------------------------------
# no_grad: decorator form, nesting, exception safety (reentrancy audit)
# ---------------------------------------------------------------------------
def test_no_grad_as_decorator():
    @no_grad()
    def compute(x):
        assert not is_grad_enabled()
        return x * 2.0

    x = Tensor(np.ones(3), requires_grad=True)
    out = compute(x)
    assert is_grad_enabled()
    assert not out.requires_grad


def test_no_grad_nested_and_exception_safe():
    assert is_grad_enabled()
    with pytest.raises(ValueError):
        with no_grad():
            with no_grad():
                raise ValueError("inner")
    assert is_grad_enabled()


def test_no_grad_single_instance_reentrant():
    guard = no_grad()
    with guard:
        assert not is_grad_enabled()
        with guard:  # reusing one instance must still restore correctly
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()
