"""Kernel fusion follows the gradient: inside ``lazy()`` the fused
attention and pointer kernels run only where the tape records, so every
decode (always under ``no_grad``) runs the eager chains. Under gradients
fusion is byte-identical to eager for forwards and tolerance-pinned for
backwards. Also the reentrancy-audited ``no_grad``.
"""

import importlib
import types

import numpy as np
import pytest

import repro.nn.functional as functional
from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.decoding import batched_beam_decode
from repro.decoding.greedy import greedy_decode
from repro.models import ModelConfig, build_model
from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchingEngine,
    EngineConfig,
    GenerationRequest,
    InferenceService,
    ManualClock,
)
from repro.tensor import Tensor, no_grad
from repro.tensor.core import is_grad_enabled
from repro.tensor.fusion import is_lazy_enabled, lazy
from repro.tensor.profiler import TapeProfile

acnn_module = importlib.import_module("repro.models.acnn")

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


@pytest.fixture()
def fused_kernel_calls(monkeypatch):
    """Count the calls that reach the fused attention and pointer kernels."""
    calls = {"attention": 0, "pointer": 0}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        functional, "fused_attention", counted("attention", functional.fused_attention)
    )
    monkeypatch.setattr(
        acnn_module, "fused_pointer_probs", counted("pointer", acnn_module.fused_pointer_probs)
    )
    return calls


@pytest.fixture()
def fused_kernels_raise(monkeypatch):
    """Make any call into the fused attention or pointer kernel fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a fused kernel ran without gradients")

    monkeypatch.setattr(functional, "fused_attention", refuse)
    monkeypatch.setattr(acnn_module, "fused_pointer_probs", refuse)


# ---------------------------------------------------------------------------
# Mode plumbing: the lazy() scope and the gradient
# ---------------------------------------------------------------------------
def test_lazy_context_and_decorator():
    """lazy() nests; it is a context manager only (no decorator form)."""
    assert not is_lazy_enabled()
    with lazy():
        assert is_lazy_enabled()
        with lazy():  # nests
            assert is_lazy_enabled()
        assert is_lazy_enabled()
    assert not is_lazy_enabled()
    assert not callable(lazy())


def test_lazy_exception_safe():
    with pytest.raises(RuntimeError):
        with lazy():
            raise RuntimeError("boom")
    assert not is_lazy_enabled()


def test_fusion_submodule_import_binds_the_module():
    """The package re-exports the class ``lazy``; the submodule that defines
    it has another name, so a dotted import binds the module, not the class."""
    import repro.tensor.fusion as fusion_module
    from repro.tensor import lazy as exported

    assert isinstance(fusion_module, types.ModuleType)
    assert isinstance(fusion_module._LAZY, list)
    assert exported is fusion_module.lazy is lazy


def test_fusion_default_off_and_resolution():
    """Off by default; on only inside lazy() while gradients are on."""
    assert not is_lazy_enabled()
    with no_grad():
        assert not is_lazy_enabled()
        with lazy():
            assert not is_lazy_enabled()
    with lazy():
        assert is_lazy_enabled()
        with no_grad():
            assert not is_lazy_enabled()
        assert is_lazy_enabled()
    assert not is_lazy_enabled()


# ---------------------------------------------------------------------------
# Decoding inside lazy() runs eager: no fused kernel, the same bytes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_beam_decode_fusion_byte_identical(family, fused_kernels_raise):
    encoder, decoder, batch = _synthetic_batch(seed=11)
    model = _model(family, encoder, decoder)
    off = batched_beam_decode(model, batch, beam_size=3, max_length=10)
    with lazy():
        on = batched_beam_decode(model, batch, beam_size=3, max_length=10)
    assert [h.token_ids for h in off] == [h.token_ids for h in on]
    assert [h.log_prob for h in off] == [h.log_prob for h in on]  # exact
    assert [h.finished for h in off] == [h.finished for h in on]


@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_greedy_decode_fusion_byte_identical(family, fused_kernels_raise):
    encoder, decoder, batch = _synthetic_batch(seed=5)
    model = _model(family, encoder, decoder, layers=3)  # stacked cells share shapes
    off = greedy_decode(model, batch, max_length=10)
    with lazy():
        on = greedy_decode(model, batch, max_length=10)
    assert [h.token_ids for h in off] == [h.token_ids for h in on]
    assert [h.log_prob for h in off] == [h.log_prob for h in on]


def test_coverage_model_keeps_eager_attention_but_matches(fused_kernels_raise):
    encoder, decoder, batch = _synthetic_batch(seed=23)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=7)
    model = build_model("acnn", config, len(encoder), len(decoder), use_coverage=True)
    off = batched_beam_decode(model, batch, beam_size=3, max_length=8)
    with lazy():
        on = batched_beam_decode(model, batch, beam_size=3, max_length=8)
    assert [h.token_ids for h in off] == [h.token_ids for h in on]
    assert [h.log_prob for h in off] == [h.log_prob for h in on]


def test_engine_drain_inside_lazy_runs_no_fused_kernel(fused_kernels_raise):
    """The serving engine's encode and decode steps run under no_grad, so a
    drain inside lazy() serves every request from the eager chains."""
    examples = [
        QGExample(sentence=tuple(s.split()), paragraph=tuple(s.split()), question=("?",))
        for s in ["zorvex was born in karlin .", "the velkin tower is in ostavia ."]
    ]
    encoder, decoder = QGDataset.build_vocabs(examples, 100, 100)

    def drain():
        service = InferenceService(
            _model("acnn", encoder, decoder, layers=1),
            encoder,
            decoder,
            policy=AdmissionPolicy(max_source_tokens=12),
            clock=ManualClock(),
            telemetry=Telemetry([]),
        )
        engine = ContinuousBatchingEngine(service, EngineConfig(max_rows=8))
        for i, text in enumerate(["zorvex was born in karlin", "the velkin tower", "karlin"]):
            assert engine.submit(GenerationRequest(text, request_id=f"r{i}", beam_size=2)) is None
        return sorted(engine.drain(), key=lambda o: o.request_id)

    off = drain()
    with lazy():
        on = drain()
    assert [o.status for o in on] == ["served"] * 3
    assert [o.result.tokens for o in off] == [o.result.tokens for o in on]
    assert [o.result.log_prob for o in off] == [o.result.log_prob for o in on]


def test_loss_inside_lazy_reaches_both_fused_kernels(fused_kernel_calls):
    """With gradients on, every decoder step of an ACNN loss runs one fused
    attention and one fused pointer kernel; outside lazy() none does."""
    encoder, decoder, batch = _synthetic_batch(seed=7)
    model = _model("acnn", encoder, decoder)
    model.loss(batch)
    assert fused_kernel_calls == {"attention": 0, "pointer": 0}
    with lazy():
        model.loss(batch)
    steps = batch.tgt_input.shape[1]
    assert fused_kernel_calls == {"attention": steps, "pointer": steps}


# ---------------------------------------------------------------------------
# Equivalence contract under gradients: fusion on == fusion off
# ---------------------------------------------------------------------------
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
