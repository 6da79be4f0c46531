"""Tests for overflow-skip training: quarantine, escalation, resume."""

import numpy as np
import pytest
from faults import SimulatedCrash, crash_on_nth_train_batch

from repro.data import BatchIterator, QGDataset, QGExample, Vocabulary
from repro.models import ModelConfig, build_model
from repro.observability import MemorySink, Telemetry
from repro.optim import NonFiniteGradError
from repro.training import (
    BatchQuarantined,
    OverflowPolicy,
    Trainer,
    TrainerConfig,
    TrainingDiverged,
)
from repro.training.resilience import ResilienceConfig, SnapshotStore


def _setup(num_examples: int = 1):
    base = [
        (("zorvex", "was", "born", "."), ("where", "was", "zorvex", "born", "?")),
        (("mira", "leads", "the", "guild", "."), ("who", "leads", "the", "guild", "?")),
        (("rain", "fell", "all", "night", "."), ("when", "did", "rain", "fall", "?")),
    ]
    examples = [
        QGExample(sentence=s, paragraph=s, question=q)
        for s, q in (base * ((num_examples + len(base) - 1) // len(base)))[:num_examples]
    ]
    encoder = Vocabulary.build([example.sentence for example in examples])
    decoder = Vocabulary.build([example.question for example in examples])
    dataset = QGDataset(examples, encoder, decoder)
    config = ModelConfig(embedding_dim=6, hidden_size=5, num_layers=1, dropout=0.0, seed=0)
    model = build_model("acnn", config, len(encoder), len(decoder))
    iterator = BatchIterator(dataset, batch_size=1, shuffle=False)
    return model, iterator


class LossPoisoner:
    """Wraps model.loss; scales the loss to NaN on chosen call numbers."""

    def __init__(self, model, poison_calls: set[int]):
        self._real = model.loss
        self._poison = poison_calls
        self.calls = 0

    def __call__(self, batch):
        self.calls += 1
        loss = self._real(batch)
        if self.calls in self._poison:
            return loss * float("nan")
        return loss


# ----------------------------------------------------------------------
# TrainerConfig policy plumbing
# ----------------------------------------------------------------------
def test_config_rejects_unknown_policy():
    with pytest.raises(ValueError, match="overflow_policy"):
        TrainerConfig(overflow_policy="ignore")


def test_config_rejects_bad_max_consecutive():
    with pytest.raises(ValueError, match="overflow_max_consecutive"):
        TrainerConfig(overflow_policy="skip", overflow_max_consecutive=0)


def test_policy_constants():
    assert OverflowPolicy.ALL == ("skip", "rollback", "raise")


# ----------------------------------------------------------------------
# Skip policy: quarantine and continue
# ----------------------------------------------------------------------
def test_skip_policy_quarantines_and_completes():
    model, iterator = _setup(num_examples=3)
    sink = MemorySink()
    trainer = Trainer(
        model,
        iterator,
        None,
        TrainerConfig(epochs=2, overflow_policy="skip"),
        telemetry=Telemetry([sink]),
    )
    model.loss = LossPoisoner(model, poison_calls={2})  # 2nd batch of epoch 1
    history = trainer.train()
    assert len(history) == 2
    assert trainer.overflow_skipped == 1
    assert not history.events  # no snapshot rollback happened
    markers = [r for r in sink.of_kind("run") if r["name"] == "overflow_quarantine"]
    assert len(markers) == 1
    assert markers[0]["data"]["cause"] == "nonfinite_loss"
    counters = sink.named("train.overflow.skipped")
    assert counters
    assert all(np.isfinite(record.train_loss) for record in history.records)


def test_skipped_batch_does_not_move_parameters():
    model, iterator = _setup(num_examples=1)
    trainer = Trainer(
        model, iterator, None, TrainerConfig(epochs=1, overflow_policy="skip")
    )
    before = {k: v.copy() for k, v in model.state_dict().items()}
    model.loss = LossPoisoner(model, poison_calls={1})  # only batch poisoned
    trainer.train()
    after = model.state_dict()
    for key, value in before.items():
        np.testing.assert_array_equal(value, after[key])


def test_skip_escalates_after_max_consecutive():
    model, iterator = _setup(num_examples=1)
    trainer = Trainer(
        model,
        iterator,
        None,
        TrainerConfig(
            epochs=12, overflow_policy="skip", overflow_max_consecutive=3
        ),
    )
    model.loss = LossPoisoner(model, poison_calls=set(range(1, 100)))
    with pytest.raises(TrainingDiverged, match="consecutive batches quarantined"):
        trainer.train()
    assert trainer.overflow_skipped == 3


def test_good_step_resets_consecutive_count():
    model, iterator = _setup(num_examples=2)
    trainer = Trainer(
        model,
        iterator,
        None,
        TrainerConfig(epochs=3, overflow_policy="skip", overflow_max_consecutive=2),
    )
    # Poison every first batch of each epoch: 1-2 good, never 2 in a row.
    model.loss = LossPoisoner(model, poison_calls={1, 3, 5})
    history = trainer.train()
    assert len(history) == 3
    assert trainer.overflow_skipped == 3


def test_nonfinite_grad_quarantined_with_typed_cause(monkeypatch):
    model, iterator = _setup(num_examples=2)
    sink = MemorySink()
    trainer = Trainer(
        model,
        iterator,
        None,
        TrainerConfig(epochs=1, overflow_policy="skip"),
        telemetry=Telemetry([sink]),
    )
    calls = {"n": 0}
    from repro.training import trainer as trainer_module
    real_clip = trainer_module.clip_grad_norm

    def clip_with_fault(parameters, max_norm, on_nonfinite="raise"):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NonFiniteGradError(float("nan"), ["parameter[0]"])
        return real_clip(parameters, max_norm, on_nonfinite=on_nonfinite)

    monkeypatch.setattr(trainer_module, "clip_grad_norm", clip_with_fault)
    history = trainer.train()
    assert len(history) == 1
    markers = [r for r in sink.of_kind("run") if r["name"] == "overflow_quarantine"]
    assert markers[0]["data"]["cause"] == "nonfinite_grad_norm"


# ----------------------------------------------------------------------
# Raise policy: no recovery even with resilience configured
# ----------------------------------------------------------------------
def test_raise_policy_skips_recovery(tmp_path):
    model, iterator = _setup(num_examples=1)
    trainer = Trainer(
        model,
        iterator,
        None,
        TrainerConfig(epochs=2, overflow_policy="raise"),
        resilience=ResilienceConfig(directory=tmp_path / "snaps", max_retries=5),
    )
    model.loss = LossPoisoner(model, poison_calls={2})
    with pytest.raises(TrainingDiverged) as excinfo:
        trainer.train()
    assert not excinfo.value.recovery_log  # rollback was not attempted
    assert not excinfo.value.allow_recovery


def test_rollback_policy_still_recovers(tmp_path):
    model, iterator = _setup(num_examples=1)
    trainer = Trainer(
        model,
        iterator,
        None,
        TrainerConfig(epochs=2, overflow_policy="rollback"),
        resilience=ResilienceConfig(directory=tmp_path / "snaps", max_retries=5),
    )
    model.loss = LossPoisoner(model, poison_calls={2})
    history = trainer.train()
    assert len(history) == 2
    assert len(history.events) == 1  # one rollback, cause carried through
    assert history.events[0].cause == "nonfinite_loss"


# ----------------------------------------------------------------------
# Snapshots from before the loss scaler was removed
# ----------------------------------------------------------------------
def test_snapshot_with_a_loss_scaler_field_still_resumes(tmp_path):
    """Snapshots written while the trainer kept a loss scaler carry a
    ``loss_scaler`` field; a run resumes from one as from any other."""
    config = TrainerConfig(epochs=2, overflow_policy="skip")
    model_ref, iterator_ref = _setup(num_examples=3)
    Trainer(model_ref, iterator_ref, None, config).train()

    snapdir = tmp_path / "snaps"
    model_v, iterator_v = _setup(num_examples=3)
    victim = Trainer(
        model_v, iterator_v, None, config,
        resilience=ResilienceConfig(directory=snapdir, every_n_batches=1),
    )
    with crash_on_nth_train_batch(victim, 5):
        with pytest.raises(SimulatedCrash):
            victim.train()
    store = SnapshotStore(snapdir)
    step = store.list_steps()[-1]
    arrays, meta = store.load_step(step)
    del meta["consecutive_overflows"]
    meta["loss_scaler"] = {
        "scale": 1.0, "good_steps": step, "overflows": 0, "consecutive_overflows": 0
    }
    store.save(step, arrays, meta)

    model_s, iterator_s = _setup(num_examples=3)
    Trainer(model_s, iterator_s, None, config).train(resume_from=snapdir)
    for key, value in model_ref.state_dict().items():
        np.testing.assert_array_equal(value, model_s.state_dict()[key])


def test_batch_quarantined_is_typed():
    exc = BatchQuarantined("boom", cause="nonfinite_loss", step=7, value=float("nan"))
    assert isinstance(exc, ArithmeticError)
    assert exc.cause == "nonfinite_loss"
    assert exc.step == 7
