"""Ctrl-C or SIGTERM on the elastic pool: one graceful snapshot, no orphans.

A terminal SIGINT (or a ``kill`` of the group) goes to the whole process
group — coordinator AND workers. Workers ignore both signals
(:func:`repro.runtime.supervisor.mask_worker_signals`), so only the
coordinator reacts: it finishes the in-flight optimizer step, writes
exactly ONE final "interrupt" snapshot, and shuts the pool down without
counting a single worker death. This test drives a real training process
from outside and asserts that contract end to end.
"""

import os
import signal

import pytest

from faults import (
    assert_no_orphans,
    descendant_pids,
    interrupt_group,
    spawn_process,
    wait_for_marker,
)

from repro.training.resilience import SnapshotStore

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

TRAIN_SCRIPT = """
import sys

from repro.data import BatchIterator, QGDataset, QGExample
from repro.models import ModelConfig, build_model
from repro.training import (
    ElasticConfig,
    ElasticTrainer,
    ResilienceConfig,
    TrainerConfig,
    TrainingInterrupted,
)

sentences = [
    "zorvex was born in karlin .",
    "mira designed the velkin tower .",
    "draxby is the capital of ostavia .",
    "the quen river flows through belcor .",
    "pelor wrote the sunken atlas .",
    "the omber bridge spans the fjord .",
]
questions = [
    "where was zorvex born ?",
    "who designed the velkin tower ?",
    "what is the capital of ostavia ?",
    "what river flows through belcor ?",
    "who wrote the sunken atlas ?",
    "what spans the fjord ?",
]
examples = [
    QGExample(sentence=tuple(s.split()), paragraph=tuple(s.split()), question=tuple(q.split()))
    for s, q in zip(sentences, questions)
]
encoder, decoder = QGDataset.build_vocabs(examples, 100, 100)
dataset = QGDataset(examples, encoder, decoder)
model = build_model(
    "acnn", ModelConfig(embedding_dim=8, hidden_size=8, num_layers=1, dropout=0.3, seed=0),
    len(encoder), len(decoder),
)

trainer = ElasticTrainer(
    model,
    dataset,
    batch_size=2,
    config=TrainerConfig(epochs=500, learning_rate=0.1),
    elastic=ElasticConfig(workers=2, microbatches_per_step=2, heartbeat_interval=0.1),
    resilience=ResilienceConfig(directory=sys.argv[1], handle_signals=True),
    epoch_callback=lambda record: print(f"EPOCH {record.epoch} DONE", flush=True),
    run_seed=7,
)
try:
    trainer.train()
except TrainingInterrupted as exc:
    print(f"DEATHS {trainer.worker_deaths}", flush=True)
    print(f"INTERRUPTED snapshot={exc.snapshot_path}", flush=True)
    assert trainer.live_worker_pids() == [], "pool not shut down on interrupt"
    sys.exit(130)
print("FINISHED WITHOUT INTERRUPT", flush=True)
sys.exit(1)
"""


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_sigint_on_pool_yields_one_graceful_snapshot(tmp_path, sig):
    snap_dir = tmp_path / "snaps"
    env = {"PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    process = spawn_process(
        TRAIN_SCRIPT, args=[str(snap_dir)], env=env, cwd=REPO_ROOT
    )
    try:
        wait_for_marker(process, "EPOCH 2 DONE", timeout=120.0)
        workers = descendant_pids(process.pid)
        assert len(workers) >= 2, "worker pool never came up"

        interrupt_group(process, sig)
        output = wait_for_marker(process, "INTERRUPTED", timeout=60.0)
        assert process.wait(timeout=60.0) == 130
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)

    # The whole group got the signal, yet nothing survived the coordinator.
    assert_no_orphans(workers + [process.pid])

    # Exactly one graceful final snapshot: the coordinator writes either a
    # mid-epoch "interrupt" snapshot or — when the signal lands on the epoch
    # boundary — hands back the just-written "epoch_end" one. The workers
    # (who also received the signal) never write a competing copy, so every
    # snapshot on disk is a coordinator phase and at most one is "interrupt".
    store = SnapshotStore(snap_dir)
    phases = [store.load_step(step)[1]["phase"] for step in store.list_steps()]
    assert phases.count("interrupt") <= 1, phases
    assert all(p in {"epoch_start", "mid_epoch", "epoch_end", "interrupt"} for p in phases)
    latest = store.latest_valid()
    assert latest is not None
    assert latest[1]["phase"] in {"interrupt", "epoch_end"}
    assert "INTERRUPTED snapshot=None" not in "\n".join(output)
    # Workers ignored the group signal: none died, none was restarted.
    assert "DEATHS 0" in output
