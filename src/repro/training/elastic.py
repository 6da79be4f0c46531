"""Elastic data-parallel training: a supervised worker pool that degrades
instead of dying.

The coordinator owns the canonical parameters, optimizer, schedule,
snapshots, and signal handling; N gradient workers own nothing but a model
replica and a shard of each step's micro-batches. Per step the coordinator
broadcasts parameters, dispatches the step's micro-batches over the live
membership (:class:`~repro.training.sharding.ShardPlan`), collects one
gradient contribution per micro-batch, folds them with the pinned
:func:`~repro.training.sharding.tree_reduce` order, and applies one
optimizer step. Because every micro-batch's forward/backward is a pure
function of ``(parameters, micro-batch index)`` — data order and RNG
streams are derived statelessly from the run seed — the trained parameters
are **bit-identical at every world size**, including after worker deaths,
restarts, and degraded re-sharding.

Worker supervision (fork, heartbeats, restart with backoff, retirement,
orphan-free shutdown, signals) is :mod:`repro.runtime.supervisor`'s, state
machine included. This module keeps the gradient protocol — ``params`` and
``compute`` out, ``grad`` back — and its recovery policy. A failed worker's
outstanding micro-batches are re-sharded onto the survivors and recomputed,
bit-exactly; with every rank retired the coordinator computes inline. A
non-finite gradient counts as worker corruption (``corrupt_gradient``)
once; if it *reproduces* on recomputation it is divergence, and raises
:class:`~repro.training.trainer.TrainingDiverged` (recoverable through the
same snapshot-rollback machinery as the single-process trainer).

Workers ignore SIGINT and SIGTERM, so a signal to the process group
interrupts only the coordinator, which finishes the in-flight step,
writes exactly one graceful final snapshot, shuts the pool down, and
raises :class:`~repro.training.trainer.TrainingInterrupted`.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.data.batching import Batch, BatchIterator, collate, example_source_lengths
from repro.data.dataset import EncodedExample
from repro.data.shardstore import CorpusChangedError
from repro.models.base import QuestionGenerator
from repro.observability import (
    Telemetry,
    TerminalSink,
    get_telemetry,
    param_norm,
    scaling_efficiency,
)
from repro.optim import SGD, HalveAtEpoch, NonFiniteGradError, clip_grad_norm
from repro.optim.optimizers import Optimizer
from repro.optim.schedules import Schedule
from repro.runtime.supervisor import (
    DrainGuard,
    Supervisor,
    SupervisorConfig,
    WorkerHandle,
    WorkerLink,
    mask_worker_signals,
)
from repro.training.history import EpochRecord, RecoveryEvent, TrainingHistory
from repro.training.resilience import ResilienceConfig, SnapshotStore
from repro.training.sharding import (
    ShardPlan,
    epoch_batch_plan,
    reseed_model_rngs,
    tree_reduce_gradients,
)
from repro.training.trainer import (
    TrainingDiverged,
    TrainingInterrupted,
    evaluate_mean_loss,
)

__all__ = [
    "ElasticConfig",
    "WorkerFaultPlan",
    "ElasticTrainer",
    "mask_worker_signals",
    "compute_microbatch",
]

_SNAP_FORMAT_KEY = "elastic"


# ----------------------------------------------------------------------
# Configuration and fault seam
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ElasticConfig(SupervisorConfig):
    """Shape and supervision policy of the gradient worker pool; the
    supervision fields are documented on
    :class:`~repro.runtime.supervisor.SupervisorConfig`.

    Parameters
    ----------
    workers:
        Gradient worker processes. ``0`` runs every micro-batch inline in
        the coordinator — the same math through the same code path, useful
        for tests and as the floor the pool degrades to.
    microbatches_per_step:
        Micro-batches aggregated into one optimizer step. This — not the
        world size — defines the optimization trajectory: two runs with the
        same value produce bit-identical parameters at any worker count.
        ``None`` pins it to ``max(1, workers)`` at trainer construction.
    """

    microbatches_per_step: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.microbatches_per_step is not None and self.microbatches_per_step < 1:
            raise ValueError(
                f"microbatches_per_step must be >= 1, got {self.microbatches_per_step}"
            )


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic worker-level fault seam (chaos testing only).

    Faults key on ``(rank, nth compute command)`` — 1-based, counted by the
    worker itself — so injection lands at an exact step boundary no matter
    how supervision re-shards the run. In the style of
    :mod:`repro.serving.faults`: the plan is plain data, injection is
    deterministic, and production runs simply pass ``None``.
    """

    kill_on_compute: Mapping[int, int] = field(default_factory=dict)
    """rank → die (``os._exit``) when its Nth compute command arrives."""
    stall_on_compute: Mapping[int, int] = field(default_factory=dict)
    """rank → stop heartbeating and hang on its Nth compute command."""
    corrupt_on_compute: Mapping[int, int] = field(default_factory=dict)
    """rank → poison its Nth gradient with NaN before sending."""

    def action_for(self, rank: int, nth_compute: int) -> str | None:
        if self.kill_on_compute.get(rank) == nth_compute:
            return "kill"
        if self.stall_on_compute.get(rank) == nth_compute:
            return "stall"
        if self.corrupt_on_compute.get(rank) == nth_compute:
            return "corrupt"
        return None


# ----------------------------------------------------------------------
# Micro-batch computation (shared by workers and the inline fallback)
# ----------------------------------------------------------------------
def compute_microbatch(
    model: QuestionGenerator,
    examples: Sequence[EncodedExample],
    run_seed: int,
    epoch: int,
    slot: int,
    indices: Sequence[int],
    pad_id: int = 0,
) -> tuple[list[np.ndarray], float, int, float]:
    """Forward/backward one micro-batch; returns (grads, loss_sum, tokens, seconds).

    Deterministic in ``(parameters, run_seed, epoch, slot)``: the model's
    RNG streams are reseeded for the slot first, so a worker, a restarted
    worker, and the coordinator's inline fallback all produce identical
    bytes for the same micro-batch.
    """
    start = time.perf_counter()
    reseed_model_rngs(model, run_seed, epoch, slot)
    model.train()
    batch: Batch = collate([examples[i] for i in indices], pad_id=pad_id)
    loss = model.loss(batch)
    loss_value = loss.item()
    if math.isfinite(loss_value):
        loss.backward()
    # A non-finite loss is never backpropagated: the zero grads below plus
    # the NaN loss_sum make _contribution_finite reject the contribution.
    grads = [
        param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
        for param in model.parameters()
    ]
    model.zero_grad()
    tokens = batch.num_target_tokens
    return grads, loss_value * tokens, tokens, time.perf_counter() - start


def _contribution_finite(grads: Sequence[np.ndarray], loss_sum: float) -> bool:
    if not math.isfinite(loss_sum):
        return False
    return all(np.isfinite(grad).all() for grad in grads)


def _zero_accum() -> dict:
    return {"loss": 0.0, "tokens": 0, "norm": 0.0, "batches": 0}


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(
    link: WorkerLink,
    model: QuestionGenerator,
    examples: Sequence[EncodedExample],
    run_seed: int,
    pad_id: int,
) -> None:
    """Worker loop: load params, compute assigned micro-batches."""
    while True:
        message = link.conn.recv()
        kind = message[0]
        if kind == "shutdown":
            return
        if kind == "params":
            model.load_state_dict(message[1])
        elif kind == "compute":
            _, epoch, slot, indices = message
            action = link.inject()
            grads, loss_sum, tokens, seconds = compute_microbatch(
                model, examples, run_seed, epoch, slot, indices, pad_id
            )
            if action == "corrupt":
                grads[0] = grads[0].copy()
                grads[0].flat[0] = float("nan")
            link.send("grad", slot, grads, loss_sum, tokens, seconds)


class ElasticTrainer:
    """Coordinator for multiprocess data-parallel training.

    Drop-in sibling of :class:`~repro.training.trainer.Trainer` for the
    same model families: accepts the shared :class:`TrainerConfig`,
    :class:`ResilienceConfig` (snapshots, resume, graceful signals,
    divergence rollback), telemetry, and optimizer/schedule injection —
    but scales the gradient computation over an elastic pool of worker
    processes as described in the module docstring.

    Parameters
    ----------
    model:
        Coordinator replica; holds the canonical parameters.
    examples:
        Training examples (a :class:`~repro.data.dataset.QGDataset` works).
        Workers inherit them at fork time — nothing is re-encoded per step.
    batch_size / bucket_multiplier / pad_id:
        Micro-batch composition, identical semantics to
        :class:`~repro.data.batching.BatchIterator`.
    run_seed:
        Root of the deterministic derivation tree (data order, dropout
        streams). Two runs with equal ``run_seed``, config, and
        ``microbatches_per_step`` are bit-identical at any world size.
    dev_iterator:
        Optional; enables per-epoch dev loss, early stopping, and best-dev
        parameter tracking, evaluated inline on the coordinator.
    fault_plan:
        Deterministic chaos seam (:class:`WorkerFaultPlan`); None in
        production.
    """

    def __init__(
        self,
        model: QuestionGenerator,
        examples: Sequence[EncodedExample],
        batch_size: int,
        dev_iterator: BatchIterator | None = None,
        config=None,
        elastic: ElasticConfig | None = None,
        optimizer: Optimizer | None = None,
        schedule: Schedule | None = None,
        epoch_callback: Callable[[EpochRecord], None] | None = None,
        resilience: ResilienceConfig | None = None,
        telemetry: Telemetry | None = None,
        fault_plan: WorkerFaultPlan | None = None,
        pad_id: int = 0,
        bucket_multiplier: int = 16,
        run_seed: int = 0,
    ) -> None:
        from repro.training.trainer import TrainerConfig

        self.model = model
        # Indexable containers (lists, QGDataset, the shard store's lazy
        # StreamingQGDataset) are used in place — workers inherit the mmap
        # handles at fork time and share OS pages instead of each holding a
        # materialized copy. Plain iterables are drained once into a list.
        if hasattr(examples, "__getitem__") and hasattr(examples, "__len__"):
            self.examples = examples
        else:
            self.examples = list(examples)
        if not len(self.examples):
            raise ValueError("elastic training needs a non-empty example list")
        self.corpus_digest = getattr(examples, "corpus_digest", None)
        self.batch_size = int(batch_size)
        self.bucket_multiplier = bucket_multiplier
        self.pad_id = pad_id
        self.run_seed = int(run_seed)
        self.dev_iterator = dev_iterator
        self.config = config or TrainerConfig()
        self.elastic = elastic or ElasticConfig()
        self.microbatches_per_step = (
            self.elastic.microbatches_per_step
            if self.elastic.microbatches_per_step is not None
            else max(1, self.elastic.workers)
        )
        if telemetry is None:
            telemetry = get_telemetry()
            if not telemetry.enabled:
                telemetry = Telemetry([TerminalSink()])
        self.telemetry = telemetry
        self.optimizer = optimizer or SGD(model.parameters(), lr=self.config.learning_rate)
        self.schedule = schedule or HalveAtEpoch(self.optimizer, self.config.halve_at_epoch)
        self.epoch_callback = epoch_callback
        self.resilience = resilience
        self._store = (
            SnapshotStore(resilience.directory, keep_last=resilience.keep_last)
            if resilience
            else None
        )
        self.history = TrainingHistory()
        self.best_state: dict | None = None
        self._workers = Supervisor(
            self.elastic,
            _worker_main,
            (self.model, self.examples, self.run_seed, self.pad_id),
            fault_plan=fault_plan,
            name="elastic-worker",
        )
        self._params_sent: dict[int, int] = {}  # rank → parameter version
        self._params_version = 0
        self._step = 0
        self._best_dev = float("inf")
        self._epochs_without_improvement = 0
        self._retries_used = 0
        self._recovery_events: list[RecoveryEvent] = []
        self._pending_backoff: float | None = None
        self._resume_accum: dict | None = None
        self._guard = DrainGuard()
        self._degraded = False
        self._inline_announced = False
        self.worker_deaths = 0
        self.worker_restarts = 0
        self.redispatched = 0

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def _spawn_pool(self) -> None:
        if self.elastic.workers == 0 or self._workers.handles:
            return
        for rank in range(self.elastic.workers):
            self._spawn_worker(self._workers.add(rank))

    def _spawn_worker(self, handle: WorkerHandle) -> None:
        """The trainer's one spawn path, initial and restart alike."""
        self._workers.spawn(handle)

    def shutdown(self) -> None:
        """Stop and reap every worker; idempotent, never leaves orphans."""
        self._workers.shutdown()
        self._params_sent.clear()

    def live_worker_pids(self) -> list[int]:
        """PIDs of workers still running (empty after a clean shutdown)."""
        return self._workers.live_pids()

    @property
    def worker_rss(self) -> dict[int, int]:
        """Rank → latest heartbeat-reported RSS in bytes (live workers only).

        Zero until a rank's first RSS-bearing heartbeat arrives; gauged per
        step as ``elastic.worker<rank>.rss_mb``.
        """
        return self._workers.rss()

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _fail_worker(
        self, handle: WorkerHandle, cause: str, outstanding: dict
    ) -> list[tuple]:
        """Kill, re-queue, and either schedule a restart or retire the rank.

        Returns the failed worker's outstanding items (slot-sorted) so the
        caller can push them back onto the pending queue.
        """
        self.worker_deaths += 1
        requeued = [item for _, item in sorted(outstanding.pop(handle.rank, {}).items())]
        self.redispatched += len(requeued)
        self._params_sent.pop(handle.rank, None)
        backoff = self._workers.fail(handle)
        self.telemetry.counter("elastic.worker_deaths")
        self.telemetry.run_marker(
            "worker_dead", rank=handle.rank, cause=cause, step=self._step
        )
        if backoff is None:
            self._note_degraded(self._workers.survivors())
            return requeued
        self.worker_restarts += 1
        self.telemetry.counter("elastic.worker_restarts")
        self.telemetry.run_marker(
            "worker_restart_scheduled",
            rank=handle.rank,
            restart=handle.restarts_used,
            backoff_seconds=backoff,
            step=self._step,
        )
        return requeued

    def _note_degraded(self, survivors: list[int]) -> None:
        self._degraded = True
        self.telemetry.run_marker(
            "degraded", survivors=survivors, step=self._step
        )
        self.telemetry.log(
            f"[elastic] degraded mode: re-sharding onto workers {survivors or '[inline]'}"
        )

    def _supervise(self, outstanding: dict, pending: deque) -> None:
        """One supervision pass: detect deaths/stalls, respawn due workers."""
        for handle, event in self._workers.sweep():
            if event == "restart_due":
                self._spawn_worker(handle)
                self.telemetry.run_marker(
                    "worker_restarted", rank=handle.rank, step=self._step
                )
            else:
                pending.extend(self._fail_worker(handle, event, outstanding))

    def _broadcast_params(self, handles: Sequence[WorkerHandle]) -> None:
        payload = None
        for handle in handles:
            if self._params_sent.get(handle.rank) == self._params_version:
                continue
            if payload is None:
                payload = self.model.state_dict()
            if self._workers.send(handle, ("params", payload)):
                self._params_sent[handle.rank] = self._params_version

    def _dispatch(self, pending: deque, outstanding: dict) -> None:
        """Assign every pending micro-batch to the live membership."""
        live = self._workers.live()
        if not live:
            return
        self._broadcast_params(live)
        plan = ShardPlan(tuple(h.rank for h in live))
        by_rank = {h.rank: h for h in live}
        while pending:
            epoch, slot, indices = pending.popleft()
            handle = by_rank[plan.owner_of(slot)]
            if not self._workers.send(handle, ("compute", epoch, slot, indices)):
                pending.appendleft((epoch, slot, indices))
                return  # reaped next supervision pass, then re-dispatched
            outstanding.setdefault(handle.rank, {})[slot] = (epoch, slot, indices)

    def _drain_ready(
        self, outstanding: dict, pending: deque, results: dict, nan_counts: dict
    ) -> None:
        """Read every message currently available on worker pipes."""
        for handle, message in self._workers.messages():
            kind = message[0]
            if kind == "grad":
                _, rank, slot, grads, loss_sum, tokens, seconds = message
                item = outstanding.get(rank, {}).pop(slot, None)
                if not _contribution_finite(grads, loss_sum):
                    self._record_nonfinite(slot, nan_counts)
                    # Corruption: kill the worker, recompute the slot
                    # elsewhere (bit-exactly — see module docstring).
                    if item is not None:
                        pending.append(item)
                    pending.extend(
                        self._fail_worker(handle, "corrupt_gradient", outstanding)
                    )
                    continue
                results[slot] = (grads, loss_sum, tokens, seconds, rank)
            elif kind == "error":
                self.telemetry.log(
                    f"[elastic] worker {handle.rank} raised:\n{message[2]}"
                )
                pending.extend(self._fail_worker(handle, "exception", outstanding))

    def _record_nonfinite(self, slot: int, nan_counts: dict, fatal: bool = False) -> None:
        """A NaN/inf gradient arrived: corruption once, divergence twice.

        The first non-finite result for a slot is treated as a worker fault
        (the contribution is dropped and recomputed elsewhere); if the
        recomputation is non-finite too — same inputs, same parameters,
        same bytes — the model itself has diverged and the run escalates to
        :class:`TrainingDiverged` for the snapshot-rollback path. Inline
        recomputation on the coordinator is authoritative (``fatal=True``):
        there is no second machine to blame.
        """
        nan_counts[slot] = nan_counts.get(slot, 0) + (2 if fatal else 1)
        self.telemetry.counter("elastic.nonfinite_contributions")
        if nan_counts[slot] >= 2:
            raise TrainingDiverged(
                f"micro-batch {slot} produced a non-finite gradient "
                f"deterministically (step {self._step + 1}); this is "
                "divergence, not worker corruption",
                cause="nonfinite_grad",
            )

    def _execute_step(
        self, epoch: int, slot_items: Sequence[tuple[int, tuple[int, ...]]]
    ) -> dict[int, tuple]:
        """Run one global step's micro-batches over the pool; supervise.

        Returns slot → (grads, loss_sum, tokens, seconds, rank) for every
        slot, surviving worker deaths, stalls, corruption, and — when the
        whole pool is gone — computing inline on the coordinator.
        """
        pending: deque = deque((epoch, slot, indices) for slot, indices in slot_items)
        outstanding: dict[int, dict[int, tuple]] = {}
        results: dict[int, tuple] = {}
        nan_counts: dict[int, int] = {}
        want = len(slot_items)
        while len(results) < want:
            self._supervise(outstanding, pending)
            if self._workers.live():
                self._dispatch(pending, outstanding)
                self._drain_ready(outstanding, pending, results, nan_counts)
                continue
            if self._workers.healing:
                # Restarts are due shortly; wait for the pool to heal.
                time.sleep(self.elastic.poll_interval)
                continue
            # Degrade, don't die: no pool left — the coordinator computes.
            if not self._inline_announced and self.elastic.workers > 0:
                self._inline_announced = True
                self.telemetry.run_marker("inline_fallback", step=self._step)
                self.telemetry.log(
                    "[elastic] no live workers remain; computing inline"
                )
            while pending:
                item_epoch, slot, indices = pending.popleft()
                grads, loss_sum, tokens, seconds = compute_microbatch(
                    self.model, self.examples, self.run_seed,
                    item_epoch, slot, indices, self.pad_id,
                )
                if not _contribution_finite(grads, loss_sum):
                    self._record_nonfinite(slot, nan_counts, fatal=True)
                results[slot] = (grads, loss_sum, tokens, seconds, -1)
        return results

    # ------------------------------------------------------------------
    # Snapshots / resume
    # ------------------------------------------------------------------
    def _capture_state(
        self, phase: str, epoch: int, steps_done: int, accum: dict
    ) -> tuple[dict, dict]:
        optimizer_state = self.optimizer.state_dict()
        arrays = {f"model::{k}": v for k, v in self.model.state_dict().items()}
        arrays.update({f"opt::{k}": v for k, v in optimizer_state["arrays"].items()})
        if self.best_state is not None:
            arrays.update({f"best::{k}": v for k, v in self.best_state.items()})
        meta = {
            "phase": phase,
            "epoch": epoch,
            "steps_done": steps_done,
            "accum": accum,
            _SNAP_FORMAT_KEY: {
                "run_seed": self.run_seed,
                "microbatches_per_step": self.microbatches_per_step,
                "batch_size": self.batch_size,
                "corpus_digest": self.corpus_digest,
            },
            "best_dev": None if math.isinf(self._best_dev) else self._best_dev,
            "epochs_without_improvement": self._epochs_without_improvement,
            "retries_used": self._retries_used,
            "has_best": self.best_state is not None,
            "optimizer": optimizer_state["scalars"],
            "schedule": self.schedule.state_dict(),
            "history": self.history.to_payload(),
            "telemetry": self.telemetry.state(),
        }
        return arrays, meta

    def _snapshot(
        self, phase: str, epoch: int, steps_done: int, accum: dict | None = None
    ) -> str | None:
        if self._store is None:
            return None
        arrays, meta = self._capture_state(
            phase, epoch, steps_done, accum if accum is not None else _zero_accum()
        )
        return self._store.save(self._step, arrays, meta)

    def _restore_state(self, arrays: dict, meta: dict) -> tuple[int, int]:
        stamp = meta.get(_SNAP_FORMAT_KEY)
        if not stamp:
            raise ValueError(
                "snapshot was not written by the elastic runtime; resume it "
                "with the single-process Trainer instead"
            )
        for key, current in (
            ("run_seed", self.run_seed),
            ("microbatches_per_step", self.microbatches_per_step),
            ("batch_size", self.batch_size),
        ):
            if stamp.get(key) != current:
                raise ValueError(
                    f"elastic resume mismatch: snapshot {key}={stamp.get(key)} "
                    f"vs configured {current} — the optimization trajectory "
                    "would silently change"
                )
        # Corpus identity: snapshots taken from a shard store carry its
        # manifest digest. Resuming against a store whose manifest changed
        # (re-ingest, edited shards) is a typed rejection, not a silently
        # different trajectory. A digest-less side (in-memory lists) cannot
        # be verified and is allowed — parity there is pinned by tests.
        snapshot_digest = stamp.get("corpus_digest")
        if (
            snapshot_digest is not None
            and self.corpus_digest is not None
            and snapshot_digest != self.corpus_digest
        ):
            raise CorpusChangedError(
                f"snapshot was trained on corpus {snapshot_digest[:12]}… but the "
                f"configured shard store is {self.corpus_digest[:12]}… — the corpus "
                "changed under the run; re-ingest or point at the original store"
            )
        model_state = {
            k.split("::", 1)[1]: v for k, v in arrays.items() if k.startswith("model::")
        }
        opt_arrays = {k.split("::", 1)[1]: v for k, v in arrays.items() if k.startswith("opt::")}
        best_state = {k.split("::", 1)[1]: v for k, v in arrays.items() if k.startswith("best::")}
        self.model.load_state_dict(model_state)
        self.optimizer.load_state_dict({"scalars": meta["optimizer"], "arrays": opt_arrays})
        self.schedule.load_state_dict(meta["schedule"])
        self.best_state = {k: v.copy() for k, v in best_state.items()} if meta["has_best"] else None
        self.history = TrainingHistory.from_payload(meta["history"])
        if len(self.history.events) > len(self._recovery_events):
            self._recovery_events = list(self.history.events)
        self.history.events = list(self._recovery_events)
        self._best_dev = float("inf") if meta["best_dev"] is None else float(meta["best_dev"])
        self._epochs_without_improvement = int(meta["epochs_without_improvement"])
        self._retries_used = max(self._retries_used, int(meta["retries_used"]))
        self._step = int(meta["step"])
        self._params_version += 1

        telemetry_state = meta.get("telemetry")
        if telemetry_state and telemetry_state.get("cursor") is not None:
            self.telemetry.restore(telemetry_state)
        self.telemetry.run_marker(
            "resume", step=self._step, epoch=int(meta["epoch"]), phase=str(meta["phase"])
        )
        epoch, steps_done = int(meta["epoch"]), int(meta["steps_done"])
        mid_epoch = meta["phase"] in ("mid_epoch", "interrupt") and steps_done > 0
        self._resume_accum = dict(meta["accum"]) if mid_epoch else None
        if meta["phase"] == "epoch_end":
            return epoch + 1, 0
        return epoch, steps_done if mid_epoch else 0

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    @property
    def _interrupt_signum(self) -> int | None:
        """The latched SIGINT/SIGTERM not yet acted on (settable)."""
        return self._guard.signum

    @_interrupt_signum.setter
    def _interrupt_signum(self, signum: int | None) -> None:
        self._guard.signum = signum

    def _check_interrupt(self, epoch: int, steps_done: int, accum: dict) -> None:
        signum, self._interrupt_signum = self._interrupt_signum, None
        if signum is None:
            return
        self.telemetry.run_marker(
            "interrupt", signum=signum, epoch=epoch, steps_done=steps_done
        )
        path = self._snapshot("interrupt", epoch, steps_done, accum)
        raise TrainingInterrupted(
            f"received signal {signum} at epoch {epoch} after {steps_done} steps; "
            + (f"snapshot written to {path}" if path else "no snapshot directory configured"),
            snapshot_path=path,
        )

    # ------------------------------------------------------------------
    # Divergence recovery (same contract as Trainer)
    # ------------------------------------------------------------------
    def _attempt_recovery(self, exc: TrainingDiverged) -> tuple[dict, dict] | None:
        if self._store is None or self.resilience is None:
            return None
        if self._retries_used >= self.resilience.max_retries:
            return None
        latest = self._store.latest_valid()
        if latest is None:
            return None
        _, meta = latest
        old_lr = float(self.schedule.base_lr)
        new_lr = old_lr * self.resilience.backoff_factor
        event = RecoveryEvent(
            epoch=exc.epoch if exc.epoch is not None else -1,
            batch=exc.batches_done if exc.batches_done is not None else -1,
            reason=str(exc),
            restored_step=int(meta["step"]),
            old_lr=old_lr,
            new_lr=new_lr,
            cause=getattr(exc, "cause", ""),
        )
        self.telemetry.run_marker(
            "recovery",
            cause=event.cause,
            restored_step=event.restored_step,
            old_lr=old_lr,
            new_lr=new_lr,
        )
        self._recovery_events.append(event)
        self._retries_used += 1
        self._pending_backoff = new_lr / float(meta["schedule"]["base_lr"])
        return latest

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def train(self, resume_from: str | os.PathLike | None = None) -> TrainingHistory:
        """Run the full schedule over the pool; returns the history.

        ``resume_from`` restarts bit-exactly from the latest valid elastic
        snapshot in that directory (the global order and RNG streams are
        stateless functions of the run seed, so a resumed run replays the
        identical trajectory).
        """
        resume_state: tuple[dict, dict] | None = None
        if resume_from is not None:
            store = SnapshotStore(
                resume_from,
                keep_last=self.resilience.keep_last if self.resilience else 3,
            )
            if self._store is None:
                self._store = store
            resume_state = store.latest_valid()

        if self.resilience is not None and self.resilience.handle_signals:
            self._guard.install()
        try:
            self._spawn_pool()
            while True:
                try:
                    return self._run(resume_state)
                except TrainingDiverged as exc:
                    recovered = (
                        self._attempt_recovery(exc)
                        if getattr(exc, "allow_recovery", True)
                        else None
                    )
                    if recovered is None:
                        exc.recovery_log = list(self._recovery_events)
                        self.history.events = list(self._recovery_events)
                        raise
                    resume_state = recovered
        finally:
            self._guard.restore()
            self.shutdown()

    def _run(self, resume_state: tuple[dict, dict] | None) -> TrainingHistory:
        config = self.config
        telemetry = self.telemetry
        start_epoch, start_step = 1, 0

        if resume_state is not None:
            start_epoch, start_step = self._restore_state(*resume_state)
        else:
            self.history = TrainingHistory()
            self.history.events = list(self._recovery_events)
            self.best_state = None
            self._step = 0
            self._best_dev = float("inf")
            self._epochs_without_improvement = 0
            telemetry.run_marker(
                "elastic_start",
                epochs=config.epochs,
                workers=self.elastic.workers,
                microbatches_per_step=self.microbatches_per_step,
                lr=float(self.schedule.base_lr),
            )
        telemetry.set_step(self._step)

        if self._pending_backoff is not None:
            self.schedule.base_lr *= self._pending_backoff
            self._pending_backoff = None

        if start_epoch > config.epochs:
            if self.best_state is not None:
                self.model.load_state_dict(self.best_state)
            return self.history

        if resume_state is None and self._store is not None:
            self._snapshot("epoch_start", 1, 0)

        snapshot_every = self.resilience.every_n_batches if self.resilience else 0
        lengths = example_source_lengths(self.examples)
        group = self.microbatches_per_step

        for epoch in range(start_epoch, config.epochs + 1):
            lr = self.schedule.apply(epoch)
            self._params_version += 1  # schedule may have changed nothing, but
            # the epoch boundary is a natural re-broadcast point for restarts
            plan = epoch_batch_plan(
                lengths, self.batch_size, self.run_seed, epoch,
                bucket_multiplier=self.bucket_multiplier,
            )
            steps = [
                list(enumerate(plan))[start: start + group]
                for start in range(0, len(plan), group)
            ]
            resuming_mid_epoch = epoch == start_epoch and start_step > 0
            accum = (
                (self._resume_accum or _zero_accum())
                if resuming_mid_epoch
                else _zero_accum()
            )
            self._resume_accum = None
            epoch_start = time.perf_counter()
            skip = start_step if epoch == start_epoch else 0

            with telemetry.span("epoch", extra={"epoch": epoch}):
                for step_in_epoch, slot_items in enumerate(steps):
                    if step_in_epoch < skip:
                        continue
                    step_start = time.perf_counter()
                    telemetry.set_step(self._step + 1)
                    try:
                        results = self._execute_step(epoch, slot_items)
                    except TrainingDiverged as exc:
                        exc.epoch = epoch
                        exc.batches_done = step_in_epoch
                        raise
                    self._apply_step(results, accum, epoch, step_in_epoch)
                    self._step += 1
                    step_wall = time.perf_counter() - step_start
                    busy = sum(r[3] for r in results.values())
                    world = max(1, len(self._workers.live())) if self.elastic.workers else 1
                    self._workers.emit_gauges(
                        telemetry,
                        "elastic",
                        efficiency=scaling_efficiency(busy, step_wall, world),
                    )
                    telemetry.observe("elastic.step_seconds", step_wall)
                    self._check_interrupt(epoch, step_in_epoch + 1, accum)
                    if snapshot_every and self._step % snapshot_every == 0:
                        self._snapshot("mid_epoch", epoch, step_in_epoch + 1, accum)

                dev_loss = (
                    evaluate_mean_loss(self.model, self.dev_iterator)
                    if self.dev_iterator is not None
                    else None
                )

            record = EpochRecord(
                epoch=epoch,
                train_loss=accum["loss"] / max(1, accum["tokens"]),
                learning_rate=lr,
                grad_norm=accum["norm"] / max(1, accum["batches"]),
                dev_loss=dev_loss,
            )
            self.history.append(record)
            telemetry.gauge("train.lr", lr)
            telemetry.gauge("train.epoch_loss", record.train_loss)
            if dev_loss is not None:
                telemetry.gauge("train.dev_loss", dev_loss)
            telemetry.gauge("train.param_norm", param_norm(self.optimizer.parameters))
            telemetry.throughput(
                "train.tokens", accum["tokens"], time.perf_counter() - epoch_start
            )
            telemetry.flush_histograms()
            if self.epoch_callback:
                self.epoch_callback(record)

            stop = False
            if dev_loss is not None:
                if dev_loss < self._best_dev - 1e-6:
                    self._best_dev = dev_loss
                    self.best_state = self.model.state_dict()
                    self._epochs_without_improvement = 0
                else:
                    self._epochs_without_improvement += 1
                    patience = config.early_stopping_patience
                    if patience is not None and self._epochs_without_improvement >= patience:
                        stop = True

            epoch_end_path = self._snapshot("epoch_end", epoch, 0)
            signum, self._interrupt_signum = self._interrupt_signum, None
            if signum is not None:
                raise TrainingInterrupted(
                    f"received signal {signum} after epoch {epoch}; "
                    + (
                        f"snapshot written to {epoch_end_path}"
                        if epoch_end_path
                        else "no snapshot directory configured"
                    ),
                    snapshot_path=epoch_end_path,
                )
            if stop:
                break

        if self.best_state is not None:
            self.model.load_state_dict(self.best_state)
        telemetry.run_marker(
            "elastic_finish",
            step=self._step,
            epochs_run=len(self.history.records),
            worker_deaths=self.worker_deaths,
            worker_restarts=self.worker_restarts,
            degraded=self._degraded,
        )
        telemetry.flush()
        return self.history

    def _apply_step(
        self, results: dict[int, tuple], accum: dict, epoch: int, step_in_epoch: int
    ) -> None:
        """Reduce one step's contributions in pinned order and step."""
        ordered = sorted(results.items())  # pinned: ascending micro-batch slot
        contributions = [grads for _, (grads, *_rest) in ordered]
        reduced = tree_reduce_gradients(contributions)
        scale = 1.0 / len(contributions)  # numerics: ok — results is never empty
        parameters = self.optimizer.parameters
        for param, grad in zip(parameters, reduced):
            param.grad = grad * scale
        try:
            norm = clip_grad_norm(parameters, self.config.clip_norm, on_nonfinite="raise")
        except NonFiniteGradError as exc:
            diverged = TrainingDiverged(
                f"non-finite reduced gradient norm at step {self._step + 1} ({exc})",
                cause="nonfinite_grad_norm",
            )
            diverged.epoch = epoch
            diverged.batches_done = step_in_epoch
            raise diverged from exc
        self.optimizer.step()
        self.model.zero_grad()
        self._params_version += 1
        # Sum in slot order, not results' insertion (= arrival) order: float
        # addition is not associative, so an arrival-ordered sum would make
        # the reported train loss drift across world sizes.
        loss_sum = sum(value[1] for _, value in ordered)
        tokens = sum(value[2] for _, value in ordered)
        accum["loss"] += loss_sum
        accum["tokens"] += tokens
        accum["norm"] += norm
        accum["batches"] += 1
        mean_loss = loss_sum / max(1, tokens)
        self.telemetry.gauge("train.loss", mean_loss)
        self.telemetry.gauge("train.grad_norm", norm)
        self.telemetry.counter("train.tokens", tokens)
