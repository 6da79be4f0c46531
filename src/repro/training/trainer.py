"""The training loop.

Reproduces the paper's optimization recipe: SGD with initial learning rate
1.0 halved at epoch 8, mini-batches (paper: 64), gradient clipping (OpenNMT
default 5.0), dropout 0.3 inside the models, teacher forcing throughout.

With a :class:`~repro.training.resilience.ResilienceConfig`, the loop is
fault tolerant: it snapshots the *full* run state (parameters, optimizer,
schedule, RNG streams, cursors, best-dev tracking, history) every epoch and
optionally every N batches, resumes bit-exactly from the latest valid
snapshot via ``train(resume_from=...)``, and on divergence rolls back to
the last good snapshot with a halved learning rate instead of dying —
until a bounded retry budget is exhausted.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.data.batching import Batch, BatchIterator
from repro.models.base import QuestionGenerator
from repro.nn.embedding import Embedding
from repro.observability import (
    Telemetry,
    TerminalSink,
    emit_gate_statistics,
    get_telemetry,
    nonfinite_sentinel,
    param_norm,
)
from repro.optim import SGD, HalveAtEpoch, NonFiniteGradError, clip_grad_norm
from repro.optim.optimizers import Optimizer
from repro.optim.schedules import Schedule
from repro.runtime.supervisor import DrainGuard
from repro.tensor.anomaly import NumericalAnomaly, detect_anomaly
from repro.tensor.core import no_grad
from repro.training.history import EpochRecord, RecoveryEvent, TrainingHistory
from repro.training.overflow import BatchQuarantined, OverflowPolicy
from repro.training.resilience import (
    ResilienceConfig,
    SnapshotStore,
    capture_module_rng_states,
    capture_rng_state,
    restore_module_rng_states,
    restore_rng_state,
)

__all__ = [
    "TrainerConfig",
    "Trainer",
    "TrainingDiverged",
    "TrainingInterrupted",
    "EmptyEvaluationError",
    "evaluate_mean_loss",
]


class TrainingDiverged(RuntimeError):
    """Raised when the loss or gradients become non-finite.

    SGD at the paper's lr=1.0 can blow up on unlucky seeds/corpora; failing
    loudly with context beats silently optimizing NaNs for ten epochs.
    When divergence recovery was attempted first, :attr:`recovery_log`
    holds the :class:`~repro.training.history.RecoveryEvent` list.
    """

    def __init__(self, message: str, cause: str = "nonfinite") -> None:
        super().__init__(message)
        self.recovery_log: list[RecoveryEvent] = []
        self.epoch: int | None = None
        self.batches_done: int | None = None
        self.cause = cause
        """Machine-readable divergence cause, copied into the
        :class:`~repro.training.history.RecoveryEvent` on rollback."""
        self.allow_recovery = True
        """False under ``overflow_policy="raise"``: the user asked for a
        hard failure, so snapshot rollback must not swallow it."""


class TrainingInterrupted(RuntimeError):
    """SIGINT/SIGTERM arrived; a final graceful snapshot was written first."""

    def __init__(self, message: str, snapshot_path: str | None = None) -> None:
        super().__init__(message)
        self.snapshot_path = snapshot_path


class EmptyEvaluationError(RuntimeError):
    """An evaluation iterator yielded no target tokens.

    Typed (rather than a bare ``ValueError``) so the epoch loop can surface
    it with run context instead of killing a multi-hour run with an opaque
    traceback.
    """


def evaluate_mean_loss(model: QuestionGenerator, iterator: BatchIterator) -> float:
    """Token-weighted mean loss over an iterator (no dropout, no graph).

    Shared by :class:`Trainer` and the elastic coordinator
    (:mod:`repro.training.elastic`), so both runtimes report dev loss from
    the identical code path.
    """
    model.eval()
    total_loss = 0.0
    total_tokens = 0
    with no_grad():
        for batch in iterator:
            tokens = batch.num_target_tokens
            total_loss += model.loss(batch).item() * tokens
            total_tokens += tokens
    if total_tokens == 0:
        raise EmptyEvaluationError("evaluation iterator produced no target tokens")
    return total_loss / total_tokens  # numerics: ok — total_tokens == 0 raises above


@dataclass(frozen=True)
class TrainerConfig:
    """Optimization hyperparameters (paper defaults)."""

    epochs: int = 12
    learning_rate: float = 1.0
    halve_at_epoch: int = 8
    clip_norm: float = 5.0
    early_stopping_patience: int | None = None
    """Stop after this many epochs without dev-loss improvement (None = off)."""
    log_every: int = 0
    """Print a progress line every N batches (0 = silent)."""
    detect_anomaly: bool = False
    """Run forward/backward inside :func:`repro.tensor.detect_anomaly`:
    the first non-finite op output or gradient raises with the full causal
    chain (op name, shapes, creation site). Adds per-op bookkeeping cost —
    meant for debugging a diverging run, not the default loop."""
    overflow_policy: str = OverflowPolicy.ROLLBACK
    """What a non-finite loss/gradient does to the run: ``"skip"``
    quarantines the batch and continues, ``"rollback"`` (default, the
    historical behavior) raises :class:`TrainingDiverged` so the
    resilience layer can restore a snapshot, ``"raise"`` raises without
    attempting recovery even when resilience is configured."""
    overflow_max_consecutive: int = 5
    """Under ``"skip"``: escalate to :class:`TrainingDiverged` after this
    many consecutive quarantined batches — a model that cannot produce a
    finite step anymore has diverged."""

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")
        OverflowPolicy.validate(self.overflow_policy)
        if self.overflow_max_consecutive < 1:
            raise ValueError(
                f"overflow_max_consecutive must be >= 1, got {self.overflow_max_consecutive}"
            )


class Trainer:
    """Drives teacher-forced training of any :class:`QuestionGenerator`.

    Parameters
    ----------
    model:
        The model to train.
    train_iterator:
        Yields training batches each epoch (reshuffled internally).
    dev_iterator:
        Optional; enables per-epoch dev loss, early stopping, and
        best-checkpoint tracking.
    config:
        Optimization settings.
    optimizer, schedule:
        Injectable for ablations; default to the paper's SGD + halve-at-8.
    epoch_callback:
        Optional hook called with each :class:`EpochRecord` (used by the
        experiment harness for logging).
    resilience:
        Optional fault-tolerance settings; enables snapshotting, crash-safe
        resume, and divergence recovery (see
        :mod:`repro.training.resilience`).
    telemetry:
        Event hub for structured run telemetry (loss/grad-norm gauges,
        spans, health sentinels). Defaults to the ambient hub installed by
        :func:`repro.observability.use_telemetry`; when none is installed,
        a terminal-only hub keeps ``log_every`` progress lines visible.
        Snapshots record the telemetry cursor, so a resumed run appends to
        the same trace with no gaps or duplicates.
    """

    def __init__(
        self,
        model: QuestionGenerator,
        train_iterator: BatchIterator,
        dev_iterator: BatchIterator | None = None,
        config: TrainerConfig | None = None,
        optimizer: Optimizer | None = None,
        schedule: Schedule | None = None,
        epoch_callback: Callable[[EpochRecord], None] | None = None,
        resilience: ResilienceConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.model = model
        self.train_iterator = train_iterator
        self.dev_iterator = dev_iterator
        self.config = config or TrainerConfig()
        if telemetry is None:
            telemetry = get_telemetry()
            if not telemetry.enabled:
                # Keep human progress lines working with zero configuration:
                # log events route to the terminal, nothing is persisted.
                telemetry = Telemetry([TerminalSink()])
        self.telemetry = telemetry
        self.optimizer = optimizer or SGD(model.parameters(), lr=self.config.learning_rate)
        self.schedule = schedule or HalveAtEpoch(self.optimizer, self.config.halve_at_epoch)
        self.epoch_callback = epoch_callback
        self.resilience = resilience
        self.overflow_skipped = 0
        """Total batches quarantined under ``overflow_policy="skip"``."""
        self.consecutive_overflows = 0
        """Batches quarantined since the last good step; ``skip`` escalates
        to :class:`TrainingDiverged` at ``overflow_max_consecutive``."""
        self.history = TrainingHistory()
        self.best_state: dict | None = None
        self._embeddings = [m for m in model.modules() if isinstance(m, Embedding)]
        self._store = (
            SnapshotStore(resilience.directory, keep_last=resilience.keep_last)
            if resilience
            else None
        )
        # Run cursors / resumable scalar state.
        self._step = 0
        self._best_dev = float("inf")
        self._epochs_without_improvement = 0
        self._retries_used = 0
        self._recovery_events: list[RecoveryEvent] = []
        self._pending_backoff: float | None = None
        self._finished = False
        self._guard = DrainGuard()
        self._epoch_start_iter_state: dict | None = None
        self._resume_accum: dict | None = None

    # ------------------------------------------------------------------
    def _overflow_failure(
        self, cause: str, message: str, value: float | None = None
    ) -> ArithmeticError | RuntimeError:
        """Build the exception the configured overflow policy calls for."""
        if self.config.overflow_policy == OverflowPolicy.SKIP:
            return BatchQuarantined(message, cause=cause, step=self._step + 1, value=value)
        exc = TrainingDiverged(message, cause=cause)
        exc.allow_recovery = self.config.overflow_policy != OverflowPolicy.RAISE
        return exc

    def train_batch(self, batch: Batch) -> tuple[float, float]:
        """One optimization step; returns (loss, pre-clip gradient norm).

        Raises
        ------
        BatchQuarantined
            Under ``overflow_policy="skip"``, if the loss or gradients are
            NaN/inf (or an anomaly fires): the batch is dropped, nothing
            was applied to the parameters.
        TrainingDiverged
            Under the other policies, for the same conditions.
        """
        telemetry = self.telemetry
        self.model.train()
        anomaly_guard = detect_anomaly() if self.config.detect_anomaly else nullcontext()
        try:
            with anomaly_guard:
                with telemetry.span("forward"):
                    loss = self.model.loss(batch)
                loss_value = loss.item()
                # The sentinel fires *before* the raise, so the trace records
                # the failure (and the resilience rollback can carry its
                # cause) even when recovery later rewrites the run's tail.
                if not nonfinite_sentinel(
                    telemetry, "loss", loss_value, lr=self.optimizer.lr, batch=batch.size
                ):
                    raise self._overflow_failure(
                        "nonfinite_loss",
                        f"non-finite training loss {loss_value} "
                        f"(lr={self.optimizer.lr:g}, batch of {batch.size})",
                        value=loss_value,
                    )
                with telemetry.span("backward"):
                    loss.backward()
        except NumericalAnomaly as exc:
            # detect_anomaly already emitted anomaly.* telemetry; here the
            # culprit op becomes the typed cause so a rollback's
            # RecoveryEvent (or the quarantine marker) names it.
            raise self._overflow_failure(
                f"anomaly:{exc.op}",
                f"numerical anomaly ({exc.kind} in {exc.phase} of op '{exc.op}'): {exc}",
            ) from exc
        for embedding in self._embeddings:
            embedding.zero_padding_grad()
        try:
            norm = clip_grad_norm(
                self.optimizer.parameters, self.config.clip_norm, on_nonfinite="raise"
            )
        except NonFiniteGradError as exc:
            nonfinite_sentinel(telemetry, "grad_norm", exc.norm, lr=self.optimizer.lr)
            raise self._overflow_failure(
                "nonfinite_grad_norm",
                f"non-finite gradient norm (lr={self.optimizer.lr:g}, {exc}); "
                "consider a lower learning rate or tighter clip_norm",
                value=exc.norm,
            ) from exc
        with telemetry.span("optimizer_step"):
            self.optimizer.step()
        self.model.zero_grad()
        self.consecutive_overflows = 0
        return loss_value, norm

    def evaluate_loss(self, iterator: BatchIterator) -> float:
        """Token-weighted mean dev loss (no dropout, no graph)."""
        return evaluate_mean_loss(self.model, iterator)

    # ------------------------------------------------------------------
    # Run-state capture / restore
    # ------------------------------------------------------------------
    def _capture_state(self, phase: str, epoch: int, batch_cursor: int, accum: dict) -> tuple[dict, dict]:
        """Pack the complete run state into (arrays, meta) for a snapshot."""
        optimizer_state = self.optimizer.state_dict()
        arrays = {f"model::{k}": v for k, v in self.model.state_dict().items()}
        arrays.update({f"opt::{k}": v for k, v in optimizer_state["arrays"].items()})
        if self.best_state is not None:
            arrays.update({f"best::{k}": v for k, v in self.best_state.items()})
        iterator_rng = getattr(self.train_iterator, "_rng", None)
        meta = {
            "phase": phase,
            "epoch": epoch,
            "batch_cursor": batch_cursor,
            "accum": accum,
            "best_dev": None if math.isinf(self._best_dev) else self._best_dev,
            "epochs_without_improvement": self._epochs_without_improvement,
            "retries_used": self._retries_used,
            "finished": self._finished,
            "overflow_skipped": self.overflow_skipped,
            "consecutive_overflows": self.consecutive_overflows,
            "has_best": self.best_state is not None,
            "optimizer": optimizer_state["scalars"],
            "schedule": self.schedule.state_dict(),
            "history": self.history.to_payload(),
            "rng": {
                "iterator": capture_rng_state(iterator_rng) if iterator_rng is not None else None,
                "epoch_start_iterator": self._epoch_start_iter_state,
                "model": capture_module_rng_states(self.model),
            },
            # Where the telemetry stream stood when this snapshot was taken
            # (cursor + open histogram windows): a resume rewinds the trace
            # to this point, so replayed batches overwrite the dead tail
            # instead of duplicating it.
            "telemetry": self.telemetry.state(),
        }
        return arrays, meta

    def _restore_state(self, arrays: dict, meta: dict) -> tuple[int, int]:
        """Restore a snapshot; returns (start_epoch, resume_cursor)."""
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
        self._finished = bool(meta.get("finished", False))
        self.overflow_skipped = int(meta.get("overflow_skipped", 0))
        self.consecutive_overflows = int(meta.get("consecutive_overflows", 0))
        self._step = int(meta["step"])

        telemetry_state = meta.get("telemetry")
        if telemetry_state and telemetry_state.get("cursor") is not None:
            self.telemetry.restore(telemetry_state)
        self.telemetry.run_marker(
            "resume", step=int(meta["step"]), epoch=int(meta["epoch"]), phase=str(meta["phase"])
        )

        rng = meta["rng"]
        restore_module_rng_states(self.model, rng["model"])
        iterator_rng = getattr(self.train_iterator, "_rng", None)
        epoch, cursor = int(meta["epoch"]), int(meta["batch_cursor"])
        mid_epoch = meta["phase"] in ("mid_epoch", "interrupt") and cursor > 0
        if iterator_rng is not None:
            # Mid-epoch: rewind the shuffle RNG to the epoch start so the
            # replayed epoch reproduces the identical batch order; otherwise
            # continue the stream from where the snapshot left it.
            target = rng["epoch_start_iterator"] if mid_epoch else rng["iterator"]
            if target is not None:
                restore_rng_state(iterator_rng, target)
        self._epoch_start_iter_state = rng["epoch_start_iterator"]
        self._resume_accum = dict(meta["accum"]) if mid_epoch else None
        if meta["phase"] == "epoch_end":
            return epoch + 1, 0
        return epoch, cursor if mid_epoch else 0

    def _snapshot(self, phase: str, epoch: int, batch_cursor: int, accum: dict) -> str | None:
        if self._store is None:
            return None
        arrays, meta = self._capture_state(phase, epoch, batch_cursor, accum)
        return self._store.save(self._step, arrays, meta)

    def _snapshot_best(self, epoch: int, dev_loss: float) -> None:
        """Pin the best-dev parameters outside the rotation window."""
        if self._store is None or self.best_state is None:
            return
        arrays = {f"model::{k}": v for k, v in self.best_state.items()}
        self._store.save_pinned(
            "best", arrays, {"epoch": epoch, "dev_loss": dev_loss, "step": self._step}
        )

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _check_interrupt(self, epoch: int, batch_cursor: int, accum: dict) -> None:
        signum, self._guard.signum = self._guard.signum, None
        if signum is None:
            return
        self.telemetry.run_marker("interrupt", signum=signum, epoch=epoch, batch=batch_cursor)
        path = self._snapshot("interrupt", epoch, batch_cursor, accum)
        raise TrainingInterrupted(
            f"received signal {signum} at epoch {epoch} after {batch_cursor} batches; "
            + (f"snapshot written to {path}" if path else "no snapshot directory configured"),
            snapshot_path=path,
        )

    # ------------------------------------------------------------------
    # Overflow quarantine (overflow_policy="skip")
    # ------------------------------------------------------------------
    def _quarantine_batch(self, exc: BatchQuarantined, epoch: int, batch_index: int) -> None:
        """Drop a non-finite batch: zero its gradients, count it, escalate
        to :class:`TrainingDiverged` after too many in a row."""
        self.model.zero_grad()
        self.overflow_skipped += 1
        self.consecutive_overflows += 1
        consecutive = self.consecutive_overflows
        self.telemetry.counter("train.overflow.skipped")
        self.telemetry.run_marker(
            "overflow_quarantine",
            cause=exc.cause,
            epoch=epoch,
            batch=batch_index,
            skipped_total=self.overflow_skipped,
            consecutive=consecutive,
        )
        self.telemetry.log(
            f"[overflow] quarantined batch {batch_index} of epoch {epoch} "
            f"({exc.cause}); {consecutive} consecutive, {self.overflow_skipped} total"
        )
        if consecutive >= self.config.overflow_max_consecutive:
            diverged = TrainingDiverged(
                f"{consecutive} consecutive batches quarantined "
                f"(last cause: {exc.cause}); escalating skip to divergence",
                cause=exc.cause,
            )
            diverged.epoch = epoch
            diverged.batches_done = batch_index - 1
            raise diverged from exc

    # ------------------------------------------------------------------
    # Divergence recovery
    # ------------------------------------------------------------------
    def _attempt_recovery(self, exc: TrainingDiverged) -> tuple[dict, dict] | None:
        """Roll back to the last good snapshot with a reduced lr, or None."""
        if self._store is None or self.resilience is None:
            return None
        if self._retries_used >= self.resilience.max_retries:
            return None
        latest = self._store.latest_valid()
        if latest is None:
            return None
        _, meta = latest
        # The lr actually in use when the run diverged, not the snapshot's:
        # repeated divergence without an intervening snapshot must keep
        # compounding the backoff (1.0 → 0.5 → 0.25 …), so the pending
        # factor is expressed relative to the lr the restore will bring back.
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
    def train(self, resume_from: str | os.PathLike | None = None) -> TrainingHistory:
        """Run the full schedule; returns (and stores) the history.

        If a dev iterator is present, the parameters of the best-dev epoch
        are kept in :attr:`best_state` and restored at the end, so the
        trained model is the early-stopped one.

        Parameters
        ----------
        resume_from:
            Snapshot directory of a previous run. Training restarts
            bit-exactly from the latest *valid* snapshot there (corrupted
            generations are skipped automatically); with no valid snapshot
            the run starts fresh.
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
            # SIGINT/SIGTERM latch into a graceful-snapshot flag.
            self._guard.install()
        try:
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

    # ------------------------------------------------------------------
    def _run(self, resume_state: tuple[dict, dict] | None) -> TrainingHistory:
        config = self.config
        telemetry = self.telemetry
        start_epoch, resume_cursor = 1, 0
        self._epoch_start_iter_state = None
        self._resume_accum = None

        if resume_state is not None:
            start_epoch, resume_cursor = self._restore_state(*resume_state)
        else:
            self.history = TrainingHistory()
            self.history.events = list(self._recovery_events)
            self.best_state = None
            self._step = 0
            self._best_dev = float("inf")
            self._epochs_without_improvement = 0
            self._finished = False
            telemetry.run_marker(
                "train_start",
                epochs=config.epochs,
                lr=float(self.schedule.base_lr),
                batches_per_epoch=len(self.train_iterator),
            )
        telemetry.set_step(self._step)
        if hasattr(self.model, "collect_gate_stats"):
            # Switch-gate (Eq. 2/4) statistics are accumulated by the model
            # only when someone is listening.
            self.model.collect_gate_stats = telemetry.enabled

        if self._pending_backoff is not None:
            self.schedule.base_lr *= self._pending_backoff
            self._pending_backoff = None

        if self._finished or start_epoch > config.epochs:
            if self.best_state is not None:
                self.model.load_state_dict(self.best_state)
            return self.history

        snapshot_every = self.resilience.every_n_batches if self.resilience else 0

        if resume_state is None and self._store is not None:
            # Step-0 snapshot: gives first-epoch divergence a rollback target.
            iterator_rng = getattr(self.train_iterator, "_rng", None)
            self._epoch_start_iter_state = (
                capture_rng_state(iterator_rng) if iterator_rng is not None else None
            )
            self._snapshot("epoch_start", 1, 0, self._zero_accum())

        for epoch in range(start_epoch, config.epochs + 1):
            resuming_mid_epoch = epoch == start_epoch and resume_cursor > 0
            if resuming_mid_epoch:
                accum = self._resume_accum or self._zero_accum()
                skip = resume_cursor
            else:
                accum = self._zero_accum()
                skip = 0
                iterator_rng = getattr(self.train_iterator, "_rng", None)
                self._epoch_start_iter_state = (
                    capture_rng_state(iterator_rng) if iterator_rng is not None else None
                )
            self._resume_accum = None
            lr = self.schedule.apply(epoch)
            epoch_start = time.perf_counter()

            with telemetry.span("epoch", extra={"epoch": epoch}):
                batch_index = 0
                for batch in self.train_iterator:
                    batch_index += 1
                    if batch_index <= skip:
                        continue
                    batch_start = time.perf_counter()
                    telemetry.set_step(self._step + 1)
                    try:
                        loss, norm = self.train_batch(batch)
                    except BatchQuarantined as exc:
                        self._quarantine_batch(exc, epoch, batch_index)
                        continue
                    except TrainingDiverged as exc:
                        exc.epoch = epoch
                        exc.batches_done = batch_index - 1
                        raise
                    accum["loss"] += loss * batch.num_target_tokens
                    accum["tokens"] += batch.num_target_tokens
                    accum["norm"] += norm
                    accum["batches"] += 1
                    self._step += 1
                    telemetry.gauge("train.loss", loss)
                    telemetry.gauge("train.grad_norm", norm)
                    telemetry.counter("train.tokens", batch.num_target_tokens)
                    telemetry.observe(
                        "train.batch_seconds", time.perf_counter() - batch_start
                    )
                    emit_gate_statistics(
                        telemetry, "train.gate", getattr(self.model, "last_gate_stats", None)
                    )
                    if config.log_every and batch_index % config.log_every == 0:
                        telemetry.log(
                            f"epoch {epoch} batch {batch_index}/{len(self.train_iterator)} "
                            f"loss {loss:.4f} lr {lr:g}"
                        )
                    self._check_interrupt(epoch, batch_index, accum)
                    if snapshot_every and self._step % snapshot_every == 0:
                        self._snapshot("mid_epoch", epoch, batch_index, accum)

                try:
                    # `is not None`, not truthiness: an *empty* dev iterator
                    # must reach evaluate_loss and fail loudly, not silently
                    # skip.
                    if self.dev_iterator is not None:
                        with telemetry.span("evaluate"):
                            dev_loss = self.evaluate_loss(self.dev_iterator)
                    else:
                        dev_loss = None
                except EmptyEvaluationError as exc:
                    raise EmptyEvaluationError(
                        f"dev evaluation at epoch {epoch} produced no target tokens "
                        f"({len(self.dev_iterator)} batches in the dev iterator)"
                    ) from exc
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
                    self._snapshot_best(epoch, dev_loss)
                else:
                    self._epochs_without_improvement += 1
                    patience = config.early_stopping_patience
                    if patience is not None and self._epochs_without_improvement >= patience:
                        stop = True

            self._finished = stop or epoch == config.epochs
            epoch_end_path = self._snapshot("epoch_end", epoch, 0, self._zero_accum())
            signum, self._guard.signum = self._guard.signum, None
            if signum is not None:
                # The epoch-end snapshot just written IS the graceful
                # snapshot; writing an "interrupt" one at the same step
                # would shadow it with a mid-epoch-looking cursor.
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
            "train_finish",
            step=self._step,
            epochs_run=len(self.history.records),
            recoveries=len(self._recovery_events),
        )
        telemetry.flush()
        return self.history

    @staticmethod
    def _zero_accum() -> dict:
        return {"loss": 0.0, "tokens": 0, "norm": 0.0, "batches": 0}
