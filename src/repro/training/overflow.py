"""Overflow-skip training: quarantine non-finite batches instead of dying.

The historical contract was binary: any non-finite loss or gradient raised
:class:`~repro.training.trainer.TrainingDiverged`, and the resilience layer
(if configured) rolled the whole run back to a snapshot with a halved
learning rate. That is the right escalation for a *diverged* run, but it is
a heavyweight response to a *single* pathological batch — one outlier
paragraph can cost a full epoch of replayed work.

This module supplies the graduated response:

- :class:`BatchQuarantined` — the typed control-flow event raised by
  ``Trainer.train_batch`` under ``overflow_policy="skip"``; the epoch loop
  catches it, drops the batch from the epoch averages, and keeps going.
- :class:`OverflowPolicy` — the valid ``overflow_policy`` names shared by
  the trainer and the CLI.

There is no loss scaling: it keeps fp16 gradients from underflowing, the
tape is float64, and scaling a loss cannot make a non-finite batch finite.

Escalation: ``skip`` still raises ``TrainingDiverged`` after
``overflow_max_consecutive`` quarantines in a row — a model that cannot
produce a finite step anymore has diverged, and pretending otherwise just
starves the epoch.
"""

from __future__ import annotations

__all__ = ["OverflowPolicy", "BatchQuarantined"]


class OverflowPolicy:
    """Valid ``overflow_policy`` values for :class:`TrainerConfig`."""

    SKIP = "skip"
    ROLLBACK = "rollback"
    RAISE = "raise"
    ALL = (SKIP, ROLLBACK, RAISE)

    @staticmethod
    def validate(policy: str) -> str:
        if policy not in OverflowPolicy.ALL:
            raise ValueError(
                f"overflow_policy must be one of {OverflowPolicy.ALL}, got {policy!r}"
            )
        return policy


class BatchQuarantined(ArithmeticError):
    """A batch produced a non-finite loss or gradient and was skipped.

    Raised by ``Trainer.train_batch`` under ``overflow_policy="skip"``;
    caught by the epoch loop, which zeroes the half-written gradients,
    bumps the quarantine counters, and continues with the next batch. The
    batch contributes nothing to the epoch averages or the step counter.
    """

    def __init__(self, message: str, cause: str, step: int, value: float | None = None):
        super().__init__(message)
        self.cause = cause
        """Machine-readable reason (``nonfinite_loss``,
        ``nonfinite_grad_norm``, or ``anomaly:<op>``)."""
        self.step = step
        self.value = value
        """The offending scalar (loss value or grad norm) when one exists."""
