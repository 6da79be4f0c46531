"""Training harness: trainer, history, checkpoints, fault tolerance."""

from repro.training.bundle import ModelBundle
from repro.training.checkpoint import CheckpointCorrupted, load_checkpoint, save_checkpoint
from repro.training.elastic import (
    ElasticConfig,
    ElasticTrainer,
    WorkerFaultPlan,
    compute_microbatch,
    mask_worker_signals,
)
from repro.training.history import EpochRecord, RecoveryEvent, TrainingHistory
from repro.training.overflow import BatchQuarantined, OverflowPolicy
from repro.training.resilience import ResilienceConfig, SnapshotStore
from repro.training.sharding import (
    ShardPlan,
    derive_rng,
    derive_seed_sequence,
    epoch_batch_plan,
    reseed_model_rngs,
    tree_reduce,
    tree_reduce_gradients,
)
from repro.training.trainer import (
    EmptyEvaluationError,
    Trainer,
    TrainerConfig,
    TrainingDiverged,
    TrainingInterrupted,
    evaluate_mean_loss,
)

__all__ = [
    "ModelBundle",
    "ElasticConfig",
    "ElasticTrainer",
    "WorkerFaultPlan",
    "compute_microbatch",
    "mask_worker_signals",
    "ShardPlan",
    "derive_rng",
    "derive_seed_sequence",
    "epoch_batch_plan",
    "reseed_model_rngs",
    "tree_reduce",
    "tree_reduce_gradients",
    "evaluate_mean_loss",
    "CheckpointCorrupted",
    "load_checkpoint",
    "save_checkpoint",
    "EpochRecord",
    "RecoveryEvent",
    "TrainingHistory",
    "BatchQuarantined",
    "OverflowPolicy",
    "ResilienceConfig",
    "SnapshotStore",
    "EmptyEvaluationError",
    "Trainer",
    "TrainerConfig",
    "TrainingDiverged",
    "TrainingInterrupted",
]
