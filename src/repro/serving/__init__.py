"""Hardened inference serving around the ACNN decode path.

``repro.serving`` is the production-shaped layer between raw text traffic
and the decode engines: typed request admission, per-request deadlines
threaded through encode/decode, a degradation ladder (beam → beam-1 →
greedy → truncated-greedy), a circuit breaker with jittered retry/backoff,
a step-level continuous-batching engine (:mod:`repro.serving.engine`)
behind a bounded, load-shedding queue, an LRU encoder-state cache
(:mod:`repro.serving.cache`), a supervised multi-process decode pool
with exactly-once re-dispatch, graceful drain and prepare/commit hot
weight reload (:mod:`repro.serving.pool`), and a deterministic
fault-injection seam for chaos testing. Everything reports through the
:mod:`repro.observability` telemetry hub.

Quick start::

    from repro.serving import ContinuousBatchingEngine, GenerationRequest, InferenceService

    service = InferenceService(model, encoder_vocab, decoder_vocab)
    result = service.handle(GenerationRequest("the tower was built in 1889 ."))
    print(result.question, result.rung)

    engine = ContinuousBatchingEngine(service)  # many requests, one frontier
    engine.submit(GenerationRequest("mira designed the velkin tower .", request_id="r1"))
    for outcome in engine.drain():
        print(outcome.request_id, outcome.status)

See docs/architecture.md, "Serving & graceful degradation".
"""

from repro.serving.breaker import BreakerConfig, CircuitBreaker, RetryPolicy
from repro.serving.cache import (
    CachedEncoderModel,
    CacheStats,
    EncoderStateCache,
    fingerprint_model,
    pad_batch,
    pad_context,
)
from repro.serving.deadline import Clock, Deadline, ManualClock
from repro.serving.errors import (
    BreakerOpen,
    DeadlineExceeded,
    RejectedRequest,
    RequestFailed,
    RequestShed,
    ServingError,
    is_retryable,
)
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig, EngineStats
from repro.serving.faults import (
    FaultInjectingModel,
    FaultInjector,
    FaultPlan,
    InjectedFault,
)
from repro.serving.ladder import RUNG_NAMES, Rung, build_ladder, run_rung
from repro.serving.pool import (
    DrainGuard,
    PoolConfig,
    PoolFaultPlan,
    PoolStats,
    ServingPool,
    WeightReloadError,
)
from repro.serving.requests import (
    AdmissionPolicy,
    GenerationRequest,
    GenerationResult,
    RequestValidator,
)
from repro.serving.service import (
    InferenceService,
    RequestOutcome,
    ServiceConfig,
    ServiceStats,
)

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "RetryPolicy",
    "CachedEncoderModel",
    "CacheStats",
    "EncoderStateCache",
    "fingerprint_model",
    "pad_batch",
    "pad_context",
    "ContinuousBatchingEngine",
    "EngineConfig",
    "EngineStats",
    "Clock",
    "Deadline",
    "ManualClock",
    "BreakerOpen",
    "DeadlineExceeded",
    "RejectedRequest",
    "RequestFailed",
    "RequestShed",
    "ServingError",
    "is_retryable",
    "FaultInjectingModel",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "RUNG_NAMES",
    "Rung",
    "build_ladder",
    "run_rung",
    "DrainGuard",
    "PoolConfig",
    "PoolFaultPlan",
    "PoolStats",
    "ServingPool",
    "WeightReloadError",
    "AdmissionPolicy",
    "GenerationRequest",
    "GenerationResult",
    "RequestValidator",
    "InferenceService",
    "RequestOutcome",
    "ServiceConfig",
    "ServiceStats",
]
