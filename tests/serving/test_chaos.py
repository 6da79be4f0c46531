"""The chaos suite: sustained seeded faults against the full serving stack.

Acceptance shape: a fleet of requests through the continuous-batching
engine with every fault type armed at a 10% per-request rate must finish
with zero uncaught exceptions, a served rate >= 90% (any rung counts),
internally consistent accounting, and byte-identical outputs when
repeated with the same seed.
"""

from collections import Counter

from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchingEngine,
    EncoderStateCache,
    EngineConfig,
    FaultPlan,
    GenerationRequest,
    InferenceService,
    ManualClock,
    ServiceConfig,
)

from conftest import DECODER, ENCODER, build_tiny_model, request_texts

NUM_REQUESTS = 120
FAULT_RATE = 0.1


def outcome_rows(outcomes):
    rows = []
    for outcome in outcomes:
        if outcome.result is not None:
            rows.append(
                (outcome.request_id, outcome.status, outcome.result.tokens,
                 outcome.result.rung, outcome.result.attempts)
            )
        else:
            rows.append((outcome.request_id, outcome.status, outcome.error, outcome.reason))
    return rows


def run_continuous_fleet(model, seed: int, with_cache: bool = False):
    clock = ManualClock()
    cache = EncoderStateCache(capacity=32, telemetry=Telemetry([])) if with_cache else None
    service = InferenceService(
        model,
        ENCODER,
        DECODER,
        policy=AdmissionPolicy(max_source_tokens=12),
        config=ServiceConfig(default_deadline_seconds=2.0),
        clock=clock,
        telemetry=Telemetry([]),
        fault_plan=FaultPlan(
            seed=seed,
            per_request=True,
            nan_rate=FAULT_RATE,
            slow_rate=FAULT_RATE,
            error_rate=FAULT_RATE,
            slow_seconds=0.2,
        ),
        encoder_cache=cache,
    )
    engine = ContinuousBatchingEngine(
        service, EngineConfig(max_rows=8, queue_limit=16, admit_per_step=4)
    )
    outcomes = []
    for index, text in enumerate(request_texts(NUM_REQUESTS, seed=555)):
        outcome = engine.submit(
            GenerationRequest(text, request_id=f"req-{index:03d}", beam_size=3, max_length=12)
        )
        if outcome is not None:
            outcomes.append(outcome)
        if (index + 1) % 4 == 0:
            outcomes.extend(engine.step())
        if (index + 1) % 16 == 0:
            outcomes.extend(engine.drain())
    outcomes.extend(engine.drain())
    return outcomes, service, engine


def test_continuous_chaos_fleet_survives_and_accounts():
    outcomes, service, engine = run_continuous_fleet(build_tiny_model(), seed=7)

    # Zero uncaught exceptions: every request returned as a typed outcome,
    # exactly once, and nothing is stuck in the engine.
    assert len(outcomes) == NUM_REQUESTS
    assert sorted(o.request_id for o in outcomes) == sorted(
        f"req-{i:03d}" for i in range(NUM_REQUESTS)
    )
    assert engine.queue_depth == 0 and engine.in_flight == 0

    statuses = Counter(o.status for o in outcomes)
    assert statuses["served"] >= 0.9 * NUM_REQUESTS

    # The plan really injected all three fault kinds into the frontier.
    report = service.report()
    assert all(report["injected"][kind] > 0 for kind in ("nan", "slow", "error"))

    # Per-request fault isolation: poisoned rows went solo, but the
    # frontier kept serving cohabitants — most requests finished in it.
    assert engine.stats.poisoned > 0
    assert engine.stats.served_in_frontier > engine.stats.solo_fallbacks

    stats = service.stats
    assert stats.finished == NUM_REQUESTS
    assert stats.served == statuses["served"]
    assert stats.shed == statuses.get("shed", 0)
    assert stats.failed == statuses.get("failed", 0)
    assert stats.rejected == statuses.get("rejected", 0)
    assert sum(stats.served_by_rung.values()) == stats.served
    assert sum(stats.shed_by_reason.values()) == stats.shed


def test_continuous_chaos_fleet_is_byte_deterministic():
    model = build_tiny_model()
    first_outcomes, first_service, _ = run_continuous_fleet(model, seed=7)
    second_outcomes, second_service, _ = run_continuous_fleet(model, seed=7)
    assert outcome_rows(first_outcomes) == outcome_rows(second_outcomes)
    assert first_service.report() == second_service.report()


def test_continuous_chaos_fleet_with_cache_is_byte_deterministic():
    """The encoder cache under chaos: repeats are byte-identical, hits
    happen (the fleet reuses sources), and hits change zero output bytes
    relative to the uncached fleet."""
    model = build_tiny_model()
    cached_outcomes, cached_service, _ = run_continuous_fleet(
        model, seed=7, with_cache=True
    )
    repeat_outcomes, _, _ = run_continuous_fleet(model, seed=7, with_cache=True)
    assert outcome_rows(cached_outcomes) == outcome_rows(repeat_outcomes)

    report = cached_service.report()
    assert report["encoder_cache"]["hits"] > 0

    plain_outcomes, _, _ = run_continuous_fleet(model, seed=7, with_cache=False)
    assert outcome_rows(cached_outcomes) == outcome_rows(plain_outcomes)


def test_chaos_different_seed_changes_fault_schedule():
    model = build_tiny_model()
    _, first_service, _ = run_continuous_fleet(model, seed=7)
    _, second_service, _ = run_continuous_fleet(model, seed=8)
    assert (
        first_service.report()["injected"] != second_service.report()["injected"]
        or first_service.report() != second_service.report()
    )
