"""Queue-latency fairness: a late arrival is not billed for the batch in flight.

A request that arrives while a long cohort is decoding must not wait for
that cohort to finish. The continuous engine has no batch boundary: the
late arrival is admitted into free rows at the next decode step and
finishes on its own schedule, so its latency is its own work plus one
admission boundary. A fixed-batch frontend would instead charge it the
long cohort's full turnaround; the absolute bounds below fail if that
head-of-line blocking ever comes back.

Time is simulated: a per-boundary stall plan advances a manual clock at
every encode and decode step, so "latency" is deterministic step
accounting, not wall time.
"""

from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchingEngine,
    EngineConfig,
    FaultPlan,
    GenerationRequest,
    InferenceService,
    ManualClock,
    ServiceConfig,
)

from conftest import DECODER, ENCODER, build_tiny_model, request_texts

STEP_SECONDS = 0.1
LONG_LENGTH = 20   # the cohort in flight when the short request arrives
SHORT_LENGTH = 2   # the late arrival: two decode steps of real work


def build_timed_service(clock):
    """Every encode/decode boundary costs STEP_SECONDS of simulated time."""
    return InferenceService(
        build_tiny_model(),
        ENCODER,
        DECODER,
        policy=AdmissionPolicy(max_source_tokens=12),
        config=ServiceConfig(default_deadline_seconds=60.0),
        clock=clock,
        telemetry=Telemetry([]),
        fault_plan=FaultPlan(seed=0, slow_rate=1.0, slow_seconds=STEP_SECONDS),
    )


def make_requests():
    texts = request_texts(5, seed=91)
    long_batch = [
        GenerationRequest(text, request_id=f"long-{index}", beam_size=2,
                          max_length=LONG_LENGTH)
        for index, text in enumerate(texts[:4])
    ]
    short = GenerationRequest(texts[4], request_id="short", beam_size=2,
                              max_length=SHORT_LENGTH)
    return long_batch, short


def test_continuous_engine_bounds_late_arrival_latency():
    """The bound, pinned: the engine admits the late arrival into free rows
    at the next step boundary; its latency is its own work plus a small
    admission delay — independent of the long cohort's total turnaround."""
    clock = ManualClock()
    service = build_timed_service(clock)
    engine = ContinuousBatchingEngine(
        service,
        EngineConfig(max_rows=10, admit_per_step=4),
    )
    long_batch, short = make_requests()

    for request in long_batch:
        assert engine.submit(request) is None
    # One step: the long cohort is admitted and decoding.
    engine.step()
    assert engine.in_flight == 4
    arrived_at = clock.now()

    assert engine.submit(short) is None
    outcomes = []
    steps_until_served = 0
    while not any(o.request_id == "short" for o in outcomes):
        outcomes.extend(engine.step())
        steps_until_served += 1
    short_latency = clock.now() - arrived_at

    # Served in ~SHORT_LENGTH steps plus one admission boundary — while
    # the long cohort is still in flight (no head-of-line blocking).
    assert steps_until_served <= SHORT_LENGTH + 1
    assert engine.in_flight == 4
    # Each merged step costs one stall; admission adds one encode stall.
    assert short_latency <= (SHORT_LENGTH + 2) * STEP_SECONDS
    # And the fairness headline: far below the long batch's turnaround.
    assert short_latency < LONG_LENGTH * STEP_SECONDS / 2

    remaining = engine.drain()
    assert {o.status for o in list(outcomes) + list(remaining)} == {"served"}
