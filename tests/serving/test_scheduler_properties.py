"""Property tests for the continuous-batching scheduler.

Hypothesis drives randomized arrival/length/deadline streams through the
engine and checks the scheduler's structural invariants *after every
step*, not just at the end:

- no request is ever served twice (exactly-once outcomes);
- no frontier row is double-occupied, and occupancy never exceeds the
  configured budget;
- every admitted request terminates as a typed outcome — served,
  rejected, or shed — within a bounded number of steps;
- conservation: ``submitted == settled + queued + in_flight`` at every
  instant, and all submissions are settled after drain;
- cohabitation is byte-inert: any request served inside the frontier
  matches its solo decode bit-for-bit.

The fleet runs the real tiny ACNN (the scheduler schedules real tensor
work, not a stub), so the byte-identity leg is the same comparison the
unit suite pins, here under arbitrary schedules.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.batching import collate
from repro.data.vocabulary import PAD_ID
from repro.decoding.batched_beam import batched_beam_decode
from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchingEngine,
    EngineConfig,
    GenerationRequest,
    ManualClock,
    pad_batch,
)

from conftest import build_service, build_tiny_model, request_texts

PAD_TO = 12
POLICY = AdmissionPolicy(max_source_tokens=PAD_TO)
TEXTS = request_texts(10, seed=773)
MODEL = build_tiny_model()
_SOLO_CACHE: dict[tuple, float] = {}


def solo_log_prob(text: str, beam_size: int, max_length: int) -> float:
    """Reference decode of one request alone, at the engine's pad width."""
    key = (text, beam_size, max_length)
    if key not in _SOLO_CACHE:
        service = build_service(model=MODEL)
        encoded = service.admit(GenerationRequest(text, request_id="solo"))
        batch = pad_batch(collate([encoded], pad_id=PAD_ID), PAD_TO)
        best = batched_beam_decode(
            MODEL, batch, beam_size=beam_size, max_length=max_length,
            telemetry=Telemetry([]),
        )[0]
        _SOLO_CACHE[key] = best.log_prob
    return _SOLO_CACHE[key]


request_strategy = st.builds(
    dict,
    text_index=st.integers(min_value=0, max_value=len(TEXTS) - 1),
    beam_size=st.integers(min_value=1, max_value=3),
    max_length=st.integers(min_value=1, max_value=8),
    deadline_seconds=st.one_of(st.none(), st.sampled_from([0.1, 1.0, 30.0])),
)

schedule_strategy = st.builds(
    dict,
    requests=st.lists(request_strategy, min_size=1, max_size=10),
    max_rows=st.integers(min_value=2, max_value=8),
    queue_limit=st.integers(min_value=1, max_value=8),
    admit_per_step=st.integers(min_value=1, max_value=4),
    steps_between_arrivals=st.lists(
        st.integers(min_value=0, max_value=3), min_size=10, max_size=10
    ),
    clock_advances=st.lists(
        st.sampled_from([0.0, 0.0, 0.05, 0.5]), min_size=10, max_size=10
    ),
)


def check_step_invariants(engine, outcomes):
    # Conservation at every instant.
    settled = len(outcomes) + engine.queue_depth + engine.in_flight
    assert engine.stats.submitted == settled

    # Row budget and disjoint occupancy.
    assert engine.frontier_rows <= engine.config.max_rows
    table = engine.slot_table()
    spans = [set(range(base, base + width)) for _, base, width in table]
    occupied = set()
    for span in spans:
        assert not (span & occupied), "slot rows double-occupied"
        occupied |= span
    if spans:
        assert occupied == set(range(engine.frontier_rows)), "frontier has holes"

    # A request is never simultaneously settled and in flight.
    in_flight_ids = {request_id for request_id, _, _ in table}
    settled_ids = {o.request_id for o in outcomes}
    assert not (in_flight_ids & settled_ids)


@settings(max_examples=20, deadline=None)
@given(schedule=schedule_strategy)
def test_scheduler_invariants_under_random_schedules(schedule):
    clock = ManualClock()
    service = build_service(model=MODEL, clock=clock, policy=POLICY)
    engine = ContinuousBatchingEngine(
        service,
        EngineConfig(
            max_rows=schedule["max_rows"],
            queue_limit=schedule["queue_limit"],
            admit_per_step=schedule["admit_per_step"],
        ),
    )

    requests = [
        GenerationRequest(
            TEXTS[spec["text_index"]],
            request_id=f"req-{index}",
            beam_size=spec["beam_size"],
            max_length=spec["max_length"],
            deadline_seconds=spec["deadline_seconds"],
        )
        for index, spec in enumerate(schedule["requests"])
    ]

    outcomes = []
    for index, request in enumerate(requests):
        outcome = engine.submit(request)
        if outcome is not None:
            outcomes.append(outcome)
        check_step_invariants(engine, outcomes)
        clock.sleep(schedule["clock_advances"][index % 10])
        for _ in range(schedule["steps_between_arrivals"][index % 10]):
            outcomes.extend(engine.step())
            check_step_invariants(engine, outcomes)

    # Termination: the whole fleet settles within a bounded step budget.
    # Every in-flight request finishes within its max_length steps and
    # every queued request is admitted as rows free up, so the bound is
    # generous — hitting it means a scheduling livelock.
    step_budget = 20 * (len(requests) + 1)
    while engine.queue_depth or engine.in_flight:
        outcomes.extend(engine.step())
        check_step_invariants(engine, outcomes)
        step_budget -= 1
        assert step_budget > 0, "scheduler failed to terminate"

    # Exactly-once: every submission settled once, none twice.
    ids = [o.request_id for o in outcomes]
    assert sorted(ids) == sorted(r.request_id for r in requests)
    assert len(set(ids)) == len(ids)

    # Status vocabulary is closed, and the service ledger agrees.
    assert {o.status for o in outcomes} <= {"served", "rejected", "shed", "failed"}
    stats = service.stats
    assert stats.finished == len(outcomes)
    assert stats.served + stats.rejected + stats.shed + stats.failed == stats.finished

    # Byte-inertness: frontier-served requests match their solo decode.
    # (Solo fallbacks — expired deadlines, oversize — legitimately differ:
    # they serve from lower rungs by design.)
    if engine.stats.solo_fallbacks == 0:
        for request, outcome in zip(requests, sorted(outcomes, key=lambda o: o.request_id)):
            if outcome.status != "served":
                continue
            assert outcome.result.log_prob == solo_log_prob(
                request.text, request.beam_size, request.max_length
            )


@settings(max_examples=10, deadline=None)
@given(
    requests=st.lists(request_strategy, min_size=1, max_size=6),
    max_rows=st.integers(min_value=2, max_value=6),
)
def test_random_fleets_are_byte_deterministic(requests, max_rows):
    """Same schedule, same weights -> byte-identical outcome stream."""

    def run():
        engine = ContinuousBatchingEngine(
            build_service(model=MODEL, policy=POLICY),
            EngineConfig(max_rows=max_rows),
        )
        rows = []
        for index, spec in enumerate(requests):
            outcome = engine.submit(
                GenerationRequest(
                    TEXTS[spec["text_index"]],
                    request_id=f"req-{index}",
                    beam_size=spec["beam_size"],
                    max_length=spec["max_length"],
                )
            )
            if outcome is not None:
                rows.append((outcome.request_id, outcome.status, None, None))
        for outcome in engine.drain():
            result = outcome.result
            rows.append(
                (outcome.request_id, outcome.status,
                 result.tokens if result else None,
                 result.log_prob if result else None)
            )
        return rows

    assert run() == run()
