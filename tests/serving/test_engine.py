"""Continuous-batching engine: correctness, isolation, and accounting.

The headline guarantee is byte-equivalence: a request decoded inside a
mixed frontier (different lengths, different ages, rows being admitted
and retired around it) produces bit-identical output to the same request
decoded alone. Everything else — deadline retirement, per-slot NaN
isolation, frontier dumps, shedding — is the fault story around that.
"""

import numpy as np
import pytest

from repro.data.batching import collate
from repro.data.vocabulary import PAD_ID
from repro.decoding.batched_beam import batched_beam_decode
from repro.decoding.hypothesis import extended_ids_to_tokens
from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    BreakerConfig,
    CircuitBreaker,
    ContinuousBatchingEngine,
    EngineConfig,
    FaultPlan,
    GenerationRequest,
    ManualClock,
    pad_batch,
)

import conftest
from conftest import build_tiny_model, request_texts

PAD_TO = 12


def build_service(**kwargs):
    """The shared test service, decoding at width ``PAD_TO``."""
    kwargs.setdefault("policy", AdmissionPolicy(max_source_tokens=PAD_TO))
    return conftest.build_service(**kwargs)


def build_engine(service=None, **config):
    if service is None:
        service = build_service()
    return ContinuousBatchingEngine(service, EngineConfig(**config))


def run_requests(engine, requests):
    outcomes = []
    for request in requests:
        outcome = engine.submit(request)
        if outcome is not None:
            outcomes.append(outcome)
    outcomes.extend(engine.drain())
    return outcomes


def solo_decode(model, encoded, beam_size, max_length, width=PAD_TO):
    batch = pad_batch(collate([encoded], pad_id=PAD_ID), width)
    return batched_beam_decode(
        model, batch, beam_size=beam_size, max_length=max_length,
        telemetry=Telemetry([]),
    )[0]


# ----------------------------------------------------------------------
# Byte-equivalence: cohabitation must not change a single bit
# ----------------------------------------------------------------------
def _mixed_fleet():
    return [
        GenerationRequest(
            text, request_id=f"r{i}",
            beam_size=2 + (i % 2),          # beams 2 and 3 cohabit
            max_length=4 + 3 * (i % 3),     # lengths 4, 7, 10 cohabit
        )
        for i, text in enumerate(request_texts(8, seed=17))
    ]


def _long_source_retires_first_fleet():
    """An 11-token source with a 2-token budget shares the frontier with a
    3-token source: when it retires, the frontier's live source prefix
    shrinks from 11 columns to 3 under the short request."""
    return [
        GenerationRequest(
            " ".join(conftest.WORDS[:11]), request_id="long", beam_size=2, max_length=2
        ),
        GenerationRequest(
            " ".join(conftest.WORDS[-3:]), request_id="short", beam_size=3, max_length=10
        ),
    ]


def _assert_frontier_matches_solo_decode(requests):
    """Serve ``requests`` in one frontier; each must decode exactly as it
    would alone at the same padded width."""
    model = build_tiny_model()
    engine = build_engine(build_service(model=model), max_rows=8)
    outcomes = {o.request_id: o for o in run_requests(engine, requests)}
    assert all(o.status == "served" for o in outcomes.values())
    assert engine.stats.solo_fallbacks == 0

    reference = build_service()  # same seed -> same weights
    for request in requests:
        encoded = reference.admit(
            GenerationRequest(request.text, request_id=request.request_id)
        )
        best = solo_decode(
            reference.model, encoded, request.beam_size, request.max_length
        )
        got = outcomes[request.request_id].result
        assert got.tokens == tuple(
            extended_ids_to_tokens(best.token_ids, reference.decoder_vocab, encoded.oov_tokens)
        )
        assert got.log_prob == best.log_prob  # byte-identical, not approximate


def test_mixed_frontier_matches_solo_decode_byte_for_byte():
    """Requests of different lengths and beam widths share the frontier;
    each must decode exactly as it would alone at the same padded width."""
    _assert_frontier_matches_solo_decode(_mixed_fleet())


def test_live_width_shrinking_frontier_matches_solo_decode_byte_for_byte():
    """The frontier's live source prefix shrinks mid-request when a long
    source retires first; the short request still decodes as it would alone."""
    _assert_frontier_matches_solo_decode(_long_source_retires_first_fleet())


def test_frontier_and_solo_ladder_decode_at_one_width():
    """The same request served by the frontier and by ``service.serve`` (the
    solo ladder) on one service gives the same bytes. The pinned input's
    ``log_prob`` moves in its last bit between width 12 and its natural
    width 4, so a solo ladder that decoded at natural width would fail."""
    text = request_texts(1, seed=9)[0]
    service = build_service()
    engine = build_engine(service)
    frontier = run_requests(
        engine, [GenerationRequest(text, request_id="frontier", beam_size=2, max_length=8)]
    )[0]
    solo = service.serve(GenerationRequest(text, request_id="solo", beam_size=2, max_length=8))
    assert engine.stats.served_in_frontier == 1 and engine.stats.solo_fallbacks == 0
    assert frontier.result.rung == solo.result.rung == "beam"
    assert frontier.result.tokens == solo.result.tokens
    assert frontier.result.log_prob == solo.result.log_prob  # byte-identical


def test_repeat_runs_are_byte_identical():
    texts = request_texts(6, seed=23)
    requests = [
        GenerationRequest(t, request_id=f"r{i}", beam_size=2, max_length=6)
        for i, t in enumerate(texts)
    ]

    def run():
        engine = build_engine(max_rows=6)
        return [
            (o.request_id, o.status, o.result.tokens, o.result.log_prob)
            for o in run_requests(engine, requests)
        ]

    assert run() == run()


def test_retired_rows_never_influence_survivors():
    """A short request finishing (and being compacted out) mid-flight must
    not perturb the bytes of the long request still decoding."""
    texts = request_texts(2, seed=29)
    short = GenerationRequest(texts[0], request_id="short", beam_size=2, max_length=2)
    long = GenerationRequest(texts[1], request_id="long", beam_size=2, max_length=10)
    model = build_tiny_model()
    engine = build_engine(build_service(model=model), max_rows=4)
    outcomes = {o.request_id: o for o in run_requests(engine, [short, long])}
    assert engine.stats.peak_rows == 4  # they really cohabited

    reference = build_service()
    encoded = reference.admit(GenerationRequest(long.text, request_id="solo"))
    best = solo_decode(reference.model, encoded, 2, 10)
    assert outcomes["long"].result.log_prob == best.log_prob


# ----------------------------------------------------------------------
# Scheduling: admission, retirement, no head-of-line blocking
# ----------------------------------------------------------------------
def test_new_requests_enter_freed_slots_mid_flight():
    texts = request_texts(4, seed=31)
    engine = build_engine(max_rows=4, admit_per_step=1)
    first = [
        GenerationRequest(t, request_id=f"a{i}", beam_size=2, max_length=3)
        for i, t in enumerate(texts[:2])
    ]
    for request in first:
        assert engine.submit(request) is None
    engine.step()
    assert engine.in_flight == 1  # admit_per_step caps intake
    engine.step()
    assert engine.in_flight == 2

    # Frontier is full: a later request waits queued, then takes the slot
    # freed by the first finisher — without waiting for the *whole* frontier.
    late = GenerationRequest(texts[2], request_id="late", beam_size=2, max_length=3)
    assert engine.submit(late) is None
    outcomes = []
    while not any(o.request_id == "late" for o in outcomes):
        step_outcomes = engine.step()
        outcomes.extend(step_outcomes)
        if any(o.request_id == "late" for o in step_outcomes):
            # late was served while an earlier request could still be in
            # flight — there is no batch boundary to wait behind.
            break
    outcomes.extend(engine.drain())
    assert {o.request_id for o in outcomes} == {"a0", "a1", "late"}
    assert all(o.status == "served" for o in outcomes)


def test_slot_rows_are_disjoint_and_within_budget():
    texts = request_texts(5, seed=37)
    engine = build_engine(max_rows=7)
    for i, text in enumerate(texts):
        engine.submit(
            GenerationRequest(text, request_id=f"r{i}", beam_size=2 + (i % 2),
                              max_length=8)
        )
    done = []
    while engine.queue_depth or engine.in_flight:
        done.extend(engine.step())
        rows = engine.frontier_rows
        assert rows <= engine.config.max_rows
        spans = [
            set(range(base, base + width))
            for _, base, width in engine.slot_table()
        ]
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                assert not (a & b)
        if spans:
            assert set().union(*spans) == set(range(rows))
    assert len(done) == len(texts)


def test_conservation_holds_after_every_step():
    texts = request_texts(10, seed=41)
    engine = build_engine(max_rows=4, queue_limit=3)
    requests = [
        GenerationRequest(t, request_id=f"r{i}", beam_size=2, max_length=6)
        for i, t in enumerate(texts)
    ]
    requests.append(GenerationRequest("", request_id="bad"))  # rejected
    outcomes = []
    for request in requests:
        outcome = engine.submit(request)
        if outcome is not None:
            outcomes.append(outcome)
        settled = len(outcomes) + engine.queue_depth + engine.in_flight
        assert engine.stats.submitted == settled
    while engine.queue_depth or engine.in_flight:
        outcomes.extend(engine.step())
        settled = len(outcomes) + engine.queue_depth + engine.in_flight
        assert engine.stats.submitted == settled
    stats = engine.service.stats
    assert stats.finished == len(outcomes) == engine.stats.submitted
    assert stats.served + stats.rejected + stats.shed + stats.failed == stats.finished


def test_each_request_resolves_exactly_once():
    texts = request_texts(12, seed=43)
    engine = build_engine(max_rows=4, queue_limit=4)
    requests = [
        GenerationRequest(t, request_id=f"r{i}", beam_size=2, max_length=5)
        for i, t in enumerate(texts)
    ]
    outcomes = run_requests(engine, requests)
    ids = [o.request_id for o in outcomes]
    assert sorted(ids) == sorted(r.request_id for r in requests)
    assert len(set(ids)) == len(ids)


# ----------------------------------------------------------------------
# Shedding and gating
# ----------------------------------------------------------------------
def test_full_queue_sheds_typed_outcomes():
    texts = request_texts(6, seed=47)
    engine = build_engine(max_rows=2, queue_limit=2)
    outcomes = []
    for i, text in enumerate(texts):
        outcome = engine.submit(
            GenerationRequest(text, request_id=f"r{i}", beam_size=2, max_length=4)
        )
        if outcome is not None:
            outcomes.append(outcome)
    shed = [o for o in outcomes if o.status == "shed"]
    assert len(shed) == len(texts) - engine.config.queue_limit
    assert all(o.reason == "queue_full" for o in shed)
    assert engine.service.stats.shed_by_reason["queue_full"] == len(shed)
    served = engine.drain()
    assert all(o.status == "served" for o in served)
    assert len(served) + len(shed) == len(texts)
    # Ledger and outcomes agree exactly: a shed request was admitted first.
    stats = engine.service.stats
    assert stats.admitted == len(texts)
    assert stats.served == len(served)
    assert stats.shed_by_reason == {"queue_full": len(shed)}
    assert stats.finished == len(texts)


def test_open_breaker_sheds_at_admission():
    clock = ManualClock()
    breaker = CircuitBreaker(
        BreakerConfig(failure_threshold=0.5, window=4, min_samples=1,
                      cooldown_seconds=60.0),
        clock=clock,
    )
    breaker.record_failure()
    assert breaker.state == "open"
    engine = build_engine(build_service(breaker=breaker, clock=clock))
    outcomes = run_requests(
        engine,
        [GenerationRequest(request_texts(1, seed=3)[0], request_id="r0",
                           beam_size=2, max_length=4)],
    )
    assert [o.status for o in outcomes] == ["shed"]
    assert outcomes[0].reason == "breaker_open"


def test_rejected_requests_never_enter_the_queue():
    engine = build_engine()
    outcome = engine.submit(GenerationRequest("", request_id="bad"))
    assert outcome.status == "rejected"
    assert engine.queue_depth == 0
    assert engine.service.stats.rejected == 1
    assert engine.service.stats.admitted == 0


# ----------------------------------------------------------------------
# Fallback paths
# ----------------------------------------------------------------------
def test_oversize_requests_fall_back_to_solo_and_still_serve():
    engine = build_engine(max_rows=4)
    wide = GenerationRequest(
        request_texts(1, seed=3)[0], request_id="wide", beam_size=6, max_length=4
    )
    outcomes = run_requests(engine, [wide])
    assert [o.status for o in outcomes] == ["served"]
    assert engine.stats.oversize == 1
    assert engine.stats.solo_fallbacks == 1
    assert engine.stats.frontier_admissions == 0


def test_expired_deadline_retires_to_ladder_floor():
    clock = ManualClock()
    service = build_service(clock=clock)
    engine = build_engine(service)
    request = GenerationRequest(
        request_texts(1, seed=3)[0], request_id="r0", beam_size=2, max_length=6,
        deadline_seconds=1.0,
    )
    assert engine.submit(request) is None
    engine.step()
    assert engine.in_flight == 1
    clock.sleep(5.0)  # budget gone mid-decode
    outcomes = engine.drain()
    assert [o.status for o in outcomes] == ["served"]
    assert outcomes[0].result.rung == "greedy_truncated"  # the blind floor
    assert engine.stats.expired == 1
    assert engine.stats.solo_fallbacks == 1


def test_expiry_while_queued_routes_to_floor_without_occupying_rows():
    clock = ManualClock()
    service = build_service(clock=clock)
    engine = build_engine(service, max_rows=2)
    blocker = GenerationRequest(
        request_texts(2, seed=3)[0], request_id="blocker", beam_size=2, max_length=8
    )
    urgent = GenerationRequest(
        request_texts(2, seed=3)[1], request_id="urgent", beam_size=2, max_length=8,
        deadline_seconds=0.5,
    )
    engine.submit(blocker)
    engine.step()
    engine.submit(urgent)   # frontier full: waits queued
    clock.sleep(1.0)        # queue wait consumes the budget
    outcomes = engine.drain()
    by_id = {o.request_id: o for o in outcomes}
    assert by_id["urgent"].status == "served"
    assert by_id["urgent"].result.rung == "greedy_truncated"
    assert by_id["blocker"].result.rung == "beam"


def test_nan_poison_is_isolated_to_its_slot():
    """An injected NaN poisons frontier row 0 — the first slot's rows.
    Only that request falls back; cohabitants keep their frontier decode."""
    texts = request_texts(3, seed=53)
    service = build_service(
        fault_plan=FaultPlan(seed=0, nan_rate=1.0, per_request=True,
                             fault_horizon=2),
    )
    engine = build_engine(service, max_rows=6)
    requests = [
        GenerationRequest(t, request_id=f"r{i}", beam_size=2, max_length=6)
        for i, t in enumerate(texts)
    ]
    outcomes = {o.request_id: o for o in run_requests(engine, requests)}
    assert all(o.status == "served" for o in outcomes.values())
    assert engine.stats.poisoned >= 1
    # The poisoned request went solo; at least one cohabitant finished in
    # the frontier (the fault never touched its rows).
    assert engine.stats.served_in_frontier >= 1
    assert engine.stats.frontier_fallbacks == 0


def test_raised_step_fault_dumps_frontier_to_solo_path():
    from repro.serving import InjectedFault

    class ExplodeOnce:
        """Raise on the first shared step only; the solo retries succeed."""

        def __init__(self, model):
            self._model = model
            self._armed = True

        def __getattr__(self, name):
            return getattr(self._model, name)

        def step_log_probs(self, *args, **kwargs):
            if self._armed:
                self._armed = False
                raise InjectedFault("step", 1)
            return self._model.step_log_probs(*args, **kwargs)

    texts = request_texts(2, seed=59)
    service = build_service()
    service.model = ExplodeOnce(service.model)
    engine = build_engine(service, max_rows=4)
    requests = [
        GenerationRequest(t, request_id=f"r{i}", beam_size=2, max_length=4)
        for i, t in enumerate(texts)
    ]
    outcomes = run_requests(engine, requests)
    assert {o.status for o in outcomes} == {"served"}  # ladder absorbed it
    assert engine.stats.frontier_fallbacks == 1
    assert engine.stats.solo_fallbacks == 2  # the whole frontier went solo
    assert engine.in_flight == 0


def test_drain_terminates_under_sustained_faults():
    texts = request_texts(8, seed=61)
    service = build_service(
        fault_plan=FaultPlan(seed=2, nan_rate=0.3, error_rate=0.3,
                             per_request=True, fault_horizon=4),
    )
    engine = build_engine(service, max_rows=4, queue_limit=8)
    requests = [
        GenerationRequest(t, request_id=f"r{i}", beam_size=2, max_length=5)
        for i, t in enumerate(texts)
    ]
    outcomes = run_requests(engine, requests)
    assert len(outcomes) == len(requests)
    assert engine.queue_depth == 0 and engine.in_flight == 0


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_rows": 0},
        {"queue_limit": 0},
        {"admit_per_step": 0},
    ],
)
def test_engine_config_validates(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


def test_engine_counts_queue_wait_telemetry():
    telemetry_events = []

    class Recorder(Telemetry):
        def observe(self, name, value):
            telemetry_events.append((name, value))
            return super().observe(name, value)

    service = build_service(telemetry=Recorder([]))
    engine = build_engine(service)
    engine.submit(
        GenerationRequest(request_texts(1, seed=3)[0], request_id="r0",
                          beam_size=2, max_length=4)
    )
    engine.drain()
    assert any(name == "serving.queue.wait_seconds" for name, _ in telemetry_events)
