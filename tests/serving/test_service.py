"""The inference service: ladder fallback, retries, poison, determinism."""

import pytest

from repro.data.batching import collate
from repro.data.vocabulary import PAD_ID
from repro.models import ModelConfig, build_model
from repro.models.base import NonFiniteLogits
from repro.serving import (
    FaultPlan,
    GenerationRequest,
    ManualClock,
    RequestFailed,
    RetryPolicy,
    ServiceConfig,
    build_ladder,
    is_retryable,
    run_rung,
)

from conftest import DECODER, ENCODER, build_service, build_tiny_model


class FailFirstN:
    """Proxy model whose encode raises a retryable fault for the first N calls."""

    def __init__(self, model, fail_calls: int):
        self._model = model
        self._remaining = fail_calls

    def __getattr__(self, name):
        return getattr(self._model, name)

    def encode(self, batch):
        if self._remaining > 0:
            self._remaining -= 1
            raise NonFiniteLogits("encode")
        return self._model.encode(batch)


class PoisonModel:
    """Deterministic non-retryable failure (an IndexError deep in the stack)."""

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)

    def encode(self, batch):
        raise IndexError("poison request")


def test_happy_path_serves_at_top_rung():
    service = build_service()
    result = service.handle(GenerationRequest("zorvex was born in karlin .", request_id="a"))
    assert result.rung == "beam"
    assert result.attempts == 1
    assert not result.degraded
    assert service.stats.served == 1
    assert service.stats.served_by_rung == {"beam": 1}


def test_ladder_shape():
    assert [r.name for r in build_ladder(3, 24)] == [
        "beam",
        "beam_1",
        "greedy",
        "greedy_truncated",
    ]
    # beam-1 requests skip the redundant beam rungs.
    assert [r.name for r in build_ladder(1, 24)] == ["greedy", "greedy_truncated"]
    floor = build_ladder(3, 24, truncated_length=8)[-1]
    assert not floor.heed_deadline
    assert floor.max_length == 8


def test_beam_1_and_greedy_rungs_decode_differently():
    """Why the ladder keeps both middle rungs: they are not the same decode.

    Greedy stops at the first argmax EOS. Beam-1 records that EOS as a
    finished hypothesis, keeps extending the best non-EOS continuation and
    then picks by length-normalized score. On this untrained Seq2Seq input
    the longer continuation wins, so greedy's answer is a strict prefix of
    beam-1's. Collapsing the two rungs would change this output."""
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=0)
    service = build_service(model=build_model("seq2seq", config, len(ENCODER), len(DECODER)))
    request = GenerationRequest("glass draxby through tower bridge born", max_length=24)
    batch = collate([service.admit(request)], pad_id=PAD_ID)
    _, beam_1, greedy, _ = build_ladder(3, 24)
    beam_1_ids = run_rung(beam_1, service.model, batch)[0].token_ids
    greedy_ids = run_rung(greedy, service.model, batch)[0].token_ids
    assert len(greedy_ids) < len(beam_1_ids)
    assert beam_1_ids[: len(greedy_ids)] == greedy_ids


def test_deadline_pressure_degrades_to_floor():
    clock = ManualClock()
    # Every encode/step stalls 1s against a 0.5s budget: all deadline-heeding
    # rungs die, the deadline-blind floor still serves.
    service = build_service(
        clock=clock,
        config=ServiceConfig(default_deadline_seconds=0.5),
        fault_plan=FaultPlan(seed=0, slow_rate=1.0, slow_seconds=1.0),
    )
    result = service.handle(GenerationRequest("mira designed the velkin tower ."))
    assert result.rung == "greedy_truncated"
    assert result.degraded
    assert service.stats.rung_fallbacks >= 1
    assert service.stats.served_by_rung == {"greedy_truncated": 1}


def test_retry_after_whole_ladder_failure():
    # The first attempt's whole ladder (4 rungs = 4 encodes) fails with a
    # retryable fault; the second attempt succeeds at the top rung.
    model = FailFirstN(build_tiny_model(), fail_calls=4)
    service = build_service(model=model, retry=RetryPolicy(max_attempts=2, jitter=0.0))
    result = service.handle(GenerationRequest("zorvex was born in karlin ."))
    assert result.rung == "beam"
    assert result.attempts == 2
    assert service.stats.retries == 1
    # The backoff slept on the manual clock.
    assert service.clock.now() > 0


def test_poison_fails_fast_without_retry():
    service = build_service(model=PoisonModel(build_tiny_model()))
    with pytest.raises(RequestFailed) as excinfo:
        service.handle(GenerationRequest("zorvex was born in karlin ."))
    assert excinfo.value.attempts == 1
    assert isinstance(excinfo.value.cause, IndexError)
    assert service.stats.failed == 1
    assert service.stats.retries == 0


def test_retryable_classification():
    assert is_retryable(NonFiniteLogits("step_log_probs", step=3))
    assert not is_retryable(IndexError("boom"))
    assert not is_retryable(ValueError("bad"))


def test_breaker_opens_under_sustained_poison_and_sheds():
    from repro.serving import BreakerConfig, BreakerOpen

    service = build_service(
        model=PoisonModel(build_tiny_model()),
        breaker_config=BreakerConfig(window=10, min_samples=3, failure_threshold=0.5,
                                     cooldown_seconds=60.0),
    )
    for _ in range(3):
        with pytest.raises(RequestFailed):
            service.handle(GenerationRequest("zorvex was born in karlin ."))
    assert service.breaker.state == "open"
    with pytest.raises(BreakerOpen):
        service.handle(GenerationRequest("zorvex was born in karlin ."))
    assert service.stats.shed_by_reason == {"breaker_open": 1}


def test_serve_wraps_every_error_as_outcome():
    service = build_service(model=PoisonModel(build_tiny_model()))
    rejected = service.serve(GenerationRequest(""))
    assert rejected.status == "rejected"
    assert rejected.reason == "empty"
    failed = service.serve(GenerationRequest("zorvex was born in karlin ."))
    assert failed.status == "failed"
    assert failed.error == "IndexError"
    assert service.stats.finished == 2


def test_redispatched_request_is_not_double_counted():
    """The pool may re-dispatch an in-flight request to a survivor while the
    'dead' worker's result is already in the pipe; the same request id then
    resolves twice. The ledger must stay exactly-once: one served, one
    counted duplicate, byte-identical payloads either way."""
    service = build_service()
    request = GenerationRequest("zorvex was born in karlin .", request_id="dup-1")
    encoded = service.admit(request)
    first = service.handle_admitted(request, encoded, service.start_deadline(request))
    second = service.handle_admitted(request, encoded, service.start_deadline(request))
    assert first.tokens == second.tokens
    assert first.rung == second.rung
    assert service.stats.served == 1
    assert service.stats.served_by_rung == {"beam": 1}
    assert service.stats.duplicate_results == 1
    # Anonymous requests share the empty id; they are never deduplicated.
    anonymous = GenerationRequest("mira designed the velkin tower .")
    for _ in range(2):
        encoded = service.admit(anonymous)
        service.handle_admitted(anonymous, encoded, service.start_deadline(anonymous))
    assert service.stats.served == 3


def test_rung_outputs_are_byte_deterministic_under_fixed_seed():
    def run_once():
        service = build_service(
            clock=ManualClock(),
            fault_plan=FaultPlan(seed=11, per_request=True, nan_rate=0.3,
                                 slow_rate=0.3, error_rate=0.3),
        )
        rows = []
        for index in range(12):
            outcome = service.serve(
                GenerationRequest("the quen river flows through belcor .",
                                  request_id=f"r{index}")
            )
            if outcome.result is not None:
                rows.append(
                    (outcome.request_id, outcome.status, outcome.result.tokens,
                     outcome.result.rung, outcome.result.attempts)
                )
            else:
                rows.append((outcome.request_id, outcome.status, outcome.error))
        return rows, service.report()

    first_rows, first_report = run_once()
    second_rows, second_report = run_once()
    assert first_rows == second_rows
    assert first_report == second_report
    # The plan actually injected something, or this test proves nothing.
    assert sum(first_report["injected"].values()) > 0
