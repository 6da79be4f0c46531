"""The synchronous-core inference service around the decode engines.

One request's life::

    admit (validate/sanitize)  ->  RejectedRequest on bad input
    breaker gate               ->  BreakerOpen while the engine is sick
    degradation ladder         ->  beam -> beam_1 -> greedy -> greedy_truncated,
                                   falling a rung on deadline pressure or a
                                   retryable decode fault
    retry with backoff         ->  a whole-ladder retryable failure backs off
                                   (jittered, deterministic under the seed)
                                   and retries while budget remains
    result                     ->  GenerationResult with the serving rung,
                                   or RequestFailed carrying the final cause

Poison requests — deterministic failures like an IndexError deep in the
stack — fail fast: no retry, no further rungs. Everything is counted, both
in :class:`ServiceStats` and through the telemetry hub (`serving.*`
counters, latency histogram, breaker transitions), and the whole pipeline
is deterministic given the model seed, the fault plan, and a manual clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import collate
from repro.data.dataset import EncodedExample
from repro.data.tokenizer import detokenize
from repro.data.vocabulary import PAD_ID, Vocabulary
from repro.decoding.hypothesis import Hypothesis, extended_ids_to_tokens
from repro.observability import emit_state_transition, get_telemetry
from repro.serving.breaker import BreakerConfig, CircuitBreaker, RetryPolicy
from repro.serving.cache import (
    CachedEncoderModel,
    EncoderStateCache,
    PaddedEncoderModel,
)
from repro.serving.deadline import Clock, Deadline
from repro.serving.errors import (
    BreakerOpen,
    DeadlineExceeded,
    RejectedRequest,
    RequestFailed,
    is_retryable,
)
from repro.serving.faults import FaultInjectingModel, FaultInjector, FaultPlan
from repro.serving.ladder import Rung, build_ladder, run_rung
from repro.serving.requests import (
    AdmissionPolicy,
    GenerationRequest,
    GenerationResult,
    RequestValidator,
)

__all__ = ["ServiceConfig", "ServiceStats", "RequestOutcome", "InferenceService"]


@dataclass(frozen=True)
class ServiceConfig:
    default_deadline_seconds: float = 5.0
    length_penalty: float = 1.0
    truncated_length: int = 8
    """Length cap of the ladder's guaranteed-terminating bottom rung."""
    seed: int = 0
    """Seed of the backoff-jitter RNG (byte-determinism under chaos)."""


@dataclass
class ServiceStats:
    """The service's own ledger; mirrored into telemetry counters."""

    admitted: int = 0
    served: int = 0
    rejected: int = 0
    shed: int = 0
    failed: int = 0
    retries: int = 0
    rung_fallbacks: int = 0
    duplicate_results: int = 0
    """Same-id completions dropped by the idempotency guard (re-dispatch)."""
    served_by_rung: dict[str, int] = field(default_factory=dict)
    rejected_by_reason: dict[str, int] = field(default_factory=dict)
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    _served_ids: set[str] = field(default_factory=set, repr=False)

    def bump(self, table: dict[str, int], key: str) -> None:
        table[key] = table.get(key, 0) + 1

    def note_first_completion(self, request_id: str) -> bool:
        """Whether ``request_id`` completes for the first time.

        The idempotency guard behind exactly-once accounting: a request
        re-dispatched after a worker death can resolve twice, and only the
        first completion may count as served. Anonymous requests (empty
        id) carry no identity and are never deduplicated.
        """
        if not request_id:
            return True
        if request_id in self._served_ids:
            return False
        self._served_ids.add(request_id)
        return True

    @property
    def finished(self) -> int:
        return self.served + self.rejected + self.shed + self.failed

    def as_dict(self) -> dict:
        return {
            "admitted": self.admitted,
            "served": self.served,
            "rejected": self.rejected,
            "shed": self.shed,
            "failed": self.failed,
            "retries": self.retries,
            "rung_fallbacks": self.rung_fallbacks,
            "duplicate_results": self.duplicate_results,
            "served_by_rung": dict(sorted(self.served_by_rung.items())),
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
        }


@dataclass(frozen=True)
class RequestOutcome:
    """One request's disposition, for callers that must never raise."""

    request_id: str
    status: str
    """``served`` | ``rejected`` | ``shed`` | ``failed``"""
    result: GenerationResult | None = None
    error: str | None = None
    """Error class name for non-served outcomes."""
    reason: str | None = None
    """Rejection/shed reason code when applicable."""
    fingerprint: str | None = None
    """Weight fingerprint the response was produced under (pool serving):
    attributes every outcome to exactly one weight generation across hot
    reloads. ``None`` outside the pool path."""


class InferenceService:
    """Validation, deadlines, degradation, breaker and retries in one place.

    Parameters
    ----------
    model:
        Any :class:`~repro.models.base.QuestionGenerator`.
    encoder_vocab, decoder_vocab:
        The vocabulary pair the model was trained against.
    fault_plan:
        Optional chaos configuration; when active the model is wrapped in
        the :mod:`repro.serving.faults` seam.
    clock:
        Injectable time source shared by deadlines, the breaker cooldown,
        backoff sleeps and fault stalls; pass a
        :class:`~repro.serving.deadline.ManualClock` for determinism.
    telemetry:
        A telemetry hub; defaults to the ambient hub.
    encoder_cache:
        Optional :class:`~repro.serving.cache.EncoderStateCache`. The model
        is wrapped so single-example encodes hit the cache; the fault seam
        wraps *outside* the cache, so injected encode faults still fire on
        cache hits (a hit does not launder away the chaos).

    Every single-example encode through :attr:`model` returns a context
    padded to ``policy.max_source_tokens``, the service's one decode
    width: the encoder runs at the source's natural width, and the
    frontier and every solo-ladder rung decode at the same width.
    """

    def __init__(
        self,
        model,
        encoder_vocab: Vocabulary,
        decoder_vocab: Vocabulary,
        policy: AdmissionPolicy | None = None,
        config: ServiceConfig | None = None,
        breaker: CircuitBreaker | None = None,
        breaker_config: BreakerConfig | None = None,
        retry: RetryPolicy | None = None,
        clock: Clock | None = None,
        telemetry=None,
        fault_plan: FaultPlan | None = None,
        encoder_cache: EncoderStateCache | None = None,
    ) -> None:
        self.clock = clock if clock is not None else Clock()
        self.config = config if config is not None else ServiceConfig()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.decoder_vocab = decoder_vocab
        self.validator = RequestValidator(encoder_vocab, decoder_vocab, policy)
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            breaker_config, clock=self.clock, on_transition=self._breaker_transition
        )
        self.stats = ServiceStats()
        self._jitter_rng = np.random.default_rng(self.config.seed)
        self.encoder_cache = encoder_cache
        if encoder_cache is not None:
            model = CachedEncoderModel(model, encoder_cache)
        model = PaddedEncoderModel(model, self.validator.policy.max_source_tokens)
        self.injector: FaultInjector | None = None
        if fault_plan is not None and fault_plan.active:
            self.injector = FaultInjector(fault_plan, clock=self.clock)
            model = FaultInjectingModel(model, self.injector)
        self.model = model

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _breaker_transition(self, old: str, new: str) -> None:
        emit_state_transition(
            self.telemetry,
            "serving.breaker",
            old,
            new,
            failure_rate=round(self.breaker.failure_rate(), 3),
        )

    def _note_rejected(self, rejection: RejectedRequest) -> None:
        self.stats.rejected += 1
        self.stats.bump(self.stats.rejected_by_reason, rejection.reason)
        self.telemetry.counter("serving.rejected")
        self.telemetry.counter(f"serving.rejected.{rejection.reason}")

    def note_shed(self, reason: str) -> None:
        self.stats.shed += 1
        self.stats.bump(self.stats.shed_by_reason, reason)
        self.telemetry.counter("serving.shed")
        self.telemetry.counter(f"serving.shed.{reason}")

    def _note_served(self, result: GenerationResult) -> bool:
        """Count one completion; ``False`` when it is a duplicate."""
        if not self.stats.note_first_completion(result.request_id):
            self.stats.duplicate_results += 1
            self.telemetry.counter("serving.duplicate_result")
            return False
        self.stats.served += 1
        self.stats.bump(self.stats.served_by_rung, result.rung)
        self.telemetry.counter("serving.served")
        self.telemetry.counter(f"serving.rung.{result.rung}")
        self.telemetry.observe("serving.latency_seconds", result.latency_seconds)
        return True

    def _note_failed(self) -> None:
        self.stats.failed += 1
        self.telemetry.counter("serving.failed")

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, request: GenerationRequest) -> EncodedExample:
        """Validate one request, with counting; raises RejectedRequest."""
        try:
            encoded = self.validator.admit(request)
        except RejectedRequest as rejection:
            self._note_rejected(rejection)
            raise
        self.stats.admitted += 1
        self.telemetry.counter("serving.admitted")
        return encoded

    def start_deadline(self, request: GenerationRequest) -> Deadline:
        budget = request.deadline_seconds
        if budget is None:
            budget = self.config.default_deadline_seconds
        return Deadline(budget, self.clock)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def handle(self, request: GenerationRequest) -> GenerationResult:
        """Serve one request; raises the typed serving errors."""
        encoded = self.admit(request)
        return self.handle_admitted(request, encoded, self.start_deadline(request))

    def handle_admitted(
        self,
        request: GenerationRequest,
        encoded: EncodedExample,
        deadline: Deadline,
    ) -> GenerationResult:
        """The post-admission path (breaker, ladder, retries, accounting)."""
        started = self.clock.now()
        try:
            self.breaker.admit()
        except BreakerOpen:
            self.note_shed("breaker_open")
            raise

        batch = collate([encoded], pad_id=PAD_ID)
        ladder = build_ladder(
            request.beam_size, request.max_length, self.config.truncated_length
        )
        if self.injector is not None:
            self.injector.begin_request()
        last_error: BaseException | None = None
        attempts = 0
        for attempt in range(1, self.retry.max_attempts + 1):
            attempts = attempt
            try:
                hypothesis, rung = self._run_ladder(batch, ladder, deadline)
            except Exception as error:  # noqa: BLE001 - classified below
                self.breaker.record_failure()
                last_error = error
                if not is_retryable(error) or attempt == self.retry.max_attempts:
                    break
                self.stats.retries += 1
                self.telemetry.counter("serving.retries")
                if not deadline.expired():
                    # Past-deadline retries go straight back to the (cheap,
                    # deadline-blind) ladder floor — backing off would only
                    # make the client later.
                    self.clock.sleep(self.retry.delay(attempt, self._jitter_rng))
                continue
            self.breaker.record_success()
            result = self._build_result(
                request, encoded, hypothesis, rung, attempts, started
            )
            self._note_served(result)
            return result

        self._note_failed()
        raise RequestFailed(last_error, attempts)

    def _run_ladder(
        self,
        batch,
        ladder: tuple[Rung, ...],
        deadline: Deadline,
    ) -> tuple[Hypothesis, Rung]:
        """One pass down the rungs; raises the last rung's error if all fail."""
        last_error: BaseException | None = None
        for index, rung in enumerate(ladder):
            is_floor = index == len(ladder) - 1
            if rung.heed_deadline and deadline.expired() and not is_floor:
                # No budget left for a full-cost rung: drop to the floor.
                continue
            try:
                hypotheses = run_rung(
                    rung,
                    self.model,
                    batch,
                    length_penalty=self.config.length_penalty,
                    deadline=deadline,
                    telemetry=self.telemetry,
                )
                return hypotheses[0], rung
            except DeadlineExceeded as error:
                last_error = error
            except Exception as error:  # noqa: BLE001 - classified below
                if not is_retryable(error):
                    raise  # poison: fail fast, no cheaper rung will fix it
                last_error = error
            if not is_floor:
                self.stats.rung_fallbacks += 1
                self.telemetry.counter("serving.rung_fallback")
        assert last_error is not None
        raise last_error

    def _build_result(
        self,
        request: GenerationRequest,
        encoded: EncodedExample,
        hypothesis: Hypothesis,
        rung: Rung,
        attempts: int,
        started: float,
    ) -> GenerationResult:
        tokens = tuple(
            extended_ids_to_tokens(
                hypothesis.token_ids, self.decoder_vocab, encoded.oov_tokens
            )
        )
        log_prob = hypothesis.log_prob
        return GenerationResult(
            request_id=request.request_id,
            question=detokenize(list(tokens)),
            tokens=tokens,
            rung=rung.name,
            attempts=attempts,
            log_prob=log_prob if math.isfinite(log_prob) else float("-inf"),
            latency_seconds=max(0.0, self.clock.now() - started),
        )

    # ------------------------------------------------------------------
    def serve(self, request: GenerationRequest) -> RequestOutcome:
        """Non-raising wrapper: every typed error becomes an outcome row."""
        try:
            encoded = self.admit(request)
        except RejectedRequest as error:
            return RequestOutcome(
                request.request_id, "rejected", error=type(error).__name__,
                reason=error.reason,
            )
        return self.serve_admitted(request, encoded, self.start_deadline(request))

    def serve_admitted(
        self,
        request: GenerationRequest,
        encoded: EncodedExample,
        deadline: Deadline,
    ) -> RequestOutcome:
        """:meth:`handle_admitted` with its typed errors mapped to outcomes."""
        try:
            result = self.handle_admitted(request, encoded, deadline)
        except BreakerOpen as error:
            return RequestOutcome(
                request.request_id, "shed", error=type(error).__name__,
                reason="breaker_open",
            )
        except RequestFailed as error:
            return RequestOutcome(
                request.request_id, "failed",
                error=type(error.cause).__name__ if error.cause else "unknown",
            )
        return RequestOutcome(request.request_id, "served", result=result)

    def report(self) -> dict:
        """Flush latency windows and return the accounting ledger."""
        self.telemetry.flush_histograms()
        payload = self.stats.as_dict()
        payload["breaker_state"] = self.breaker.state
        if self.injector is not None:
            payload["injected"] = dict(self.injector.injected)
        if self.encoder_cache is not None:
            payload["encoder_cache"] = self.encoder_cache.as_dict()
        return payload
