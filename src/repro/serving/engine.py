"""Step-level continuous batching over the flattened beam frontier.

The engine is the single-process serving frontend. It has no batch
boundary (Orca-style iteration-level scheduling): the unit of scheduling
is one *decode step* of a live frontier of ``(sum of beam sizes)`` rows,
so one slow (long, wide-beam) request never head-of-line blocks the
others, and a request that arrives mid-flight takes free rows at the
next step instead of waiting out a batch turnaround. Submissions wait in
one bounded FIFO queue (``EngineConfig.queue_limit``); a submit against a
full queue is shed as ``queue_full`` instead of growing an unbounded
backlog. Between every step the engine

- **retires** finished rows immediately (EOS/stop-rule/max-length), and
  routes deadline-expired rows to the degradation ladder's floor;
- **admits** queued requests into the freed row slots (breaker-gated,
  a bounded number per step);
- runs exactly one batched ``step_log_probs`` over everything in flight.

Requests of different lengths, beam widths and ages cohabit the same
matmul. The per-request decode is byte-identical to a solo run of the
batched beam engine because three invariants hold:

1. every request *decodes* at the same **fixed source width**, the
   service's ``AdmissionPolicy.max_source_tokens`` — the encoder runs
   over the source's real tokens only and the service pads its output
   (:func:`~repro.serving.cache.pad_context`). The fixed width governs
   the attention and copy softmax normalizers: their denominators are
   pairwise sums over a contiguous axis, which group (and so round)
   their terms by the axis length, so that length must not depend on who
   else is in flight, nor on whether the frontier or the solo ladder
   serves the request. The scores and the attention context run over
   the frontier's live source prefix only (up to the last column some
   row does not pad, :func:`~repro.nn.attention.live_width`): each score
   is per position, the context adds positions one slice at a time, and
   a padded position's weight is exactly zero, so the skipped columns
   change no bit;
2. candidate selection runs per request over its **own** extended-vocab
   columns (``V + its oov count``), so a neighbour with more OOV slots
   cannot widen — and thereby perturb — the candidate walk;
3. each slot advances with the one shared beam step,
   :func:`~repro.decoding.batched_beam.advance_beam_row` — the candidate
   walk, finished pool, state-select and next-token arrays and stop rule
   the batched beam engine runs per example — and its recurrent state
   rows are private to it, reordered with one
   :meth:`~repro.models.base.DecoderStepState.select` per step. NaN
   isolation, ``max_length`` retirement and frontier bookkeeping stay in
   the engine.

Fault isolation is per request where physics allows it: NaN rows poison
only the slot that produced them (that request falls back to the solo
ladder; cohabitants keep decoding), while a raised step fault — which
aborts the shared matmul — dumps the whole frontier onto the solo path,
where each request runs its own ladder and retry budget. Either way the
engine itself never raises: every submitted request terminates as exactly
one typed outcome (served, rejected, shed, or failed).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import collate
from repro.data.dataset import EncodedExample
from repro.data.vocabulary import BOS_ID, PAD_ID
from repro.decoding.batched_beam import advance_beam_row, ranked_pool
from repro.decoding.hypothesis import Hypothesis
from repro.models.base import (
    DecoderStepState,
    EncoderContext,
    expand_encoder_context,
)
from repro.observability import nonfinite_sentinel
from repro.serving.deadline import Deadline
from repro.serving.errors import BreakerOpen, RejectedRequest
from repro.serving.ladder import build_ladder
from repro.serving.requests import GenerationRequest
from repro.serving.service import InferenceService, RequestOutcome
from repro.tensor.core import Tensor, no_grad

__all__ = ["EngineConfig", "EngineStats", "ContinuousBatchingEngine"]


@dataclass(frozen=True)
class EngineConfig:
    """Capacity and pacing of the continuous frontier."""

    max_rows: int = 12
    """Frontier row budget; a request occupies ``beam_size`` rows."""
    queue_limit: int = 64
    """Bounded admission queue; submits beyond it are shed."""
    admit_per_step: int = 4
    """Most requests admitted into free slots per decode step."""

    def __post_init__(self) -> None:
        if self.max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {self.max_rows}")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.admit_per_step < 1:
            raise ValueError(f"admit_per_step must be >= 1, got {self.admit_per_step}")


@dataclass
class EngineStats:
    """Engine-side ledger; request dispositions live in ``ServiceStats``."""

    submitted: int = 0
    frontier_admissions: int = 0
    steps: int = 0
    served_in_frontier: int = 0
    expired: int = 0
    poisoned: int = 0
    """Requests whose rows went NaN and were isolated to the solo path."""
    frontier_fallbacks: int = 0
    """Whole-frontier dumps caused by a raised shared-step fault."""
    solo_fallbacks: int = 0
    """Requests routed through the per-request ladder for any reason."""
    oversize: int = 0
    """Requests too wide (``beam_size > max_rows``) for the frontier,
    served solo."""
    duplicate_results: int = 0
    """Frontier completions the service's idempotency guard counted as
    duplicates (a re-dispatched request finishing a second time)."""
    peak_rows: int = 0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "frontier_admissions": self.frontier_admissions,
            "steps": self.steps,
            "served_in_frontier": self.served_in_frontier,
            "expired": self.expired,
            "poisoned": self.poisoned,
            "frontier_fallbacks": self.frontier_fallbacks,
            "solo_fallbacks": self.solo_fallbacks,
            "oversize": self.oversize,
            "duplicate_results": self.duplicate_results,
            "peak_rows": self.peak_rows,
        }


@dataclass
class _Pending:
    request: GenerationRequest
    encoded: EncodedExample
    deadline: Deadline
    submitted_at: float


@dataclass
class _Slot:
    """One in-flight request: ``rows`` contiguous frontier rows."""

    request: GenerationRequest
    encoded: EncodedExample
    deadline: Deadline
    submitted_at: float
    context: EncoderContext
    """Beam-expanded encoder context for this request, padded to the
    service's decode width."""
    max_oov: int
    rows: int
    live: list[Hypothesis]
    finished: list[Hypothesis] = field(default_factory=list)
    steps: int = 0
    prev: np.ndarray = None  # (rows,) previous extended-vocab tokens
    live_lp: np.ndarray = None  # (rows,) live log-probs, -inf at dead slots


def _concat_states(a: DecoderStepState, b: DecoderStepState) -> DecoderStepState:
    """Append ``b``'s rows after ``a``'s (frontier admission)."""
    layers = [
        (
            Tensor(np.concatenate([ha.data, hb.data], axis=0)),
            Tensor(np.concatenate([ca.data, cb.data], axis=0)),
        )
        for (ha, ca), (hb, cb) in zip(a.lstm_states, b.lstm_states)
    ]
    if (a.coverage is None) != (b.coverage is None):
        raise ValueError("cannot merge decoder states with mismatched coverage")
    coverage = (
        np.concatenate([a.coverage, b.coverage], axis=0)
        if a.coverage is not None
        else None
    )
    return DecoderStepState(layers, coverage=coverage)


class ContinuousBatchingEngine:
    """Continuous-batching serving over an :class:`InferenceService`.

    ``submit`` enqueues (returning an outcome only when the request never
    entered the queue), ``step`` advances the frontier by one decode step,
    and ``drain`` steps until nothing is queued or in flight. The core is
    synchronous — tests and the chaos harness decide exactly when a step
    happens.
    """

    def __init__(
        self,
        service: InferenceService,
        config: EngineConfig | None = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else EngineConfig()
        self.stats = EngineStats()
        self._queue: deque[_Pending] = deque()
        self._slots: list[_Slot] = []
        self._state: DecoderStepState | None = None
        self._context: EncoderContext | None = None

    # ------------------------------------------------------------------
    # Introspection (the property-test surface)
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        return len(self._slots)

    @property
    def frontier_rows(self) -> int:
        return sum(slot.rows for slot in self._slots)

    def slot_table(self) -> list[tuple[str, int, int]]:
        """``(request_id, first_row, rows)`` per live slot, frontier order."""
        table = []
        base = 0
        for slot in self._slots:
            table.append((slot.request.request_id, base, slot.rows))
            base += slot.rows
        return table

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: GenerationRequest) -> RequestOutcome | None:
        """Admit into the queue; an outcome is returned only when the
        request never entered it (rejected, or shed on a full queue)."""
        self.stats.submitted += 1
        try:
            encoded = self.service.admit(request)
        except RejectedRequest as error:
            return RequestOutcome(
                request.request_id, "rejected", error=type(error).__name__,
                reason=error.reason,
            )
        if self.queue_depth >= self.config.queue_limit:
            self.service.note_shed("queue_full")
            return RequestOutcome(
                request.request_id, "shed", error="RequestShed", reason="queue_full"
            )
        self._queue.append(
            _Pending(
                request,
                encoded,
                self.service.start_deadline(request),
                self.service.clock.now(),
            )
        )
        self._gauges()
        return None

    # ------------------------------------------------------------------
    # The scheduler loop
    # ------------------------------------------------------------------
    def step(self) -> list[RequestOutcome]:
        """One scheduling round: retire expired, admit, decode one step."""
        outcomes: list[RequestOutcome] = []
        self._retire_expired(outcomes)
        self._admit(outcomes)
        if not self._slots:
            self._gauges()
            return outcomes

        model = self.service.model
        model.eval()
        prev = np.concatenate([slot.prev for slot in self._slots])
        try:
            with no_grad():
                step_lp, new_state = model.step_log_probs(prev, self._state, self._merged())
        except Exception:  # noqa: BLE001 - shared-step fault: solo path decides
            self._dump_frontier(outcomes)
            self._gauges()
            return outcomes

        self.stats.steps += 1
        self.service.telemetry.counter("serving.engine.steps")
        vocab = self.service.model.decoder_vocab_size
        nan_flags = np.isnan(step_lp)
        step_lp[:, PAD_ID] = -np.inf
        step_lp[:, BOS_ID] = -np.inf

        survivors: list[_Slot] = []
        select_parts: list[np.ndarray] = []
        base = 0
        for slot in self._slots:
            rows = slot.rows
            v_ext = vocab + slot.max_oov
            if nan_flags[base: base + rows, :v_ext].any():
                # Poison isolated to this slot: cohabitants keep decoding.
                self.stats.poisoned += 1
                self.service.telemetry.counter("serving.engine.poisoned")
                nonfinite_sentinel(
                    self.service.telemetry, "decode.logits", float("nan"),
                    phase="continuous", beam_step=slot.steps,
                )
                outcomes.append(self._serve_solo(slot.request, slot.encoded, slot.deadline))
                base += rows
                continue
            block = step_lp[base: base + rows, :v_ext]
            width = len(slot.live)
            slot.steps += 1
            advance = advance_beam_row(
                slot.live,
                slot.finished,
                block[:width] + slot.live_lp[:width, None],
                block[:width],
                rows,
                slot.steps,
                slot.request.max_length,
                self.service.config.length_penalty,
            )
            slot.live, slot.prev, slot.live_lp = advance.live, advance.tokens, advance.log_probs
            if advance.stop or slot.steps >= slot.request.max_length:
                outcomes.append(self._finish(slot))
            else:
                survivors.append(slot)
                select_parts.append(base + advance.select)
            base += rows

        changed = len(survivors) != len(self._slots)
        self._slots = survivors
        if survivors:
            self._state = new_state.select(np.concatenate(select_parts))
        else:
            self._state = None
        if changed:
            self._context = None
        self._gauges()
        return outcomes

    def make_room(self) -> list[RequestOutcome]:
        """Step until the queue has room for one more submit.

        For callers that hold their own backlog (an input file, a pool
        coordinator's dispatches): the queue limit then bounds memory, not
        how much work they may hand over without a ``queue_full`` shed.
        """
        outcomes: list[RequestOutcome] = []
        while self.queue_depth >= self.config.queue_limit:
            outcomes.extend(self.step())
        return outcomes

    def drain(self) -> list[RequestOutcome]:
        """Step until nothing is queued or in flight."""
        outcomes: list[RequestOutcome] = []
        while self._queue or self._slots:
            outcomes.extend(self.step())
        return outcomes

    # ------------------------------------------------------------------
    # Scheduling phases
    # ------------------------------------------------------------------
    def _retire_expired(self, outcomes: list[RequestOutcome]) -> None:
        """Expired in-flight rows leave *now*; the ladder floor serves them."""
        if not self._slots:
            return
        survivors: list[_Slot] = []
        keep: list[int] = []
        base = 0
        for slot in self._slots:
            if slot.deadline.expired():
                self.stats.expired += 1
                self.service.telemetry.counter("serving.engine.expired")
                outcomes.append(self._serve_solo(slot.request, slot.encoded, slot.deadline))
            else:
                survivors.append(slot)
                keep.extend(range(base, base + slot.rows))
            base += slot.rows
        if len(survivors) != len(self._slots):
            self._slots = survivors
            self._state = (
                self._state.select(np.asarray(keep, dtype=np.int64)) if survivors else None
            )
            self._context = None

    def _admit(self, outcomes: list[RequestOutcome]) -> None:
        admitted = 0
        while self._queue and admitted < self.config.admit_per_step:
            pending = self._queue[0]
            if pending.deadline.expired():
                # Expired while queued: straight to the deadline-blind floor.
                self._queue.popleft()
                self.stats.expired += 1
                self.service.telemetry.counter("serving.engine.expired")
                outcomes.append(
                    self._serve_solo(pending.request, pending.encoded, pending.deadline)
                )
                continue
            rows_needed = pending.request.beam_size
            if rows_needed > self.config.max_rows:
                # Too wide for the frontier; the solo path still serves it.
                self._queue.popleft()
                self.stats.oversize += 1
                self.service.telemetry.counter("serving.engine.oversize")
                outcomes.append(
                    self._serve_solo(pending.request, pending.encoded, pending.deadline)
                )
                continue
            if self.frontier_rows + rows_needed > self.config.max_rows:
                break  # no free slots this step; head of queue keeps its turn
            try:
                self.service.breaker.admit()
            except BreakerOpen:
                self._queue.popleft()
                self.service.note_shed("breaker_open")
                outcomes.append(
                    RequestOutcome(
                        pending.request.request_id, "shed", error="BreakerOpen",
                        reason="breaker_open",
                    )
                )
                continue
            self._queue.popleft()
            if self.service.injector is not None:
                self.service.injector.begin_request()
            try:
                solo = self._encode(pending.encoded)
            except Exception:  # noqa: BLE001 - encode fault: solo path decides
                outcomes.append(
                    self._serve_solo(pending.request, pending.encoded, pending.deadline)
                )
                continue
            self._install(pending, solo)
            admitted += 1
            self.stats.frontier_admissions += 1
            self.service.telemetry.counter("serving.engine.admitted")
            self.service.telemetry.observe(
                "serving.queue.wait_seconds",
                max(0.0, self.service.clock.now() - pending.submitted_at),
            )

    def _encode(self, encoded: EncodedExample) -> EncoderContext:
        batch = collate([encoded], pad_id=PAD_ID)
        model = self.service.model
        model.eval()
        with no_grad():
            return model.encode(batch)

    def _install(self, pending: _Pending, solo: EncoderContext) -> None:
        beam = pending.request.beam_size
        context = expand_encoder_context(solo, beam)
        state = self.service.model.initial_decoder_state(context)
        prev = np.full(beam, BOS_ID, dtype=np.int64)
        live_lp = np.full(beam, -np.inf)
        live_lp[0] = 0.0
        slot = _Slot(
            request=pending.request,
            encoded=pending.encoded,
            deadline=pending.deadline,
            submitted_at=pending.submitted_at,
            context=context,
            max_oov=solo.max_oov,
            rows=beam,
            live=[Hypothesis((), 0.0)],
            prev=prev,
            live_lp=live_lp,
        )
        self._slots.append(slot)
        self._state = state if self._state is None else _concat_states(self._state, state)
        self._context = None
        self.stats.peak_rows = max(self.stats.peak_rows, self.frontier_rows)

    def _merged(self) -> EncoderContext:
        """The frontier's encoder context; rebuilt on membership change."""
        if self._context is None:
            contexts = [slot.context for slot in self._slots]
            self._context = EncoderContext(
                encoder_states=Tensor(
                    np.concatenate([c.encoder_states.data for c in contexts], axis=0)
                ),
                src_pad_mask=np.concatenate([c.src_pad_mask for c in contexts], axis=0),
                src_ext=np.concatenate([c.src_ext for c in contexts], axis=0),
                max_oov=max(c.max_oov for c in contexts),
                initial_states=[],
            )
        return self._context

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def _finish(self, slot: _Slot) -> RequestOutcome:
        service = self.service
        best = ranked_pool(slot.finished, slot.live, service.config.length_penalty)[0]
        top_rung = build_ladder(
            slot.request.beam_size, slot.request.max_length,
            service.config.truncated_length,
        )[0]
        try:
            result = service._build_result(
                slot.request, slot.encoded, best, top_rung,
                attempts=1, started=slot.submitted_at,
            )
        except Exception as error:  # noqa: BLE001 - per-request poison
            service._note_failed()
            return RequestOutcome(
                slot.request.request_id, "failed", error=type(error).__name__
            )
        service.breaker.record_success()
        if service._note_served(result):
            self.stats.served_in_frontier += 1
        else:
            self.stats.duplicate_results += 1
        return RequestOutcome(slot.request.request_id, "served", result=result)

    def _serve_solo(
        self,
        request: GenerationRequest,
        encoded: EncodedExample,
        deadline: Deadline,
    ) -> RequestOutcome:
        """The per-request fallback: full ladder, retries, own accounting."""
        self.stats.solo_fallbacks += 1
        self.service.telemetry.counter("serving.engine.solo_fallback")
        return self.service.serve_admitted(request, encoded, deadline)

    def _dump_frontier(self, outcomes: list[RequestOutcome]) -> None:
        """A shared-step fault cannot be attributed to one row: everything
        in flight falls back to the solo path (per-request ladder + retry
        budget, which owns the breaker's failure accounting)."""
        self.stats.frontier_fallbacks += 1
        self.service.telemetry.counter("serving.engine.frontier_fallback")
        slots, self._slots, self._state, self._context = self._slots, [], None, None
        for slot in slots:
            outcomes.append(self._serve_solo(slot.request, slot.encoded, slot.deadline))

    def _gauges(self) -> None:
        tel = self.service.telemetry
        tel.gauge("serving.engine.rows", float(self.frontier_rows))
        tel.gauge("serving.engine.queue_depth", float(self.queue_depth))
