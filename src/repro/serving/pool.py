"""Supervised multi-process serving pool with re-dispatch and hot reload.

``acnn serve`` was one decode loop in one process. This module scales it
out the same way :class:`~repro.training.elastic.ElasticTrainer` scaled
training: a coordinator forks N decode workers, each running its own
:class:`~repro.serving.engine.ContinuousBatchingEngine` over the model
weights inherited at fork time (read-only after spawn, so the OS shares
the pages — the same discipline that lets elastic workers share the
shard-store mmap). The coordinator owns admission, the request ledger,
telemetry, and the lifecycle; workers own nothing but a pipe and a
frontier.

Worker supervision (fork, heartbeats, restart with backoff, retirement,
orphan-free shutdown, signals) is :mod:`repro.runtime.supervisor`'s, state
machine included. This module keeps the serving protocol — ``serve`` out,
``result`` back, and the ``reload_*`` handshake — and its recovery policy;
with every rank retired the coordinator decodes inline (degrade, don't
refuse). Three robustness contracts:

- **Exactly-once re-dispatch.** Every admitted request is dispatched to
  exactly one worker. Before a failed worker is killed, results already
  on its pipe are salvaged; its unresolved requests then go back to the
  front of the queue, in submission order, for the survivors. The
  ledger is idempotent by request id: a duplicate result — a stall that
  turned out to be slowness, a race between a worker's last write and its
  death — is counted (``duplicate_results``) and dropped, never served
  twice. Results are byte-identical regardless of which worker serves
  them: decode is a pure function of (weights, request), and the engine's
  fixed-width frontier makes cohabitation inert.
- **Graceful drain.** :class:`~repro.runtime.supervisor.DrainGuard`
  converts SIGTERM/SIGINT into a latch; :meth:`ServingPool.begin_drain`
  stops admission (further submits shed with reason ``draining``),
  in-flight requests finish — or expire through the ordinary deadline
  machinery — and the process exits 0 with no orphans.
- **Hot weight reload.** :meth:`ServingPool.reload_weights` swaps in a new
  checkpoint via a prepare/commit handshake::

        coordinator                     worker (each live rank)
        stage checkpoint, fingerprint
        ── reload_prepare(gen, path) ─▶ stage into a copy, fingerprint
        ◀─ reload_staged(gen, fp) ────  (serving continues on old weights)
        all survivors staged + fingerprints match?
        ── reload_commit(gen) ────────▶ finish in-flight, swap state,
        ◀─ reload_done(gen, fp) ──────  EncoderStateCache.refresh()
        swap coordinator weights, refresh inline cache

  A worker is never mid-request when it swaps (it drains its frontier
  first), so every response is attributable to exactly one fingerprint.
  Any staging failure or fingerprint mismatch aborts the generation on
  every worker and raises the typed :class:`WeightReloadError`; the fleet
  keeps serving the old weights. Workers that die during a reload are
  respawned only after the coordinator commits, so a fresh fork always
  inherits the committed weights.
"""

from __future__ import annotations

import copy
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.data.vocabulary import Vocabulary
from repro.observability import Telemetry, get_telemetry
from repro.runtime.supervisor import (
    DrainGuard,
    Supervisor,
    SupervisorConfig,
    WorkerHandle,
    WorkerLink,
)
from repro.serving.cache import EncoderStateCache, fingerprint_model
from repro.serving.deadline import Clock
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.errors import RejectedRequest, ServingError
from repro.serving.requests import (
    AdmissionPolicy,
    GenerationRequest,
    RequestValidator,
)
from repro.serving.service import InferenceService, RequestOutcome, ServiceConfig
from repro.training.checkpoint import load_checkpoint

__all__ = [
    "PoolConfig",
    "PoolFaultPlan",
    "PoolStats",
    "ServingPool",
    "WeightReloadError",
    "DrainGuard",
]

_GAUGE_INTERVAL = 0.5
"""Least seconds between two ``serving.pool.*`` gauge emissions."""


class WeightReloadError(ServingError):
    """A hot reload could not be committed; the old weights keep serving."""


@dataclass(frozen=True)
class PoolConfig(SupervisorConfig):
    """Shape and supervision policy of the decode worker pool; the
    supervision fields are documented on
    :class:`~repro.runtime.supervisor.SupervisorConfig`.

    Parameters
    ----------
    workers:
        Decode worker processes (at least one). Every worker runs a full
        continuous batching engine; requests are spread over the live
        membership.
    max_in_flight_per_worker:
        Most requests dispatched to one worker before the coordinator
        waits for results (bounds re-dispatch work on a death).
    queue_limit:
        Bounded coordinator queue; submits beyond it are shed.
    reload_timeout:
        Hard ceiling on one prepare/commit handshake before the reload is
        aborted with :class:`WeightReloadError`.
    """

    max_in_flight_per_worker: int = 4
    queue_limit: int = 256
    reload_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        super().__post_init__()
        if self.max_in_flight_per_worker < 1:
            raise ValueError(
                f"max_in_flight_per_worker must be >= 1, "
                f"got {self.max_in_flight_per_worker}"
            )
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.reload_timeout <= 0:
            raise ValueError(f"reload_timeout must be positive, got {self.reload_timeout}")


@dataclass(frozen=True)
class PoolFaultPlan:
    """Deterministic process-level fault seam (chaos testing only).

    Faults key on ``(rank, nth serve command)`` — 1-based, counted by the
    worker itself — and fire in a rank's first incarnation only, exactly
    like :class:`~repro.training.elastic.WorkerFaultPlan`: a restarted
    worker restarts its count, so re-arming the plan would burn the whole
    restart budget on one injected fault.
    """

    kill_on_serve: Mapping[int, int] = field(default_factory=dict)
    """rank → die (``os._exit``) when its Nth serve command arrives."""
    stall_on_serve: Mapping[int, int] = field(default_factory=dict)
    """rank → stop heartbeating and hang on its Nth serve command."""

    def action_for(self, rank: int, nth_serve: int) -> str | None:
        if self.kill_on_serve.get(rank) == nth_serve:
            return "kill"
        if self.stall_on_serve.get(rank) == nth_serve:
            return "stall"
        return None


@dataclass
class PoolStats:
    """The coordinator's ledger; mirrored into ``serving.pool.*`` counters.

    ``served + rejected + shed + failed == submitted`` holds at every
    drain point — exactly-once through deaths, stalls, and re-dispatch.
    """

    submitted: int = 0
    served: int = 0
    rejected: int = 0
    shed: int = 0
    failed: int = 0
    inline_served: int = 0
    """Requests resolved on the coordinator after full pool loss."""
    redispatched: int = 0
    duplicate_results: int = 0
    worker_deaths: int = 0
    worker_restarts: int = 0
    reloads: int = 0
    served_by_worker: dict[str, int] = field(default_factory=dict)
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    rejected_by_reason: dict[str, int] = field(default_factory=dict)

    @property
    def finished(self) -> int:
        return self.served + self.rejected + self.shed + self.failed

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "finished": self.finished,
            "served": self.served,
            "rejected": self.rejected,
            "shed": self.shed,
            "failed": self.failed,
            "inline_served": self.inline_served,
            "redispatched": self.redispatched,
            "duplicate_results": self.duplicate_results,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "reloads": self.reloads,
            "served_by_worker": dict(sorted(self.served_by_worker.items())),
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
        }


def _checkpoint_base(path: str | os.PathLike) -> str:
    """Resolve a reload path to a checkpoint base (``<base>.npz/.json``).

    Accepts a bundle directory (uses its ``model`` checkpoint), an
    explicit ``.npz``/``.json`` file, or a bare base path.
    """
    location = os.fspath(path)
    if os.path.isdir(location):
        return os.path.join(location, "model")
    root, ext = os.path.splitext(location)
    if ext in (".npz", ".json"):
        return root
    return location


def _stage_checkpoint(model, path: str | os.PathLike) -> tuple[dict, str]:
    """Load ``path`` into a throwaway copy of ``model``; never touches it.

    Returns ``(state_dict, fingerprint)`` of the staged weights. Loading
    into a deep copy runs the checkpoint's full validation (digest check,
    shape check against this architecture) without perturbing the live
    weights, so a bad path or a wrong-model checkpoint fails the prepare
    phase instead of corrupting the serving fleet.
    """
    probe = copy.deepcopy(model)
    load_checkpoint(_checkpoint_base(path), probe)
    return probe.state_dict(), fingerprint_model(probe)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _pool_worker_main(
    link: WorkerLink,
    model,
    encoder_vocab: Vocabulary,
    decoder_vocab: Vocabulary,
    policy: AdmissionPolicy | None,
    service_config: ServiceConfig | None,
    engine_config: EngineConfig | None,
    cache_size: int,
) -> None:
    """Decode worker loop: one engine over the fork-inherited weights."""
    cache = (
        EncoderStateCache(cache_size, telemetry=Telemetry([])) if cache_size else None
    )
    service = InferenceService(
        model,
        encoder_vocab,
        decoder_vocab,
        policy=policy,
        config=service_config,
        clock=Clock(),
        telemetry=Telemetry([]),
        encoder_cache=cache,
    )
    engine = ContinuousBatchingEngine(service, engine_config)
    fingerprint = fingerprint_model(model)
    staged: tuple[int, dict, str] | None = None
    commit_generation: int | None = None

    while True:
        # Block only when idle; with work in flight just sweep the pipe.
        busy = bool(engine.in_flight or engine.queue_depth)
        timeout = 0.0 if busy else 0.05
        while link.conn.poll(timeout):
            timeout = 0.0
            message = link.conn.recv()
            kind = message[0]
            if kind == "shutdown":
                return
            if kind == "serve":
                request: GenerationRequest = message[1]
                link.inject()
                for outcome in engine.make_room():
                    link.send("result", outcome, fingerprint)
                immediate = engine.submit(request)
                if immediate is not None:
                    link.send("result", immediate, fingerprint)
            elif kind == "reload_prepare":
                generation, path = message[1], message[2]
                try:
                    state, staged_fp = _stage_checkpoint(model, path)
                    staged = (generation, state, staged_fp)
                    link.send("reload_staged", generation, staged_fp)
                except Exception as error:  # noqa: BLE001 - report, don't die
                    staged = None
                    link.send("reload_failed", generation, repr(error))
            elif kind == "reload_commit":
                commit_generation = message[1]
            elif kind == "reload_abort":
                if staged is not None and staged[0] == message[1]:
                    staged = None
                commit_generation = None
        if engine.in_flight or engine.queue_depth:
            for outcome in engine.step():
                link.send("result", outcome, fingerprint)
        elif (
            commit_generation is not None
            and staged is not None
            and staged[0] == commit_generation
        ):
            # Swap only with an empty frontier: no request ever decodes
            # under a mix of old and new weights.
            model.load_state_dict(staged[1])
            fingerprint = staged[2]
            if cache is not None:
                cache.refresh(model)
            staged = None
            commit_generation = None
            link.send("reload_done", fingerprint)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------
@dataclass
class _RankState:
    """The serving protocol's state for one rank; its process lifecycle is
    on the rank's :class:`~repro.runtime.supervisor.WorkerHandle`."""

    in_flight: dict[str, int] = field(default_factory=dict)
    """request_id → submission sequence currently dispatched to this rank."""
    staged_generation: int | None = None
    staged_fingerprint: str | None = None
    staged_error: str | None = None
    committed: bool = False


@dataclass
class _Ticket:
    request: GenerationRequest
    seq: int


class ServingPool:
    """Coordinator for the multi-process decode pool.

    The API mirrors :class:`~repro.serving.engine.ContinuousBatchingEngine`:
    ``submit`` returns an outcome only when the request never entered the
    pool (rejected, shed), ``pump`` runs one supervision/dispatch pass, and
    ``drain`` pumps until every accepted request has resolved. Call
    :meth:`shutdown` when done (idempotent; never leaves orphans).
    """

    def __init__(
        self,
        model,
        encoder_vocab: Vocabulary,
        decoder_vocab: Vocabulary,
        policy: AdmissionPolicy | None = None,
        service_config: ServiceConfig | None = None,
        engine_config: EngineConfig | None = None,
        config: PoolConfig | None = None,
        telemetry=None,
        cache_size: int = 0,
        fault_plan: PoolFaultPlan | None = None,
    ) -> None:
        self.model = model
        self.encoder_vocab = encoder_vocab
        self.decoder_vocab = decoder_vocab
        self.policy = policy
        self.service_config = service_config
        self.engine_config = engine_config
        self.config = config if config is not None else PoolConfig()
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.cache_size = cache_size
        self.stats = PoolStats()
        self.validator = RequestValidator(encoder_vocab, decoder_vocab, policy)
        self.fingerprint = fingerprint_model(model)
        self._workers = Supervisor(
            self.config,
            _pool_worker_main,
            (model, encoder_vocab, decoder_vocab, policy, service_config,
             engine_config, cache_size),
            fault_plan=fault_plan,
            name="serving-worker",
        )
        self._ranks: dict[int, _RankState] = {}
        self._pending: deque[_Ticket] = deque()
        self._tickets_by_id: dict[str, _Ticket] = {}
        self._resolved: dict[str, str] = {}
        """request_id → fingerprint the response was served under."""
        self._outbox: list[RequestOutcome] = []
        self._seq = 0
        self._rr = 0
        self._draining = False
        self._reloading = False
        self._generation = 0
        self._inline_engine: ContinuousBatchingEngine | None = None
        self._inline_cache: EncoderStateCache | None = None
        self._inline_announced = False
        self._last_gauges = 0.0

    # ------------------------------------------------------------------
    # Pool management
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Fork the workers; idempotent (submit/drain call it lazily)."""
        if self._workers.handles:
            return
        for rank in range(self.config.workers):
            self._ranks[rank] = _RankState()
            self._workers.spawn(self._workers.add(rank))

    def shutdown(self) -> None:
        """Stop and reap every worker; idempotent, never leaves orphans."""
        self._workers.shutdown()
        self._ranks.clear()

    def live_worker_pids(self) -> list[int]:
        """PIDs of workers still running (empty after a clean shutdown)."""
        return self._workers.live_pids()

    # ------------------------------------------------------------------
    # Submission / drain lifecycle
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    @property
    def in_flight(self) -> int:
        return sum(len(state.in_flight) for state in self._ranks.values())

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admission; everything already accepted still resolves."""
        if self._draining:
            return
        self._draining = True
        self.telemetry.run_marker(
            "pool_drain", pending=self.queue_depth, in_flight=self.in_flight
        )

    def submit(self, request: GenerationRequest) -> RequestOutcome | None:
        """Admit into the pool queue; an outcome is returned only when the
        request never entered it (rejected, shed, or draining)."""
        self.start()
        self.stats.submitted += 1
        self.telemetry.counter("serving.pool.submitted")
        if self._draining:
            return self._shed(request, "draining")
        try:
            self.validator.admit(request)  # reject here; the worker re-encodes it
        except RejectedRequest as error:
            self.stats.rejected += 1
            self.stats.rejected_by_reason[error.reason] = (
                self.stats.rejected_by_reason.get(error.reason, 0) + 1
            )
            self.telemetry.counter("serving.pool.rejected")
            self.telemetry.counter(f"serving.pool.rejected.{error.reason}")
            return RequestOutcome(
                request.request_id, "rejected", error=type(error).__name__,
                reason=error.reason,
            )
        if self.queue_depth >= self.config.queue_limit:
            return self._shed(request, "queue_full")
        self._pending.append(_Ticket(request, self._seq))
        self._seq += 1
        return None

    def _shed(self, request: GenerationRequest, reason: str) -> RequestOutcome:
        self.stats.shed += 1
        self.stats.shed_by_reason[reason] = self.stats.shed_by_reason.get(reason, 0) + 1
        self.telemetry.counter("serving.pool.shed")
        self.telemetry.counter(f"serving.pool.shed.{reason}")
        return RequestOutcome(
            request.request_id, "shed", error="RequestShed", reason=reason
        )

    def pump(self) -> list[RequestOutcome]:
        """One pass: supervise, dispatch, collect, dispatch again.

        Pending tickets reach the workers with room before the collection
        waits (up to ``poll_interval``) on their pipes, so a pump blocks
        only when nothing it holds can be dispatched. The second dispatch
        fills the capacity the collected results freed.
        """
        self.start()
        self._supervise()
        self._dispatch()
        self._collect()
        self._dispatch()
        self._gauges()
        outcomes, self._outbox = self._outbox, []
        return outcomes

    def drain(self) -> list[RequestOutcome]:
        """Pump until every accepted request has resolved."""
        outcomes: list[RequestOutcome] = []
        while self._pending or self.in_flight:
            outcomes.extend(self.pump())
        outcomes.extend(self.pump())  # flush results that raced the last pass
        return outcomes

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        for handle, event in self._workers.sweep():
            if event != "restart_due":
                self._fail_worker(handle, event)
            elif not self._reloading:
                # During a reload, respawns wait for the commit: a fork
                # must inherit the committed weights, never a mix.
                self._workers.spawn(handle)
                self.telemetry.run_marker("pool_worker_restarted", rank=handle.rank)

    def _fail_worker(self, handle: WorkerHandle, cause: str) -> None:
        """Salvage readable results, then re-queue what the rank held."""
        self.stats.worker_deaths += 1
        self.telemetry.counter("serving.pool.worker_deaths")
        self.telemetry.run_marker("pool_worker_dead", rank=handle.rank, cause=cause)
        # A worker can die with results already written to the pipe; those
        # are real completions, not re-dispatch work.
        for message in self._workers.pending(handle):
            if message[0] == "result":
                self._record(message[2], message[3], handle.rank)
        backoff = self._workers.fail(handle)
        state = self._ranks[handle.rank]
        unresolved = sorted(
            (seq, request_id)
            for request_id, seq in state.in_flight.items()
            if request_id not in self._resolved
        )
        state.in_flight = {}
        tickets = []
        for _, request_id in unresolved:
            ticket = self._tickets_by_id.pop(request_id, None)
            if ticket is not None:
                tickets.append(ticket)
        if tickets:
            self.stats.redispatched += len(tickets)
            self.telemetry.counter("serving.pool.redispatched", len(tickets))
            # Back to the FRONT of the queue, original submission order.
            self._pending.extendleft(reversed(tickets))
        if backoff is None:
            self.telemetry.run_marker(
                "pool_degraded", survivors=self._workers.survivors()
            )
            return
        self.stats.worker_restarts += 1
        self.telemetry.counter("serving.pool.worker_restarts")

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        if not self._workers.live():
            if self._workers.healing and (self._pending or self.in_flight):
                time.sleep(self.config.poll_interval)
            return
        for handle, message in self._workers.messages():
            self._handle_message(handle, message)

    def _handle_message(self, handle: WorkerHandle, message) -> None:
        kind = message[0]
        state = self._ranks[handle.rank]
        if kind == "result":
            _, rank, outcome, fingerprint = message
            state.in_flight.pop(outcome.request_id, None)
            self._record(outcome, fingerprint, rank)
        elif kind == "reload_staged":
            state.staged_generation = message[2]
            state.staged_fingerprint = message[3]
        elif kind == "reload_failed":
            state.staged_generation = message[2]
            state.staged_fingerprint = None
            state.staged_error = message[3]
        elif kind == "reload_done":
            state.committed = True
        elif kind == "error":
            self.telemetry.log(
                f"[serving.pool] worker {handle.rank} raised:\n{message[2]}"
            )
            self._fail_worker(handle, "exception")

    def _record(self, outcome: RequestOutcome, fingerprint: str, rank: int) -> None:
        """Exactly-once resolution, idempotent by request id."""
        request_id = outcome.request_id
        if request_id in self._resolved:
            self.stats.duplicate_results += 1
            self.telemetry.counter("serving.pool.duplicate_result")
            return
        self._resolved[request_id] = fingerprint
        self._tickets_by_id.pop(request_id, None)
        # Stamp the weight generation onto the outcome: every response is
        # attributable to exactly one fingerprint, never a mix.
        self._outbox.append(replace(outcome, fingerprint=fingerprint))
        label = "inline" if rank < 0 else f"worker{rank}"
        if outcome.status == "served":
            self.stats.served += 1
            self.stats.served_by_worker[label] = (
                self.stats.served_by_worker.get(label, 0) + 1
            )
            self.telemetry.counter("serving.pool.served")
        elif outcome.status == "rejected":
            self.stats.rejected += 1
            reason = outcome.reason or "unknown"
            self.stats.rejected_by_reason[reason] = (
                self.stats.rejected_by_reason.get(reason, 0) + 1
            )
            self.telemetry.counter("serving.pool.rejected")
        elif outcome.status == "shed":
            self.stats.shed += 1
            reason = outcome.reason or "unknown"
            self.stats.shed_by_reason[reason] = (
                self.stats.shed_by_reason.get(reason, 0) + 1
            )
            self.telemetry.counter("serving.pool.shed")
        else:
            self.stats.failed += 1
            self.telemetry.counter("serving.pool.failed")

    def result_fingerprint(self, request_id: str) -> str | None:
        """The weight fingerprint a resolved request was served under."""
        return self._resolved.get(request_id)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        if not self._pending:
            return
        if self._reloading:
            return  # requests wait out the handshake; nothing is lost
        live = self._workers.live()
        if not live:
            if self._workers.healing:
                return  # restarts are due shortly; the pool will heal
            self._serve_inline()
            return
        capacity = self.config.max_in_flight_per_worker
        candidates = [h for h in live if len(self._ranks[h.rank].in_flight) < capacity]
        while self._pending and candidates:
            handle = candidates[self._rr % len(candidates)]
            in_flight = self._ranks[handle.rank].in_flight
            ticket = self._pending.popleft()
            if not self._workers.send(handle, ("serve", ticket.request)):
                self._pending.appendleft(ticket)
                return  # reaped next supervision pass, then re-dispatched
            in_flight[ticket.request.request_id] = ticket.seq
            self._tickets_by_id[ticket.request.request_id] = ticket
            self._rr += 1
            if len(in_flight) >= capacity:
                candidates = [h for h in candidates if h is not handle]

    def _serve_inline(self) -> None:
        """Degrade, don't refuse: the coordinator decodes the backlog."""
        if not self._inline_announced:
            self._inline_announced = True
            self.telemetry.run_marker("pool_inline_fallback")
            self.telemetry.log(
                "[serving.pool] no live workers remain; decoding inline"
            )
        engine = self._inline()
        tickets, self._pending = list(self._pending), deque()
        for ticket in tickets:
            for outcome in engine.make_room():
                self._note_inline(outcome)
            immediate = engine.submit(ticket.request)
            if immediate is not None:
                self._note_inline(immediate)
        for outcome in engine.drain():
            self._note_inline(outcome)

    def _note_inline(self, outcome: RequestOutcome) -> None:
        self.stats.inline_served += 1
        self.telemetry.counter("serving.pool.inline")
        self._record(outcome, self.fingerprint, rank=-1)

    def _inline(self) -> ContinuousBatchingEngine:
        if self._inline_engine is None:
            self._inline_cache = (
                EncoderStateCache(self.cache_size, telemetry=self.telemetry)
                if self.cache_size
                else None
            )
            service = InferenceService(
                self.model,
                self.encoder_vocab,
                self.decoder_vocab,
                policy=self.policy,
                config=self.service_config,
                clock=Clock(),
                telemetry=self.telemetry,
                encoder_cache=self._inline_cache,
            )
            self._inline_engine = ContinuousBatchingEngine(service, self.engine_config)
        return self._inline_engine

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload_weights(self, path: str | os.PathLike) -> str:
        """Prepare/commit a checkpoint swap across the fleet; returns the
        new fingerprint. Raises :class:`WeightReloadError` (and keeps the
        old weights serving everywhere) when any survivor cannot stage the
        checkpoint or stages different bytes."""
        self.start()
        try:
            staged_state, new_fp = _stage_checkpoint(self.model, path)
        except Exception as error:
            raise WeightReloadError(
                f"cannot stage checkpoint {os.fspath(path)!r}: {error}"
            ) from error
        generation = self._generation + 1
        deadline = time.monotonic() + self.config.reload_timeout
        self._reloading = True
        try:
            for handle in self._begin_phase():
                self._workers.send(handle, ("reload_prepare", generation, path))
            self._await_phase(
                generation, deadline,
                lambda state: state.staged_generation == generation,
            )
            survivors = [
                h for h in self._workers.live()
                if self._ranks[h.rank].staged_generation == generation
            ]
            mismatched = [
                (h.rank, self._ranks[h.rank]) for h in survivors
                if self._ranks[h.rank].staged_fingerprint != new_fp
            ]
            if mismatched:
                details = "; ".join(
                    f"rank {rank}: "
                    + (
                        state.staged_error
                        or f"fingerprint {str(state.staged_fingerprint)[:12]}…"
                    )
                    for rank, state in mismatched
                )
                for handle in survivors:
                    self._workers.send(handle, ("reload_abort", generation))
                raise WeightReloadError(
                    f"reload aborted, old weights keep serving — staging "
                    f"diverged from coordinator fingerprint {new_fp[:12]}…: {details}"
                )
            for handle in survivors:
                self._ranks[handle.rank].committed = False
                self._workers.send(handle, ("reload_commit", generation))
            self._await_phase(generation, deadline, lambda state: state.committed)
            # Every surviving worker swapped; now the coordinator (and any
            # worker forked from it later) follows.
            self.model.load_state_dict(staged_state)
            self.fingerprint = new_fp
            if self._inline_cache is not None:
                self._inline_cache.refresh(self.model)
            self._generation = generation
            self.stats.reloads += 1
            self.telemetry.counter("serving.pool.reloads")
            self.telemetry.run_marker(
                "pool_reload", generation=generation, fingerprint=new_fp[:16]
            )
            return new_fp
        finally:
            self._reloading = False

    def _begin_phase(self) -> list[WorkerHandle]:
        targets = self._workers.live()
        for handle in targets:
            state = self._ranks[handle.rank]
            state.staged_generation = None
            state.staged_fingerprint = None
            state.staged_error = None
            state.committed = False
        return targets

    def _await_phase(self, generation: int, deadline: float, done) -> None:
        """Wait until every live worker's state satisfies ``done`` (deaths
        shrink the quorum: the commit only ever needs the survivors)."""
        while True:
            self._supervise()
            self._collect()
            if all(done(self._ranks[h.rank]) for h in self._workers.live()):
                return
            if time.monotonic() > deadline:
                raise WeightReloadError(
                    f"reload generation {generation} timed out after "
                    f"{self.config.reload_timeout}s; old weights keep serving"
                )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _gauges(self) -> None:
        now = time.monotonic()
        if now - self._last_gauges < _GAUGE_INTERVAL:
            return
        self._last_gauges = now
        self._workers.emit_gauges(self.telemetry, "serving.pool")
        self.telemetry.gauge("serving.pool.queue_depth", float(self.queue_depth))
        self.telemetry.gauge("serving.pool.in_flight", float(self.in_flight))

    def report(self) -> dict:
        """The coordinator ledger plus fleet state, for the CLI footer."""
        self.telemetry.flush_histograms()
        payload = self.stats.as_dict()
        payload["workers"] = {
            str(rank): {
                "status": handle.status,
                "restarts_used": handle.restarts_used,
                "in_flight": len(self._ranks[rank].in_flight),
            }
            for rank, handle in sorted(self._workers.handles.items())
        }
        payload["fingerprint"] = self.fingerprint[:16]
        payload["generation"] = self._generation
        payload["draining"] = self._draining
        return payload
