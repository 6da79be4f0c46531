"""The multi-process serving pool: parity, chaos, exactly-once, hot reload.

Every test pins the pool against the single-process
:class:`ContinuousBatchingEngine` on the same request set: the fleet must
be a pure scale-out — byte-identical results no matter which worker
serves, how many die on the way, or how the survivors re-dispatch.
"""

import os
import signal
import time

import pytest

from repro.observability import Telemetry
from repro.runtime.supervisor import Supervisor
from repro.serving import (
    ContinuousBatchingEngine,
    DrainGuard,
    GenerationRequest,
    InferenceService,
    PoolConfig,
    PoolFaultPlan,
    ServingPool,
    WeightReloadError,
)
from repro.serving.deadline import Clock
from repro.training.checkpoint import save_checkpoint

from conftest import DECODER, ENCODER, build_service, build_tiny_model, request_texts


def make_requests(count, prefix="r", seed=99):
    return [
        GenerationRequest(text, request_id=f"{prefix}{index:03d}")
        for index, text in enumerate(request_texts(count, seed=seed))
    ]


def serve_all(frontend, requests):
    outcomes = []
    for request in requests:
        outcome = frontend.submit(request)
        if outcome is not None:
            outcomes.append(outcome)
    outcomes.extend(frontend.drain())
    return outcomes


def result_rows(outcomes):
    """The byte-comparison surface: everything except wall-clock latency."""
    rows = []
    for outcome in sorted(outcomes, key=lambda o: o.request_id):
        result = outcome.result
        rows.append(
            (
                outcome.request_id,
                outcome.status,
                outcome.reason,
                result.tokens if result else None,
                result.rung if result else None,
                round(result.log_prob, 12) if result else None,
            )
        )
    return rows


def single_process_rows(requests, seed=0):
    service = InferenceService(
        build_tiny_model(seed=seed), ENCODER, DECODER,
        clock=Clock(), telemetry=Telemetry([]),
    )
    return result_rows(serve_all(ContinuousBatchingEngine(service), requests))


def make_pool(**kwargs):
    kwargs.setdefault("telemetry", Telemetry([]))
    kwargs.setdefault(
        "config",
        PoolConfig(workers=2, worker_timeout=5.0, heartbeat_interval=0.1,
                   poll_interval=0.01, restart_backoff=0.05),
    )
    model = kwargs.pop("model", None) or build_tiny_model()
    return ServingPool(model, ENCODER, DECODER, **kwargs)


def assert_exactly_once(pool, submitted):
    stats = pool.stats
    assert stats.submitted == submitted
    assert stats.finished == submitted
    assert stats.served + stats.rejected + stats.shed + stats.failed == submitted


# ----------------------------------------------------------------------
# Parity and exactly-once
# ----------------------------------------------------------------------
def test_pool_matches_single_process_serving():
    requests = make_requests(16)
    pool = make_pool()
    try:
        rows = result_rows(serve_all(pool, requests))
    finally:
        pool.shutdown()
    assert rows == single_process_rows(requests)
    assert_exactly_once(pool, 16)
    assert pool.stats.duplicate_results == 0
    # Both workers actually carried traffic.
    assert len(pool.stats.served_by_worker) == 2


def test_kill_mid_decode_redispatches_exactly_once():
    requests = make_requests(20)
    pool = make_pool(fault_plan=PoolFaultPlan(kill_on_serve={0: 3}))
    try:
        rows = result_rows(serve_all(pool, requests))
    finally:
        pool.shutdown()
    assert rows == single_process_rows(requests)
    assert_exactly_once(pool, 20)
    assert pool.stats.worker_deaths >= 1
    assert pool.stats.redispatched >= 1
    assert pool.stats.worker_restarts >= 1


def test_stalled_worker_is_detected_and_requests_redispatched():
    requests = make_requests(12)
    pool = make_pool(
        fault_plan=PoolFaultPlan(stall_on_serve={1: 2}),
        config=PoolConfig(workers=2, worker_timeout=0.6, heartbeat_interval=0.1,
                          poll_interval=0.01, restart_backoff=0.05),
    )
    try:
        rows = result_rows(serve_all(pool, requests))
    finally:
        pool.shutdown()
    assert rows == single_process_rows(requests)
    assert_exactly_once(pool, 12)
    assert pool.stats.worker_deaths >= 1


def test_retired_pool_degrades_to_inline_decode():
    requests = make_requests(8)
    pool = make_pool(
        fault_plan=PoolFaultPlan(kill_on_serve={0: 1}),
        config=PoolConfig(workers=1, max_worker_restarts=0, worker_timeout=5.0,
                          heartbeat_interval=0.1, poll_interval=0.01),
    )
    try:
        rows = result_rows(serve_all(pool, requests))
    finally:
        pool.shutdown()
    # Degrade, don't refuse: with the whole fleet retired, the coordinator
    # serves the backlog inline — still byte-identical.
    assert rows == single_process_rows(requests)
    assert_exactly_once(pool, 8)
    assert pool.stats.inline_served > 0
    assert pool.stats.worker_restarts == 0


def test_rejections_and_queue_shedding_stay_in_the_ledger():
    pool = make_pool(
        config=PoolConfig(workers=1, queue_limit=2, max_in_flight_per_worker=1,
                          heartbeat_interval=0.1, poll_interval=0.01),
    )
    try:
        outcomes = []
        requests = [GenerationRequest("", request_id="bad-0")] + make_requests(8)
        for request in requests:
            outcome = pool.submit(request)
            if outcome is not None:
                outcomes.append(outcome)
        outcomes.extend(pool.drain())
    finally:
        pool.shutdown()
    by_status = {}
    for outcome in outcomes:
        by_status.setdefault(outcome.status, []).append(outcome)
    assert [o.request_id for o in by_status["rejected"]] == ["bad-0"]
    assert by_status["rejected"][0].reason == "empty"
    assert pool.stats.shed > 0  # queue_limit=2 forced shedding
    assert pool.stats.shed_by_reason.get("queue_full") == pool.stats.shed
    assert_exactly_once(pool, 9)
    assert len(outcomes) == 9


def test_begin_drain_sheds_new_submissions_and_finishes_in_flight():
    requests = make_requests(10)
    pool = make_pool()
    try:
        outcomes = []
        for request in requests[:6]:
            outcome = pool.submit(request)
            if outcome is not None:
                outcomes.append(outcome)
        pool.begin_drain()
        for request in requests[6:]:
            outcome = pool.submit(request)
            assert outcome is not None and outcome.status == "shed"
            assert outcome.reason == "draining"
            outcomes.append(outcome)
        outcomes.extend(pool.drain())
    finally:
        pool.shutdown()
    served = [o for o in outcomes if o.status == "served"]
    assert len(served) == 6  # everything admitted before the drain resolved
    assert_exactly_once(pool, 10)
    assert pool.stats.shed_by_reason == {"draining": 4}


# ----------------------------------------------------------------------
# Coordinator loop: dispatch never waits out a poll
# ----------------------------------------------------------------------
def test_pump_dispatches_before_it_waits_on_the_workers(monkeypatch):
    pool = make_pool()
    seen_in_flight = []
    wait = Supervisor.messages

    def spy(supervisor):
        seen_in_flight.append(
            {rid for state in pool._ranks.values() for rid in state.in_flight}
        )
        yield from wait(supervisor)

    monkeypatch.setattr(Supervisor, "messages", spy)
    try:
        pool.start()
        assert pool.in_flight == 0 and pool.queue_depth == 0
        assert pool.submit(GenerationRequest("zorvex was born in karlin .",
                                             request_id="idle-0")) is None
        outcomes = pool.pump()
        assert seen_in_flight and seen_in_flight[0] == {"idle-0"}
        outcomes.extend(pool.drain())
    finally:
        pool.shutdown()
    assert [o.status for o in outcomes] == ["served"]


def test_pump_refills_the_slot_its_collection_freed():
    pool = make_pool(
        config=PoolConfig(workers=1, max_in_flight_per_worker=1, worker_timeout=5.0,
                          heartbeat_interval=0.1, poll_interval=0.01),
    )
    first, second = make_requests(2)
    try:
        assert pool.submit(first) is None
        assert pool.submit(second) is None
        deadline = time.monotonic() + 30.0
        outcomes = []
        while not outcomes and time.monotonic() < deadline:
            outcomes = pool.pump()
        # The pump that collected the first result already handed the
        # second ticket to the worker it freed.
        assert [o.request_id for o in outcomes] == [first.request_id]
        assert pool.queue_depth == 0
        assert set(pool._ranks[0].in_flight) == {second.request_id}
        outcomes.extend(pool.drain())
    finally:
        pool.shutdown()
    assert [o.status for o in outcomes] == ["served", "served"]
    assert_exactly_once(pool, 2)


# ----------------------------------------------------------------------
# The engine-side idempotency guard (duplicate completions)
# ----------------------------------------------------------------------
def test_engine_duplicate_completion_guard():
    service = build_service()
    engine = ContinuousBatchingEngine(service)
    request = GenerationRequest("zorvex was born in karlin .", request_id="dup-e")
    assert engine.submit(request) is None
    first = engine.drain()
    # Re-dispatch seam: the same id decodes again (as after a worker death
    # whose original result later surfaces).
    assert engine.submit(request) is None
    second = engine.drain()
    assert [o.result.tokens for o in first] == [o.result.tokens for o in second]
    assert engine.stats.served_in_frontier == 1
    assert engine.stats.duplicate_results == 1
    assert service.stats.served == 1
    assert service.stats.duplicate_results == 1


# ----------------------------------------------------------------------
# Hot reload
# ----------------------------------------------------------------------
def test_hot_reload_is_atomic_and_fingerprint_attributed(tmp_path):
    checkpoint = tmp_path / "v2"
    save_checkpoint(str(checkpoint / "model"), build_tiny_model(seed=7), {"v": 2})

    pool = make_pool()
    try:
        before = make_requests(10, prefix="a")
        rows_before = result_rows(serve_all(pool, before))
        old_fp = pool.fingerprint

        new_fp = pool.reload_weights(str(checkpoint))
        assert new_fp != old_fp
        assert pool.stats.reloads == 1
        assert pool.fingerprint == new_fp

        after = make_requests(10, prefix="b")
        outcomes_after = serve_all(pool, after)
        rows_after = result_rows(outcomes_after)
        # Every response attributes to exactly one weight generation.
        assert {o.fingerprint for o in outcomes_after} == {new_fp}
        assert all(
            pool.result_fingerprint(o.request_id) == new_fp for o in outcomes_after
        )
    finally:
        pool.shutdown()
    assert rows_before == single_process_rows(before, seed=0)
    assert rows_after == single_process_rows(after, seed=7)
    assert_exactly_once(pool, 20)


def test_reload_failure_is_typed_and_old_weights_keep_serving(tmp_path):
    pool = make_pool()
    try:
        old_fp = pool.fingerprint
        with pytest.raises(WeightReloadError):
            pool.reload_weights(str(tmp_path / "missing-checkpoint"))
        assert pool.fingerprint == old_fp
        assert pool.stats.reloads == 0
        requests = make_requests(6)
        rows = result_rows(serve_all(pool, requests))
    finally:
        pool.shutdown()
    assert rows == single_process_rows(requests)  # still the old weights
    assert_exactly_once(pool, 6)


def test_reload_refreshes_worker_encoder_caches(tmp_path):
    checkpoint = tmp_path / "v2"
    save_checkpoint(str(checkpoint / "model"), build_tiny_model(seed=7), {"v": 2})

    pool = make_pool(
        cache_size=32,
        config=PoolConfig(workers=1, heartbeat_interval=0.1, poll_interval=0.01),
    )
    try:
        texts = request_texts(6)
        warm = [GenerationRequest(t, request_id=f"w{i}") for i, t in enumerate(texts)]
        serve_all(pool, warm)  # fills the worker's cache under the old weights
        pool.reload_weights(str(checkpoint))
        again = [GenerationRequest(t, request_id=f"x{i}") for i, t in enumerate(texts)]
        rows = result_rows(serve_all(pool, again))
    finally:
        pool.shutdown()
    # A stale hit would resurrect pre-reload encoder states; instead the
    # post-reload answers match a cold single-process run on the new weights.
    assert rows == single_process_rows(again, seed=7)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_shutdown_is_idempotent_and_leaves_no_workers():
    pool = make_pool()
    serve_all(pool, make_requests(4))
    pids = pool.live_worker_pids()
    assert len(pids) == 2
    pool.shutdown()
    pool.shutdown()  # idempotent
    assert pool.live_worker_pids() == []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        pytest.fail(f"worker {pid} survived shutdown")


def test_drain_guard_latches_signals_without_dying():
    guard = DrainGuard(signals=(signal.SIGUSR1,))
    guard.install()
    try:
        assert not guard.draining
        os.kill(os.getpid(), signal.SIGUSR1)
        assert guard.draining
        assert guard.signum == signal.SIGUSR1
        os.kill(os.getpid(), signal.SIGUSR1)  # second signal: still latched
        assert guard.draining
    finally:
        guard.restore()


def test_pool_config_validation():
    with pytest.raises(ValueError):
        PoolConfig(workers=0)
    with pytest.raises(ValueError):
        PoolConfig(heartbeat_interval=2.0, worker_timeout=1.0)
    with pytest.raises(ValueError):
        PoolConfig(max_in_flight_per_worker=0)
