"""Back-pressure: a caller with its own backlog never sheds it as ``queue_full``.

The engine's queue limit bounds memory. A caller that already holds the
work — an input file, a pool coordinator with dispatched or pending
requests — makes room with :meth:`ContinuousBatchingEngine.make_room`
before each submit instead of losing the overflow to the shed path.
"""

from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchingEngine,
    EngineConfig,
    GenerationRequest,
    PoolConfig,
    PoolFaultPlan,
    ServingPool,
)

from conftest import DECODER, ENCODER, build_service, build_tiny_model, request_texts


def make_requests(count):
    return [
        GenerationRequest(text, request_id=f"r{index:02d}", beam_size=2, max_length=4)
        for index, text in enumerate(request_texts(count, seed=5))
    ]


def test_make_room_keeps_the_queue_bounded_and_sheds_nothing():
    engine = ContinuousBatchingEngine(
        build_service(policy=AdmissionPolicy(max_source_tokens=12)),
        EngineConfig(max_rows=2, queue_limit=2),
    )
    outcomes = []
    for request in make_requests(10):
        outcomes.extend(engine.make_room())
        assert engine.queue_depth < engine.config.queue_limit
        assert engine.submit(request) is None
    outcomes.extend(engine.drain())
    assert sorted(o.request_id for o in outcomes) == [f"r{i:02d}" for i in range(10)]
    assert {o.status for o in outcomes} == {"served"}
    assert engine.service.stats.shed == 0


def test_make_room_is_a_no_op_below_the_limit():
    engine = ContinuousBatchingEngine(
        build_service(policy=AdmissionPolicy(max_source_tokens=12)), EngineConfig(queue_limit=4)
    )
    engine.submit(make_requests(1)[0])
    assert engine.make_room() == []
    assert engine.queue_depth == 1 and engine.stats.steps == 0


def test_inline_fallback_serves_a_backlog_longer_than_the_engine_queue():
    """With the fleet retired, the coordinator hands its whole pending
    queue (up to ``PoolConfig.queue_limit``) to an inline engine whose own
    queue is smaller; none of it may be shed."""
    requests = make_requests(10)
    pool = ServingPool(
        build_tiny_model(), ENCODER, DECODER,
        engine_config=EngineConfig(queue_limit=2),
        config=PoolConfig(workers=1, max_worker_restarts=0, queue_limit=16,
                          worker_timeout=5.0, heartbeat_interval=0.1,
                          poll_interval=0.01),
        fault_plan=PoolFaultPlan(kill_on_serve={0: 1}),
        telemetry=Telemetry([]),
    )
    try:
        outcomes = []
        for request in requests:
            outcome = pool.submit(request)
            if outcome is not None:
                outcomes.append(outcome)
        outcomes.extend(pool.drain())
    finally:
        pool.shutdown()
    assert pool.stats.inline_served > 0
    assert pool.stats.shed == 0
    assert {o.status for o in outcomes} == {"served"}
    assert len(outcomes) == len(requests)
