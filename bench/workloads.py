"""The four workloads: seeded inputs, load generation and the correctness gate.

Each serving workload warms up on sources outside the measured trace, then
alternates rounds of an **open loop** (arrivals on a fixed schedule
whatever the backlog, latency timed from when each request was due) and a
**closed loop** (32 outstanding requests, for capacity). ``table1_row``
trains and evaluates the ACNN-para row of Table 1. ``--seed`` picks the
inputs only: which sources, their order, their lengths and the arrival
schedule for serving, the synthetic corpus for ``table1_row``. Model,
vocabularies and serving settings are fixed, so the program under test is
the same for every seed.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.batching import BatchIterator
from repro.data.dataset import QGDataset, SourceMode
from repro.data.synthetic import generate_corpus
from repro.evaluation import evaluator
from repro.experiments.configs import DEFAULT
from repro.experiments.runner import (
    TABLE1_SYSTEMS,
    _apply_pretrained_embeddings,
    prepare_datasets,
)
from repro.models import build_model
from repro.serving import (
    AdmissionPolicy,
    ContinuousBatchingEngine,
    EncoderStateCache,
    EngineConfig,
    GenerationRequest,
    InferenceService,
    PoolConfig,
    ServiceConfig,
    ServingPool,
)
from repro.tensor.profiler import TapeProfile
from repro.training.trainer import Trainer

from tracing import Tracer

__all__ = ["WORKLOADS", "E2E_METRICS", "run_workload"]

WORKLOADS = ("serve_unique", "serve_hot", "serve_pool", "table1_row")

E2E_METRICS: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "questions_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
"""Every workload reports each of these, with one definition per name.
``op_p50_ms`` is the median time of the workload's unit operation, from
when it was due until it was done: an open-loop request on ``serve_*``, a
training step on ``table1_row``. ``questions_per_s`` is how many questions
the system generates per second while it is kept busy: requests served in
the closed loop on ``serve_*``, test examples beam-decoded by
``evaluate_model`` on ``table1_row``. These two are scaled by
:class:`HostSpeed`; a run's record keeps them as measured under
``measured_end_to_end``."""

# `acnn serve` defaults.
BEAM_SIZE = 3
DEADLINE_S = 5.0
QUEUE_LIMIT = 32
MAX_ROWS = 12
ADMIT_PER_STEP = 4
CACHE_SIZE = 128
POOL_WORKERS = 2

SETUPS = 3
"""Set-ups per run; ``setup_s`` is the median of their times, each scaled
by the :class:`HostSpeed` samples taken just before and just after it.

Over ten seeds on a host running 1.3-1.7x slow, the measured set-up
times spread by 0.18-0.31, and by 0.10-0.12 scaled this way; scaled by
the run's mean slowdown instead, by 0.15-0.28."""
BATCH_SAMPLES = 4
"""Host-speed samples after each training batch of ``table1_row``."""
NEAR_S = 0.1
"""Host-speed samples taken this close to a request or batch count for it. The host changes speed about once a second: scaling each open-loop
request by the samples around it, rather than by its phase's mean, cut the
ten-seed spread of p50 from 0.17 to 0.10 on ``serve_unique`` and from
0.095 to 0.061 on ``serve_hot``."""
OPEN_SHARE = 0.6
"""Share of ``--seconds`` the open loop's schedule spans."""
OPEN_RATE = {"serve_unique": 6.0, "serve_hot": 24.0, "serve_pool": 6.0}
"""Open-loop arrivals per second: about a quarter of each stack's capacity
on a fast host, and a third on a slow one.

At 12 req/s ``serve_unique`` ran at 43% of its capacity, and 60% in the
host's slow stretches; queueing then grew faster than the host slowed, and
p50 spread by 0.18 over ten seeds even after scaling for host speed. At
8 req/s one run in ten still doubled its p50 in a slow stretch."""
CLOSED_PER_SECOND = {"serve_unique": 8, "serve_hot": 20, "serve_pool": 8}
"""Closed-loop requests per ``--seconds``: about 40% of the run."""
OUTSTANDING = 32
CLOSED_ROUND = 4 * OUTSTANDING
"""Least closed-loop requests per round. A serving run alternates open and
closed loop once per round. Capacity is taken from the first completion to
the last submission of a round, while 32 requests are outstanding; the
ramp-up before it and the drain after it are left out."""
WARMUP_REQUESTS = 8
LATENCY_LIMIT_S = 1.0
GATE_SAMPLE = 32
MAX_LENGTHS = (8, 16, 24)
LONG_WINDOW = 100
HOT_SOURCES = 32
TABLE1_SPEC = TABLE1_SYSTEMS[-1]
"""ACNN-para."""
TABLE1_SIZES = (1536, 128, 250)
"""Train/dev/test examples of the row at the default 20 s run length."""


def _percentile_ms(values, q: float) -> float:
    return 1000.0 * float(np.percentile(values, q)) if len(values) else 0.0


def _tail_ms(values) -> float:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    return _percentile_ms(values, 100.0 * (1.0 - 10.0 / n)) if n > 10 else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class HostSpeed:
    """How fast the host runs right now, from a fixed kernel's CPU time.

    The 2-CPU VM this benchmark was tuned on runs about 1.4x slower, on
    either CPU, for stretches of a second to several minutes while other
    tenants contend for its cores. Whole runs landed in slow stretches, so
    ten-seed medians of the same code moved by 40% from one set of runs to
    the next. CPU time rose with wall time during these stretches, so the
    slowdown is the CPU's, not time spent descheduled. This kernel (pure
    Python plus small single-thread matrix products, like the program) is
    sampled through a run, and latencies and throughputs are scaled to a
    host on which it takes :data:`REFERENCE_S`. Thread CPU time leaves out
    time the benchmark's process waits for a CPU, e.g. behind the pool's
    workers.
    """

    REFERENCE_S = 0.3e-3
    """The kernel's CPU time on the tuning host when uncontended."""
    EXPONENT = 0.8
    """The program's slowdown is taken as the kernel's to this power.

    Within a few minutes the program's times follow the kernel's about in
    proportion (log-log slope 0.85-1.1 over blocks of ten samples). Between
    sets of runs half an hour apart they do not: the kernel read 1.4x in
    one set and 1.0x in another while ``table1_row`` trained only 1.27x
    slower. Over three such sets of ten seeds, the largest move of a
    median was 48% unscaled, 21% with full scaling and 18-20% with
    exponents from 0.75 to 0.9."""
    INTERVAL_S = 0.05
    """Least wall time between samples; a sample costs about 0.6 ms."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((12, 128))
        self._b = rng.random((128, 256))
        self.samples: list[float] = []
        self.taken_at: list[float] = []
        """``time.perf_counter()`` when each sample was taken."""
        self._last = -float("inf")

    def _kernel(self) -> None:
        total = 0
        for i in range(1500):
            total += i * i % 7
        for _ in range(10):
            np.tanh(self._a @ self._b)

    def sample(self) -> None:
        # A first, untimed pass brings the kernel's code and data back into
        # the caches the program just used, so the timed pass measures the
        # CPU and not how much the program evicted.
        self._kernel()
        start = time.thread_time()
        self._kernel()
        self.samples.append(time.thread_time() - start)
        self.taken_at.append(time.perf_counter())

    def tick(self) -> None:
        """Sample when :data:`INTERVAL_S` has passed since the last one."""
        now = time.perf_counter()
        if now - self._last >= self.INTERVAL_S:
            self._last = now
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken from ``start`` to ``end``
        (``perf_counter`` times), or of the one nearest to that interval
        when none was, over :data:`REFERENCE_S`, to the power
        :data:`EXPONENT`."""
        lo = bisect.bisect_left(self.taken_at, start)
        hi = bisect.bisect_right(self.taken_at, end)
        if lo == hi:
            after = min(lo, len(self.taken_at) - 1)
            before = max(lo - 1, 0)
            nearer = before if start - self.taken_at[before] < self.taken_at[after] - end else after
            lo, hi = nearer, nearer + 1
        return (float(np.mean(self.samples[lo:hi])) / self.REFERENCE_S) ** self.EXPONENT


def _timed_setups(build, speed: "HostSpeed"):
    """Run ``build`` :data:`SETUPS` times; keep the last, time them all.

    Each build starts from a collected heap with the previous one gone, so
    no build pays for another's garbage. Returns the last build, each
    build's time and the host's slowdown around each build.
    """
    times, slowdowns, built = [], [], None
    for _ in range(SETUPS):
        if built is not None:
            built.close()
            built = None
        gc.collect()
        for _ in range(BATCH_SAMPLES):
            speed.sample()
        start = time.perf_counter()
        built = build()
        end = time.perf_counter()
        for _ in range(BATCH_SAMPLES):
            speed.sample()
        times.append(end - start)
        slowdowns.append(speed.slowdown(start - NEAR_S, end + NEAR_S))
    return built, times, slowdowns


# ----------------------------------------------------------------------
# Serving inputs
# ----------------------------------------------------------------------
@dataclass
class ServingTrace:
    warmup: list[GenerationRequest]
    open_loop: list[GenerationRequest]
    due: np.ndarray
    closed_loop: list[GenerationRequest]


def _balanced(rng: np.random.Generator, n: int, values: tuple) -> list:
    """``n`` draws where every block of ``len(values)`` holds each value once."""
    out: list = []
    while len(out) < n:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:n]


def serving_trace(workload: str, corpus, seed: int, seconds: float) -> ServingTrace:
    """The request trace of a serving workload, from ``seed`` alone.

    ``serve_unique`` and ``serve_pool`` share it: no source repeats, and
    every block of four holds three fact sentences and one
    :data:`LONG_WINDOW`-token paragraph window. ``serve_hot`` draws Zipf(1)
    from :data:`HOT_SOURCES` sentences. Warm-up sources are never measured.
    """
    rng = np.random.default_rng(seed)
    rate = OPEN_RATE[workload]
    n_open = max(4, round(rate * OPEN_SHARE * seconds))
    n_closed = max(CLOSED_ROUND, round(CLOSED_PER_SECOND[workload] * seconds))
    examples = corpus.train + corpus.dev + corpus.test
    order = rng.permutation(len(examples))
    seen: set[str] = set()

    def unique_sources():
        for index in order:
            example = examples[index]
            yield example, " ".join(example.sentence)

    stream = unique_sources()

    def next_source(long: bool) -> str:
        for example, sentence in stream:
            text = sentence
            if long:
                start = int(rng.integers(0, len(example.paragraph) - LONG_WINDOW + 1))
                text = " ".join(example.paragraph[start:start + LONG_WINDOW])
            if text not in seen:
                seen.add(text)
                return text
        raise ValueError("the serving corpus has too few distinct sources")

    warmup_texts = [next_source(long=False) for _ in range(WARMUP_REQUESTS)]
    total = n_open + n_closed
    if workload == "serve_hot":
        hot = [next_source(long=False) for _ in range(HOT_SOURCES)]
        weights = 1.0 / np.arange(1, HOT_SOURCES + 1)
        picks = rng.choice(HOT_SOURCES, size=total, p=weights / weights.sum())
        texts = [hot[i] for i in picks]
        # A server with a hot set has it cached: warm-up requests (other
        # requests, same sources) fill the cache before anything is timed.
        warmup_texts += hot
    else:
        kinds = _balanced(rng, total, (False, False, False, True))
        texts = [next_source(long) for long in kinds]
    lengths = _balanced(rng, total + len(warmup_texts), MAX_LENGTHS)

    def request(prefix: str, i: int, text: str, length: int) -> GenerationRequest:
        return GenerationRequest(
            text, request_id=f"{prefix}{i:05d}", beam_size=BEAM_SIZE, max_length=length
        )

    warmup = [request("w", i, t, lengths[total + i]) for i, t in enumerate(warmup_texts)]
    measured = [request("m", i, t, lengths[i]) for i, t in enumerate(texts)]
    # One arrival at a uniform random time in each 1/rate slot. With Poisson
    # arrivals one second of a 12 s schedule held 18 requests and another 5,
    # and latency followed those bursts, i.e. the seed, more than the code:
    # p50 spread 0.42 over ten seeds against 0.14 with these arrivals.
    due = (np.arange(n_open) + rng.random(n_open)) / rate
    return ServingTrace(warmup, measured[:n_open], due, measured[n_open:])


# ----------------------------------------------------------------------
# Serving stacks
# ----------------------------------------------------------------------
@dataclass
class ServingStack:
    corpus: object
    encoder_vocab: object
    decoder_vocab: object
    model: object
    frontend: object
    """A ContinuousBatchingEngine or a started ServingPool."""
    cache: EncoderStateCache | None = None
    advance_name: str = "step"

    @property
    def is_pool(self) -> bool:
        return isinstance(self.frontend, ServingPool)

    def advance(self):
        return getattr(self.frontend, self.advance_name)()

    def busy(self) -> bool:
        return bool(self.frontend.in_flight or self.frontend.queue_depth)

    def close(self) -> None:
        if self.is_pool:
            self.frontend.shutdown()


def _source_tokens(batch) -> dict:
    return {"source_tokens": max(len(e.src_ids) for e in batch.examples)}


def _rows(prev_tokens, *_) -> dict:
    return {"rows": int(len(prev_tokens))}


def _request_id(request, *_) -> str:
    return request.request_id


def instrument_model(model, tracer: Tracer) -> None:
    tracer.wrap(model, "encode", "models.encode", attrs=_source_tokens)
    tracer.wrap(model, "step_log_probs", "models.step", attrs=_rows)


def build_serving(workload: str, tracer: Tracer | None) -> ServingStack:
    """Vocabularies, a seeded ACNN and the serving stack, as ``acnn serve``
    builds them from a bundle (the bundle here is built in memory)."""
    corpus = generate_corpus(DEFAULT.synthetic_config())
    encoder_vocab, decoder_vocab = QGDataset.build_vocabs(
        corpus.train,
        encoder_vocab_size=DEFAULT.encoder_vocab_size,
        decoder_vocab_size=DEFAULT.decoder_vocab_size,
        source_mode=SourceMode.PARAGRAPH,
        paragraph_length=DEFAULT.paragraph_length,
    )
    model = build_model(
        "acnn", DEFAULT.model_config(), len(encoder_vocab), len(decoder_vocab)
    )
    policy = AdmissionPolicy()
    service_config = ServiceConfig(default_deadline_seconds=DEADLINE_S)
    engine_config = EngineConfig(
        max_rows=MAX_ROWS, queue_limit=QUEUE_LIMIT, admit_per_step=ADMIT_PER_STEP
    )
    if workload == "serve_pool":
        # Worker processes are out of the tracer's reach; the coordinator's
        # submit and pump are what the benchmark can see.
        pool = ServingPool(
            model, encoder_vocab, decoder_vocab,
            policy=policy, service_config=service_config,
            engine_config=engine_config, config=PoolConfig(workers=POOL_WORKERS),
            cache_size=CACHE_SIZE,
        )
        pool.start()
        if tracer is not None:
            tracer.wrap(pool, "submit", "serving.pool.submit", request_id=_request_id)
            tracer.wrap(pool, "pump", "serving.pool.pump")
        return ServingStack(
            corpus, encoder_vocab, decoder_vocab, model, pool, advance_name="pump"
        )

    if tracer is not None:
        # Before the engine exists: it binds step_log_probs at construction.
        instrument_model(model, tracer)
    cache = EncoderStateCache(CACHE_SIZE)
    service = InferenceService(
        model, encoder_vocab, decoder_vocab,
        policy=policy, config=service_config, encoder_cache=cache,
    )
    engine = ContinuousBatchingEngine(service, engine_config)
    if tracer is not None:
        for method in ("key_for", "get", "put"):
            tracer.wrap(cache, method, f"serving.cache.{method}")
        tracer.wrap(service, "admit", "serving.requests.admit", request_id=_request_id)
        tracer.wrap(engine, "submit", "serving.engine.submit", request_id=_request_id)
        tracer.wrap(
            engine, "step", "serving.engine.step",
            attrs=lambda: {"frontier_rows": engine.frontier_rows},
        )
    return ServingStack(corpus, encoder_vocab, decoder_vocab, model, engine, cache)


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Every outcome by request id, with the time it came back."""

    outcomes: dict = field(default_factory=dict)
    done_at: dict = field(default_factory=dict)
    duplicates: int = 0

    def record(self, outcome, now: float) -> None:
        if outcome.request_id in self.outcomes:
            self.duplicates += 1
            return
        self.outcomes[outcome.request_id] = outcome
        self.done_at[outcome.request_id] = now


def open_loop(stack: ServingStack, requests, due, ledger: Ledger, tracer: Tracer,
              speed: HostSpeed, first_seen: dict | None) -> dict:
    """Send each request when it is due, whatever the backlog.

    Returns the phase's wall time, the generator's lateness per request and
    its idle time. With ``first_seen`` given, the first time each request
    id shows up in the engine's slot table is recorded there.
    """
    clock = time.perf_counter
    start = clock()
    sent = 0
    lateness: list[float] = []
    idle = 0.0
    while sent < len(requests) or stack.busy():
        speed.tick()
        now = clock() - start
        if sent < len(requests) and due[sent] <= now:
            lateness.append(now - due[sent])
            outcome = stack.frontend.submit(requests[sent])
            if outcome is not None:
                ledger.record(outcome, clock() - start)
            sent += 1
            continue
        if stack.busy():
            for outcome in stack.advance():
                ledger.record(outcome, clock() - start)
            if first_seen is not None:
                seen_at = clock() - start
                for request_id, _, _ in stack.frontend.slot_table():
                    first_seen.setdefault(request_id, seen_at)
            continue
        wait = due[sent] - now
        with tracer.span("gen.idle"):
            time.sleep(wait)
        idle += wait
    return {"wall": clock() - start, "lateness": lateness, "idle": idle, "start": start}


def closed_loop(stack: ServingStack, requests, ledger: Ledger, speed: HostSpeed) -> dict:
    """Keep :data:`OUTSTANDING` requests in the system.

    Returns the phase's wall time and its steady window: the seconds from
    the first served request to the last submission, and how many requests
    were served within them. Needs more than :data:`OUTSTANDING` requests.
    """
    clock = time.perf_counter
    start = clock()
    sent = 0
    last_sent = 0.0
    earlier = len(ledger.outcomes)
    while sent < len(requests) or stack.busy():
        speed.tick()
        while sent < len(requests) and sent - (len(ledger.outcomes) - earlier) < OUTSTANDING:
            outcome = stack.frontend.submit(requests[sent])
            if outcome is not None:
                ledger.record(outcome, clock() - start)
            sent += 1
            last_sent = clock() - start
        for outcome in stack.advance():
            ledger.record(outcome, clock() - start)
    end = clock()
    served_at = sorted(
        ledger.done_at[r.request_id] for r in requests
        if r.request_id in ledger.outcomes and ledger.outcomes[r.request_id].status == "served"
    )
    first = served_at[0] if served_at else last_sent
    return {
        "start": start,
        "wall": end - start,
        "steady_s": last_sent - first,
        "steady_served": sum(1 for t in served_at if first < t <= last_sent),
    }


def serving_gate(stack: ServingStack, requests, ledger: Ledger, seed: int) -> list[str]:
    """Ledger balance, plus a seeded sample of :data:`GATE_SAMPLE` served
    ``beam``-rung outputs against a solo ``InferenceService.serve``."""
    violations = []
    missing = [r.request_id for r in requests if r.request_id not in ledger.outcomes]
    if missing:
        violations.append(f"{len(missing)} requests without an outcome")
    if ledger.duplicates:
        violations.append(f"{ledger.duplicates} duplicate outcomes")
    served = [
        r for r in requests
        if r.request_id in ledger.outcomes
        and ledger.outcomes[r.request_id].status == "served"
        and ledger.outcomes[r.request_id].result.rung == "beam"
    ]
    if not served:
        violations.append("no beam-rung outputs to check")
        return violations
    rng = np.random.default_rng(seed + 1)
    picks = rng.choice(len(served), min(GATE_SAMPLE, len(served)), replace=False)
    sample = [served[i] for i in sorted(picks)]
    reference = InferenceService(
        stack.model, stack.encoder_vocab, stack.decoder_vocab,
        policy=AdmissionPolicy(),
        config=ServiceConfig(default_deadline_seconds=DEADLINE_S),
    )
    for request in sample:
        got = ledger.outcomes[request.request_id].result
        want = reference.serve(request)
        if want.status != "served" or (want.result.question, want.result.tokens) != (
            got.question, got.tokens
        ):
            violations.append(f"{request.request_id}: served output differs from solo serve")
    return violations


def _digest(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def run_serving(workload: str, seed: int, seconds: float, tracer: Tracer) -> dict:
    traced = tracer.recording
    tracer.recording = False
    speed = HostSpeed()
    stack, setup_times, setup_slowdowns = _timed_setups(
        lambda: build_serving(workload, tracer if traced else None), speed
    )
    ledger = Ledger()
    rounds = []
    try:
        trace = serving_trace(workload, stack.corpus, seed, seconds)
        closed_loop(stack, trace.warmup, Ledger(), speed)
        measured_start = time.perf_counter()
        cache_before = (stack.cache.stats.hits, stack.cache.stats.misses) if stack.cache else None
        first_seen = {} if traced and not stack.is_pool else None
        submitted_at: dict[str, float] = {}
        rounds_run = max(1, min(len(trace.closed_loop) // CLOSED_ROUND, len(trace.open_loop)))
        open_parts = np.array_split(np.arange(len(trace.open_loop)), rounds_run)
        closed_parts = np.array_split(np.arange(len(trace.closed_loop)), rounds_run)
        for open_part, closed_part in zip(open_parts, closed_parts):
            requests = [trace.open_loop[i] for i in open_part]
            due = trace.due[open_part] - open_part[0] / OPEN_RATE[workload]
            tracer.recording = traced
            phase = open_loop(stack, requests, due, ledger, tracer, speed, first_seen)
            tracer.recording = False
            latencies, scaled, on_time = [], [], 0
            for request, due_at, late in zip(requests, due, phase["lateness"]):
                submitted_at[request.request_id] = due_at + late
                outcome = ledger.outcomes.get(request.request_id)
                if outcome is None or outcome.status != "served":
                    continue
                latency = ledger.done_at[request.request_id] - due_at
                latencies.append(latency)
                due_clock = phase["start"] + due_at
                scaled.append(latency / speed.slowdown(
                    due_clock - NEAR_S, due_clock + latency + NEAR_S
                ))
                on_time += outcome.result.rung == "beam" and latency <= LATENCY_LIMIT_S
            closed = [trace.closed_loop[i] for i in closed_part]
            tracer.recording = traced
            capacity = closed_loop(stack, closed, ledger, speed)
            tracer.recording = False
            rounds.append({
                "open_requests": len(requests), "latencies": latencies, "scaled": scaled,
                "on_time": on_time, "lateness": phase["lateness"], "idle": phase["idle"],
                "open_wall": phase["wall"], "closed_requests": len(closed), **capacity,
                "closed_slowdown": speed.slowdown(
                    capacity["start"], capacity["start"] + capacity["wall"]
                ),
            })
        measured_end = time.perf_counter()

        requests = trace.open_loop + trace.closed_loop
        violations = serving_gate(stack, requests, ledger, seed)
        peak_rss = _peak_rss_mb()
        worker_rss = 0.0
        if stack.is_pool:
            worker_rss = sum(_vm_hwm_mb(pid) for pid in stack.frontend.live_worker_pids())
            redispatched = stack.frontend.stats.redispatched
        cache_after = (stack.cache.stats.hits, stack.cache.stats.misses) if stack.cache else None
    finally:
        stack.close()

    latencies = [x for r in rounds for x in r["latencies"]]
    lateness = [x for r in rounds for x in r["lateness"]]
    open_wall = sum(r["open_wall"] for r in rounds)
    busy_wall = sum(r["wall"] for r in rounds)
    failed = sum(
        1 for r in requests
        if r.request_id not in ledger.outcomes
        or ledger.outcomes[r.request_id].status != "served"
        or ledger.outcomes[r.request_id].result.rung != "beam"
    )
    measured = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": _percentile_ms(latencies, 50),
        "questions_per_s": (
            sum(r["steady_served"] for r in rounds) / sum(r["steady_s"] for r in rounds)
        ),
        "peak_rss_mb": peak_rss + worker_rss,
    }
    end_to_end = dict(
        measured,
        setup_s=statistics.median(t / s for t, s in zip(setup_times, setup_slowdowns)),
        op_p50_ms=_percentile_ms([x for r in rounds for x in r["scaled"]], 50),
        questions_per_s=(
            sum(r["steady_served"] for r in rounds)
            / sum(r["steady_s"] / r["closed_slowdown"] for r in rounds)
        ),
    )
    layer_extra = {
        "latency_p90_ms": _percentile_ms(latencies, 90),
        "latency.tail_ms": _tail_ms(latencies),
        "latency.samples": len(latencies),
        "miss_fraction": 1.0 - sum(r["on_time"] for r in rounds) / len(trace.open_loop),
        "gen.lateness_p99_ms": _percentile_ms(lateness, 99),
        "gen.idle_fraction": sum(r["idle"] for r in rounds) / open_wall,
    }
    if stack.is_pool:
        layer_extra["serving.pool.worker_peak_rss_mb"] = worker_rss
        layer_extra["serving.pool.redispatched"] = redispatched
    if cache_before is not None:
        hits = cache_after[0] - cache_before[0]
        lookups = hits + cache_after[1] - cache_before[1]
        layer_extra["serving.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    if first_seen is not None:
        waits = [first_seen[rid] - submitted_at[rid] for rid in first_seen if rid in submitted_at]
        layer_extra["serving.engine.queue_wait_p50_ms"] = _percentile_ms(waits, 50)

    rows = sorted(
        (rid, o.status, o.result.rung if o.result else None,
         o.result.tokens if o.result else None)
        for rid, o in ledger.outcomes.items()
    )
    return {
        "config": {
            "open_rate_per_s": OPEN_RATE[workload],
            "open_requests": len(trace.open_loop),
            "closed_requests": len(trace.closed_loop),
            "outstanding": OUTSTANDING,
            "warmup_requests": len(trace.warmup),
            "beam_size": BEAM_SIZE, "deadline_s": DEADLINE_S,
            "queue_limit": QUEUE_LIMIT, "max_rows": MAX_ROWS,
            "admit_per_step": ADMIT_PER_STEP, "cache_size": CACHE_SIZE,
            "pool_workers": POOL_WORKERS if workload == "serve_pool" else 0,
            "max_lengths": list(MAX_LENGTHS), "latency_limit_s": LATENCY_LIMIT_S,
        },
        "setup_times_s": setup_times,
        "setup_slowdowns": setup_slowdowns,
        "end_to_end": end_to_end,
        "measured_end_to_end": measured,
        "host_slowdown": speed.slowdown(measured_start, measured_end),
        "host_samples": len(speed.samples),
        "layer_extra": layer_extra,
        "measured_wall_s": open_wall + busy_wall,
        "busy_wall_s": busy_wall,
        "busy_scaled_s": sum(r["wall"] / r["closed_slowdown"] for r in rounds),
        "rounds": [
            {"open_requests": r["open_requests"], "latency_samples": len(r["latencies"]),
             "latency_p50_ms": _percentile_ms(r["latencies"], 50),
             "closed_requests": r["closed_requests"], "steady_served": r["steady_served"],
             "steady_s": r["steady_s"], "served_per_s": r["steady_served"] / r["steady_s"],
             "closed_slowdown": r["closed_slowdown"]}
            for r in rounds
        ],
        "attempted": len(requests),
        "failed": failed,
        "violations": violations,
        "outputs_digest": _digest(rows),
    }


# ----------------------------------------------------------------------
# table1_row
# ----------------------------------------------------------------------
@dataclass
class Table1Stack:
    test_ds: QGDataset
    model: object
    trainer: Trainer

    def close(self) -> None:
        """Nothing outlives the run but memory."""


def table1_scale(seed: int, seconds: float):
    """DEFAULT dimensions, one epoch, on a corpus drawn from ``seed``.

    At 20 s the corpus is :data:`TABLE1_SIZES`; other run lengths scale it.
    """
    share = seconds / 20.0
    train, dev, test = TABLE1_SIZES
    return DEFAULT.scaled(
        num_train=max(64, 32 * round(train * share / 32)),
        num_dev=max(32, round(dev * share)),
        num_test=max(32, round(test * share)),
        corpus_seed=seed,
        epochs=1,
    )


def build_table1(scale) -> Table1Stack:
    """What ``run_system`` builds for the row before it trains."""
    spec = TABLE1_SPEC
    corpus = generate_corpus(scale.synthetic_config())
    train_ds, dev_ds, test_ds = prepare_datasets(corpus, scale, spec.source_mode)
    model = build_model(
        spec.family,
        scale.model_config(seed_offset=spec.seed_offset),
        len(train_ds.encoder_vocab),
        len(train_ds.decoder_vocab),
        **spec.model_kwargs,
    )
    if scale.use_pretrained_embeddings:
        _apply_pretrained_embeddings(model, train_ds, scale)
    trainer = Trainer(
        model,
        BatchIterator(train_ds, batch_size=scale.batch_size,
                      seed=scale.model_seed + spec.seed_offset),
        BatchIterator(dev_ds, batch_size=scale.batch_size, shuffle=False),
        scale.trainer_config(),
    )
    return Table1Stack(test_ds, model, trainer)


def run_table1(seed: int, seconds: float, tracer: Tracer) -> dict:
    traced = tracer.recording
    tracer.recording = False
    scale = table1_scale(seed, seconds)
    speed = HostSpeed()
    stack, setup_times, setup_slowdowns = _timed_setups(lambda: build_table1(scale), speed)
    model, trainer = stack.model, stack.trainer
    clock = time.perf_counter

    profiles: list[tuple[int, int]] = []
    if traced:
        instrument_model(model, tracer)
        tracer.wrap(model, "loss", "models.loss")
        tracer.wrap(trainer.optimizer, "step", "optim.step")
        untraced_batch = trainer.train_batch

        def profiled_batch(batch):
            with TapeProfile() as profile:
                result = untraced_batch(batch)
            profiles.append((profile.nodes, profile.elements))
            return result

        trainer.train_batch = profiled_batch
        tracer.wrap(trainer, "train_batch", "training.batch")
        tracer.wrap(trainer, "evaluate_loss", "training.dev_loss")

    batch_spans: list[tuple[float, float]] = []
    batch_tokens: list[int] = []
    losses: list[float] = []
    dev_seconds = [0.0]
    inner_batch, inner_dev = trainer.train_batch, trainer.evaluate_loss

    def sample_host_speed():
        # A span of its own keeps the samples out of the enclosing spans'
        # self times.
        with tracer.span("bench.host_speed"):
            for _ in range(BATCH_SAMPLES):
                speed.sample()

    def timed_batch(batch):
        start = clock()
        loss, norm = inner_batch(batch)
        batch_spans.append((start, clock()))
        losses.append(loss)
        batch_tokens.append(batch.num_target_tokens)
        sample_host_speed()
        return loss, norm

    def timed_dev(iterator):
        start = clock()
        try:
            return inner_dev(iterator)
        finally:
            dev_seconds[0] += clock() - start

    trainer.train_batch = timed_batch
    trainer.evaluate_loss = timed_dev

    # evaluate_model resolves the name batched_beam_decode at call time.
    original_decode = evaluator.batched_beam_decode
    decode_spans: list[tuple[float, float, int]] = []
    tracer.recording = traced
    try:
        if traced:
            tracer.wrap(evaluator, "batched_beam_decode", "decoding.batched_beam")
        inner_decode = evaluator.batched_beam_decode

        def timed_decode(decode_model, batch, *args, **kwargs):
            start = clock()
            hypotheses = inner_decode(decode_model, batch, *args, **kwargs)
            decode_spans.append((start, clock(), len(batch.examples)))
            sample_host_speed()
            return hypotheses

        evaluator.batched_beam_decode = timed_decode
        start = clock()
        with tracer.span("training.train"):
            history = trainer.train()
        train_wall = clock() - start
        start = clock()
        with tracer.span("evaluation.evaluate_model"):
            result = evaluator.evaluate_model(
                model, stack.test_ds,
                beam_size=scale.beam_size,
                max_length=scale.max_decode_length,
                batch_size=scale.batch_size,
            )
        eval_wall = clock() - start
    finally:
        tracer.recording = False
        evaluator.batched_beam_decode = original_decode

    violations = []
    nonfinite = sum(1 for loss in losses if not np.isfinite(loss))
    dev_losses = [record.dev_loss for record in history.records]
    if nonfinite or not all(np.isfinite(dev_losses)):
        violations.append(f"non-finite loss ({nonfinite} batches, dev {dev_losses})")
    if len(result.predictions) + result.skipped != len(stack.test_ds):
        violations.append("evaluation did not cover the test split")
    if result.skipped:
        violations.append(f"{result.skipped} test examples failed to decode")

    work_wall = train_wall + eval_wall
    attempted = len(batch_spans) + len(stack.test_ds)
    failed = nonfinite + result.skipped
    times = np.array([end - start for start, end in batch_spans])
    counts = np.asarray(batch_tokens)
    decode_times = np.array([end - start for start, end, _ in decode_spans])
    decoded = sum(n for _, _, n in decode_spans)
    measured = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": _percentile_ms(times, 50),
        "questions_per_s": decoded / decode_times.sum(),
        "peak_rss_mb": _peak_rss_mb(),
    }
    # Each training step or decode batch against the samples taken just
    # before and just after it.
    slowdowns = np.array([
        speed.slowdown(start - NEAR_S, end + NEAR_S) for start, end in batch_spans
    ])
    decode_slowdowns = np.array([
        speed.slowdown(start - NEAR_S, end + NEAR_S) for start, end, _ in decode_spans
    ])
    scaled = times / slowdowns
    host_slowdown = float(np.mean(np.concatenate([slowdowns, decode_slowdowns])))
    end_to_end = dict(
        measured,
        setup_s=statistics.median(t / s for t, s in zip(setup_times, setup_slowdowns)),
        op_p50_ms=_percentile_ms(scaled, 50),
        questions_per_s=decoded / float(np.sum(decode_times / decode_slowdowns)),
    )
    layer_extra = {
        "latency_p90_ms": _percentile_ms(times, 90),
        "latency.tail_ms": _tail_ms(times),
        "latency.samples": len(times),
        "train_tokens_per_s": counts.sum() / (train_wall - dev_seconds[0]),
        "eval_examples_per_s": len(result.predictions) / eval_wall,
        "table1_row_s": work_wall,
    }
    if profiles:
        layer_extra["tensor.tape_nodes_per_batch"] = float(np.mean([p[0] for p in profiles]))
        layer_extra["tensor.tape_elements_per_batch"] = float(np.mean([p[1] for p in profiles]))
    return {
        "config": {
            "system": TABLE1_SPEC.label,
            "train_examples": scale.num_train, "dev_examples": scale.num_dev,
            "test_examples": scale.num_test, "corpus_seed": scale.corpus_seed,
            "embedding_dim": scale.embedding_dim, "hidden_size": scale.hidden_size,
            "num_layers": scale.num_layers, "dropout": scale.dropout,
            "batch_size": scale.batch_size, "epochs": 1,
            "paragraph_length": scale.paragraph_length,
            "beam_size": scale.beam_size, "max_decode_length": scale.max_decode_length,
        },
        "setup_times_s": setup_times,
        "setup_slowdowns": setup_slowdowns,
        "end_to_end": end_to_end,
        "measured_end_to_end": measured,
        "host_slowdown": host_slowdown,
        "host_samples": len(speed.samples),
        "layer_extra": layer_extra,
        "measured_wall_s": work_wall,
        "busy_wall_s": work_wall,
        "busy_scaled_s": work_wall / host_slowdown,
        "attempted": attempted,
        "failed": failed,
        "violations": violations,
        "outputs_digest": _digest([repr(losses), result.predictions]),
        "scores": result.scores,
    }


def run_workload(workload: str, seed: int, seconds: float, tracer: Tracer) -> dict:
    """One run of ``workload``; records spans into ``tracer`` when it is
    recording. The record's ``end_to_end`` holds every :data:`E2E_METRICS`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "table1_row":
        return run_table1(seed, seconds, tracer)
    return run_serving(workload, seed, seconds, tracer)
