"""End-to-end serving smoke test: a 200-request chaos fleet, fully checked.

    PYTHONPATH=src python scripts/serving_smoke.py [output_dir]

Builds a tiny ACNN, wraps it in the hardened inference service with every
fault type armed at a 10% per-request rate, and drives 200 requests (plus
a sprinkle of garbage traffic) through the continuous-batching engine on
a manual clock. Then checks the serving layer's whole contract:

1. zero uncaught exceptions — every request resolves to a typed outcome;
2. >= 90% of the valid requests are served (any degradation rung counts);
3. the accounting is consistent: outcomes, the service ledger, and the
   telemetry counters all agree, rung-by-rung and shed-reason-by-reason;
4. faults were actually injected (the run proves resilience, not luck);
5. a second run with the same seed is byte-identical;
6. the telemetry trace is schema-valid end to end;
7. a mixed-length chaos fleet through the continuous-batching engine is
   byte-identical across repeat runs; its served-requests per simulated
   second (per-boundary stall faults advance a manual clock at every
   encode/decode step, so "time" is deterministic step accounting) is
   written to ``BENCH_continuous_batching.json`` in the repo root.

The trace is left under ``<output_dir>`` (default ``results/serving``) so
CI can upload it as an artifact. Exits non-zero on any violation.
"""

import os
import sys
from collections import Counter

import numpy as np

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

NUM_REQUESTS = 200
FAULT_RATE = 0.10
SEED = 7

SENTENCES = [
    "zorvex was born in karlin .",
    "mira designed the velkin tower .",
    "draxby is the capital of ostavia .",
    "the quen river flows through belcor .",
    "tovenka built the glass spire .",
    "the ilex bridge spans the morda .",
]
QUESTIONS = [
    "where was zorvex born ?",
    "who designed the velkin tower ?",
    "what is the capital of ostavia ?",
    "what river flows through belcor ?",
    "who built the glass spire ?",
    "what spans the morda ?",
]
GARBAGE = ["", "   ", "\t", "zzzq xxkw qqpy vvmn jjwz"]  # rejected, not crashed


def build_fleet(trace_path: str | None):
    from repro.data import QGDataset, QGExample
    from repro.models import ModelConfig, build_model
    from repro.observability import JsonlSink, Telemetry
    from repro.serving import (
        AdmissionPolicy,
        ContinuousBatchingEngine,
        EngineConfig,
        FaultPlan,
        InferenceService,
        ManualClock,
        ServiceConfig,
    )

    examples = [
        QGExample(sentence=tuple(s.split()), paragraph=tuple(s.split()),
                  question=tuple(q.split()))
        for s, q in zip(SENTENCES, QUESTIONS)
    ]
    encoder, decoder = QGDataset.build_vocabs(examples, 100, 100)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=3)
    model = build_model("acnn", config, len(encoder), len(decoder))

    telemetry = Telemetry([JsonlSink(trace_path)]) if trace_path else Telemetry([])
    service = InferenceService(
        model,
        encoder,
        decoder,
        policy=AdmissionPolicy(max_source_tokens=12),
        config=ServiceConfig(default_deadline_seconds=2.0),
        clock=ManualClock(),
        telemetry=telemetry,
        fault_plan=FaultPlan(
            seed=SEED,
            per_request=True,
            nan_rate=FAULT_RATE,
            slow_rate=FAULT_RATE,
            error_rate=FAULT_RATE,
            slow_seconds=0.2,
        ),
    )
    engine = ContinuousBatchingEngine(
        service, EngineConfig(max_rows=12, queue_limit=16, admit_per_step=4)
    )
    return service, engine, telemetry


def request_texts() -> list[str]:
    words = sorted({w for s in SENTENCES for w in s.split() if w != "."})
    rng = np.random.default_rng(555)
    texts = []
    for index in range(NUM_REQUESTS):
        if index % 40 == 17:  # garbage traffic rides along
            texts.append(GARBAGE[(index // 40) % len(GARBAGE)])
        else:
            size = int(rng.integers(3, 7))
            texts.append(" ".join(rng.choice(words, size=size)))
    return texts


def run_fleet(trace_path: str | None):
    from repro.serving import GenerationRequest

    service, engine, telemetry = build_fleet(trace_path)
    outcomes = []
    for index, text in enumerate(request_texts()):
        outcome = engine.submit(
            GenerationRequest(text, request_id=f"req-{index:03d}", beam_size=3, max_length=12)
        )
        if outcome is not None:
            outcomes.append(outcome)
        if (index + 1) % 4 == 0:
            outcomes.extend(engine.drain())
    outcomes.extend(engine.drain())
    report = service.report()
    telemetry.close()
    return outcomes, report


def rows(outcomes):
    out = []
    for o in sorted(outcomes, key=lambda o: o.request_id):
        if o.result is not None:
            out.append((o.request_id, o.status, o.result.tokens, o.result.rung, o.result.attempts))
        else:
            out.append((o.request_id, o.status, o.error, o.reason))
    return out


# ----------------------------------------------------------------------
# Continuous-batching throughput under a mixed-length chaos fleet
# ----------------------------------------------------------------------
BENCH_REQUESTS = 96
STEP_SECONDS = 0.05
LENGTH_MIX = [4, 8, 12]  # cohabiting short/medium/long requests


def build_bench_service():
    """A service whose every encode/step boundary costs STEP_SECONDS of
    simulated time (batch-size-independent step cost), with a sprinkle of
    NaN and error chaos riding along — all on a manual clock."""
    from repro.data import QGDataset, QGExample
    from repro.models import ModelConfig, build_model
    from repro.observability import Telemetry
    from repro.serving import (
        AdmissionPolicy,
        FaultPlan,
        InferenceService,
        ManualClock,
        ServiceConfig,
    )

    examples = [
        QGExample(sentence=tuple(s.split()), paragraph=tuple(s.split()),
                  question=tuple(q.split()))
        for s, q in zip(SENTENCES, QUESTIONS)
    ]
    encoder, decoder = QGDataset.build_vocabs(examples, 100, 100)
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=3)
    model = build_model("acnn", config, len(encoder), len(decoder))
    clock = ManualClock()
    service = InferenceService(
        model,
        encoder,
        decoder,
        policy=AdmissionPolicy(max_source_tokens=12),
        # Deadlines off the table: this phase measures pure throughput.
        config=ServiceConfig(default_deadline_seconds=10_000.0),
        clock=clock,
        telemetry=Telemetry([]),
        fault_plan=FaultPlan(
            seed=SEED,
            slow_rate=1.0,
            slow_seconds=STEP_SECONDS,
            nan_rate=0.01,
            error_rate=0.01,
        ),
    )
    return service, clock


def bench_requests():
    from repro.serving import GenerationRequest

    words = sorted({w for s in SENTENCES for w in s.split() if w != "."})
    rng = np.random.default_rng(777)
    requests = []
    for index in range(BENCH_REQUESTS):
        size = int(rng.integers(3, 7))
        requests.append(
            GenerationRequest(
                " ".join(rng.choice(words, size=size)),
                request_id=f"bench-{index:03d}",
                beam_size=3,
                max_length=LENGTH_MIX[index % len(LENGTH_MIX)],
            )
        )
    return requests


def run_continuous_bench():
    from repro.serving import ContinuousBatchingEngine, EngineConfig

    service, clock = build_bench_service()
    engine = ContinuousBatchingEngine(
        service,
        EngineConfig(max_rows=12, queue_limit=BENCH_REQUESTS, admit_per_step=4),
    )
    outcomes = []
    for request in bench_requests():
        outcome = engine.submit(request)
        if outcome is not None:
            outcomes.append(outcome)
    outcomes.extend(engine.drain())
    return outcomes, clock.now(), service, engine


def run_throughput_bench(bench_path: str):
    import json

    continuous_outcomes, continuous_seconds, service, engine = run_continuous_bench()

    repeat_outcomes, repeat_seconds, _, _ = run_continuous_bench()
    assert rows(continuous_outcomes) == rows(repeat_outcomes), (
        "continuous bench differs across identical runs"
    )
    assert continuous_seconds == repeat_seconds

    continuous_served = sum(1 for o in continuous_outcomes if o.status == "served")
    assert len(continuous_outcomes) == BENCH_REQUESTS
    assert continuous_served >= 0.9 * BENCH_REQUESTS
    continuous_rate = continuous_served / continuous_seconds

    payload = {
        "benchmark": "continuous_batching",
        "description": (
            "served-requests per simulated second, mixed-length chaos fleet "
            "(beam 3, lengths 4/8/12 interleaved) through the step-level "
            "continuous-batching engine. Every encode/decode boundary costs "
            "one deterministic clock stall, so throughput is pure step "
            "accounting; NaN/error chaos rides along."
        ),
        "command": "PYTHONPATH=src python scripts/serving_smoke.py",
        "requests": BENCH_REQUESTS,
        "step_seconds": STEP_SECONDS,
        "length_mix": LENGTH_MIX,
        "continuous": {
            "frontend": "ContinuousBatchingEngine(max_rows=12, admit_per_step=4)",
            "served": continuous_served,
            "sim_seconds": round(continuous_seconds, 2),
            "served_per_sim_second": round(continuous_rate, 3),
            "engine_stats": engine.stats.as_dict(),
        },
        "byte_identical_repeat": True,
    }
    with open(bench_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print(
        f"      continuous: {continuous_served}/{BENCH_REQUESTS} served in "
        f"{continuous_seconds:.2f}s sim -> {continuous_rate:.3f} req/s", flush=True,
    )
    return payload


def main() -> int:
    from repro.observability import read_trace

    output_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join("results", "serving")
    os.makedirs(output_dir, exist_ok=True)
    trace_path = os.path.join(output_dir, "trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)

    print(f"[1/5] chaos fleet: {NUM_REQUESTS} requests, {FAULT_RATE:.0%} fault rate "
          f"per kind -> {trace_path}", flush=True)
    outcomes, report = run_fleet(trace_path)

    assert len(outcomes) == NUM_REQUESTS, (
        f"request accounting leak: {len(outcomes)} outcomes for {NUM_REQUESTS} requests"
    )
    statuses = Counter(o.status for o in outcomes)
    valid = NUM_REQUESTS - statuses.get("rejected", 0)
    served = statuses.get("served", 0)
    print(f"      outcomes: {dict(statuses)}; injected: {report['injected']}", flush=True)
    assert sum(report["injected"].values()) > 0, "no faults injected; chaos proves nothing"
    assert served >= 0.9 * valid, f"served {served}/{valid} valid requests (< 90%)"

    print("[2/5] checking ledger consistency", flush=True)
    assert report["served"] == served
    assert report["rejected"] == statuses.get("rejected", 0)
    assert report["shed"] == statuses.get("shed", 0)
    assert report["failed"] == statuses.get("failed", 0)
    assert sum(report["served_by_rung"].values()) == served
    assert sum(report["shed_by_reason"].values()) == report["shed"]

    print("[3/5] validating the telemetry trace", flush=True)
    records = list(read_trace(trace_path))  # raises SchemaViolation on any bad line
    counters = Counter()
    for record in records:
        if record["kind"] == "counter":
            counters[record["name"]] += record["value"]
    assert counters.get("serving.served", 0) == served, "serving.served counter drifted"
    for rung, count in report["served_by_rung"].items():
        assert counters.get(f"serving.rung.{rung}", 0) == count, f"rung counter {rung} drifted"
    for reason, count in report["shed_by_reason"].items():
        assert counters.get(f"serving.shed.{reason}", 0) == count, f"shed counter {reason} drifted"

    print("[4/5] repeat run must be byte-identical", flush=True)
    outcomes_again, report_again = run_fleet(None)
    assert rows(outcomes) == rows(outcomes_again), "outputs differ across identical runs"
    assert report == report_again, "accounting differs across identical runs"

    bench_path = os.path.join(REPO_ROOT, "BENCH_continuous_batching.json")
    print(f"[5/5] continuous-batching throughput -> {bench_path}", flush=True)
    bench = run_throughput_bench(bench_path)

    degraded = served - report["served_by_rung"].get("beam", 0)
    print(
        f"serving smoke test: OK ({served}/{valid} valid requests served, "
        f"{degraded} degraded, {statuses.get('rejected', 0)} rejected, "
        f"{report['shed']} shed, {report['failed']} failed; "
        f"{sum(report['injected'].values())} faults injected; "
        f"continuous batching {bench['continuous']['served_per_sim_second']:.3f} "
        f"served/sim-s)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
