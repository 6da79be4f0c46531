"""Self-test of the benchmark harness in ``bench/`` at a seconds-scale size.

Runs every workload, untraced and traced, through the same code as
``bench/run.py``; checks that every named metric is reported with its unit,
that spans cover at least 90% of the measured wall time, that tracing
leaves outputs unchanged, and that the correctness gate catches a single
flipped output token.
"""

import dataclasses
import functools
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_DIR = os.path.join(ROOT, "bench")
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SECONDS = 0.5
SEED = 5
CORPUS = functools.lru_cache(maxsize=None)(workloads.generate_corpus)
"""The synthetic corpus is a pure function of its config; generating it
once per config keeps the suite within seconds."""


@pytest.fixture(autouse=True)
def small_runs(monkeypatch):
    """The same code with smaller counts: one set-up, 2 warm-up requests,
    8 hot sources, outputs of at most 12 tokens, 8 outstanding requests,
    16 per closed round and 8 outputs checked by the gate."""
    monkeypatch.setattr(workloads, "generate_corpus", CORPUS)
    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "WARMUP_REQUESTS", 2)
    monkeypatch.setattr(workloads, "HOT_SOURCES", 8)
    monkeypatch.setattr(workloads, "MAX_LENGTHS", (4, 8, 12))
    monkeypatch.setattr(workloads, "OUTSTANDING", 8)
    monkeypatch.setattr(workloads, "CLOSED_ROUND", 16)
    monkeypatch.setattr(workloads, "GATE_SAMPLE", 8)


def assert_result_line(line, catalog):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == set(catalog)
    for name, (unit, _) in catalog.items():
        assert line["metrics"][name]["unit"] == unit
        assert isinstance(line["metrics"][name]["value"], float)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric_and_tracing_is_inert(workload):
    untraced = run.run_untraced(workload, SEED, SECONDS)
    line = run.result_line(untraced)
    assert_result_line(line, workloads.E2E_METRICS)
    assert line["correct"], untraced["violations"]
    assert all(line["metrics"][name]["value"] > 0 for name in workloads.E2E_METRICS)

    traced = run.run_traced(workload, SEED, SECONDS, untraced=untraced)
    assert traced["span_count"] > 0
    # Covers the 90% span coverage and the output identity: either one
    # failing is a violation.
    assert traced["violations"] == []
    assert traced["unattributed_fraction"] <= run.MAX_UNATTRIBUTED
    assert traced["outputs_digest"] == untraced["outputs_digest"]
    assert_result_line(run.result_line(traced), LAYER_METRICS)


def test_gate_fails_when_one_served_token_is_flipped(monkeypatch):
    build = workloads.build_serving

    def build_with_flipping_engine(workload, tracer):
        stack = build(workload, tracer)
        step = stack.frontend.step

        def flipping_step():
            # The first token of every served output: the gate samples 32
            # of them, so one flip per output is sure to be in its sample.
            outcomes = []
            for outcome in step():
                if outcome.status == "served":
                    tokens = ("flipped",) + outcome.result.tokens[1:]
                    result = dataclasses.replace(
                        outcome.result, tokens=tokens, question=" ".join(tokens)
                    )
                    outcome = dataclasses.replace(outcome, result=result)
                outcomes.append(outcome)
            return outcomes

        stack.frontend.step = flipping_step
        return stack

    monkeypatch.setattr(workloads, "build_serving", build_with_flipping_engine)
    record = run.run_untraced("serve_hot", SEED, SECONDS)
    assert any("differs from solo serve" in v for v in record["violations"])
    assert run.result_line(record)["correct"] is False


def test_host_speed_averages_samples_in_the_window_or_takes_the_nearest():
    speed = workloads.HostSpeed()
    reference = workloads.HostSpeed.REFERENCE_S
    power = workloads.HostSpeed.EXPONENT
    speed.samples = [reference, 2 * reference, 4 * reference]
    speed.taken_at = [1.0, 2.0, 3.0]
    assert speed.slowdown(1.5, 3.5) == pytest.approx(3.0 ** power)
    assert speed.slowdown(2.3, 2.4) == pytest.approx(2.0 ** power)
    assert speed.slowdown(0.0, 0.5) == pytest.approx(1.0)
    assert speed.slowdown(5.0, 6.0) == pytest.approx(4.0 ** power)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
