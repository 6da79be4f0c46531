"""One benchmark command: end-to-end metrics, per-layer breakdown, correctness.

Run from the repository root::

    python3 bench/run.py --workload serve_unique --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1 --out bench/results/pass.json
    python3 bench/run.py --all --trace 1 --out bench/results/traced.json
    python3 bench/run.py --repeat 10 --workload serve_hot

With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. A traced run first runs the same workload and seed untraced
in a child process, each for half of ``--seconds``; the difference in busy
time, scaled for host speed, is the tracing overhead, and the two runs'
outputs must be identical. Spans are written to
``bench/out/``. ``--all`` runs each workload in a fresh child process and
writes one result with provenance; ``--repeat N`` runs each workload N
times on seeds ``seed .. seed+N-1`` and reports medians and quartiles.
The exit code is non-zero on any correctness violation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
MAX_UNATTRIBUTED = 0.10
CHILD_TIMEOUT_S = 110
"""A run takes 20-50 s; a traced run waits for its untraced child and must
still end within 180 s."""
BLAS_THREADS = "1"
"""One BLAS thread per process, set before numpy loads. With the default
(one per CPU) the same seed's capacity moved by 20% between runs on a
2-CPU host, and the pool's two workers oversubscribed both CPUs."""


def _import_program():
    """Put ``src/`` and this directory on the path; fail without a result
    when the program's sources are not there."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int, seconds: float) -> dict:
    import numpy
    from workloads import HostSpeed

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "host_speed_reference_s": HostSpeed.REFERENCE_S,
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "seed": seed,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# One workload in this process
# ----------------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    from tracing import Tracer
    from workloads import run_workload

    with contextlib.redirect_stdout(sys.stderr):
        record = run_workload(workload, seed, seconds, Tracer(recording=False))
    record.update(workload=workload, seed=seed, seconds=seconds, traced=False)
    return record


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; returns its full record."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--record"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: child exited {done.returncode} with no record")
    return json.loads(lines[-1])


def run_traced(workload: str, seed: int, seconds: float, untraced: dict | None = None) -> dict:
    """The traced run here, against an untraced run of the same workload
    and seed (by default made now, in a fresh child process)."""
    from tracing import Tracer, layer_metrics
    from workloads import run_workload

    if untraced is None:
        untraced = _child(workload, seed, seconds, trace=0)
    tracer = Tracer(recording=True)
    with contextlib.redirect_stdout(sys.stderr):
        record = run_workload(workload, seed, seconds, tracer)
    violations = list(record["violations"]) + [
        f"untraced run: {v}" for v in untraced["violations"]
    ]
    if record["outputs_digest"] != untraced["outputs_digest"]:
        violations.append("traced outputs differ from the untraced run's")

    extra = dict(record["layer_extra"])
    # Latency and generator timing as the untraced run saw them.
    for name in ("latency_p90_ms", "latency.tail_ms", "latency.samples",
                 "miss_fraction", "gen.lateness_p99_ms", "gen.idle_fraction",
                 "train_tokens_per_s", "eval_examples_per_s",
                 "table1_row_s"):
        if name in untraced["layer_extra"]:
            extra[name] = untraced["layer_extra"][name]
    extra["trace.overhead_fraction"] = record["busy_scaled_s"] / untraced["busy_scaled_s"] - 1.0
    layers = layer_metrics(tracer, extra, record["measured_wall_s"])
    unattributed = layers["trace.unattributed_fraction"]
    if unattributed > MAX_UNATTRIBUTED:
        violations.append(f"spans leave {unattributed:.1%} of wall time unattributed")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write_jsonl(spans_path)
    record.update(
        workload=workload, seed=seed, seconds=seconds, traced=True,
        violations=violations, layers=layers, unattributed_fraction=unattributed,
        untraced_end_to_end=untraced["end_to_end"], spans=os.path.relpath(spans_path, ROOT),
        span_count=len(tracer.spans),
    )
    return record


def result_line(record: dict) -> dict:
    """The one-line result: end-to-end metrics untraced, layer metrics traced."""
    from tracing import LAYER_METRICS
    from workloads import E2E_METRICS

    if record["traced"]:
        catalog, values = LAYER_METRICS, record["layers"]
    else:
        catalog, values = E2E_METRICS, record["end_to_end"]
    return {
        "correct": not record["violations"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in catalog.items()
        },
    }


def print_summary(record: dict) -> None:
    line = result_line(record)
    mode = "traced" if record["traced"] else "untraced"
    print(f"[{record['workload']}] seed {record['seed']}, {mode}: "
          f"{line['attempted']} attempted, {line['failed']} failed", file=sys.stderr)
    for name, metric in line["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}", file=sys.stderr)
    for violation in record["violations"]:
        print(f"  VIOLATION: {violation}", file=sys.stderr)


# ----------------------------------------------------------------------
# Several workloads, each in its own process
# ----------------------------------------------------------------------
def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        value = values[0]
        return {"median": value, "q1": value, "q3": value, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_all(workloads, seed: int, seconds: float, trace: int) -> dict:
    result = {"provenance": provenance(seed, seconds), "trace": bool(trace), "workloads": {}}
    for workload in workloads:
        started = time.perf_counter()
        record = _child(workload, seed, seconds, trace)
        record["process_wall_s"] = time.perf_counter() - started
        result["workloads"][workload] = record
    return result


def run_repeat(workloads, seed: int, seconds: float, repeat: int) -> dict:
    """``repeat`` untraced runs per workload, workloads interleaved so that
    a slow stretch of the host is shared rather than landing on one."""
    result = {"provenance": provenance(seed, seconds), "repeat": repeat, "workloads": {}}
    by_workload: dict[str, list[dict]] = {workload: [] for workload in workloads}
    for offset in range(repeat):
        for workload in workloads:
            by_workload[workload].append(_child(workload, seed + offset, seconds, trace=0))
    for workload, runs in by_workload.items():
        metrics, measured = ({
            name: _quartiles([r[key][name] for r in runs]) for name in runs[0][key]
        } for key in ("end_to_end", "measured_end_to_end"))
        for name, q in metrics.items():
            print(f"  {workload:13s} {name:18s} median {q['median']:10.4f} "
                  f"q1 {q['q1']:10.4f} q3 {q['q3']:10.4f} spread {q['spread']:.3f} "
                  f"(as measured: {measured[name]['spread']:.3f})", file=sys.stderr)
        result["workloads"][workload] = {
            "config": runs[0]["config"],
            "metrics": metrics,
            "measured": measured,
            "violations": [v for r in runs for v in r["violations"]],
            "runs": [
                {key: r[key] for key in ("seed", "attempted", "failed", "end_to_end",
                                         "measured_end_to_end", "host_slowdown",
                                         "setup_times_s", "rounds")
                 if key in r}
                for r in runs
            ],
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default with --all/--repeat: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--repeat", type=int, default=0, help="runs per workload for the noise band")
    parser.add_argument("--out", help="write the --all/--repeat result JSON here")
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = BLAS_THREADS
    _import_program()
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    if args.all or args.repeat:
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        if args.repeat:
            result = run_repeat(chosen, args.seed, args.seconds, args.repeat)
        else:
            result = run_all(chosen, args.seed, args.seconds, args.trace)
        violations = [v for w in result["workloads"].values() for v in w["violations"]]
        if args.out:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(result, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 1 if violations else 0

    if args.workload is None:
        parser.error("give --workload, --all or --repeat")
    if args.trace:
        # Half the run untraced, half traced, on the same inputs, so a
        # traced run takes about as long as an untraced one.
        record = run_traced(args.workload, args.seed, args.seconds / 2)
    else:
        record = run_untraced(args.workload, args.seed, args.seconds)
    print_summary(record)
    print(json.dumps(record if args.record else result_line(record)), flush=True)
    return 1 if record["violations"] else 0


if __name__ == "__main__":
    sys.exit(main())
