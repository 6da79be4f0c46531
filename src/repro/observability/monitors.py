"""Health monitors: the watchers that turn raw runs into diagnosable ones.

- :func:`nonfinite_sentinel` — fires a ``health.*`` event the moment a loss
  or gradient norm goes NaN/inf, *before* the trainer raises and the
  resilience layer rolls back, so every
  :class:`~repro.training.history.RecoveryEvent` carries a machine-readable
  cause instead of a post-hoc guess.
- :func:`param_norm` — global L2 norm over a parameter list; with the
  per-batch pre-clip grad norm this gives the two curves that explain most
  divergences (paper recipe: SGD at lr=1.0).
- :func:`gate_statistics` — summarizes the paper's Eq. 2/4 switch gate
  ``z_k``: mean, Bernoulli entropy, and hard copy rate, from the raw sums
  the :class:`~repro.models.acnn.ACNN` accumulates during a forward pass.
- :class:`ThroughputMeter` — tokens/sec, hypotheses/sec and friends, timed
  with ``time.perf_counter`` and reported as ``<name>.per_sec`` gauges.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Sequence

import numpy as np

from repro.observability.telemetry import Telemetry

__all__ = [
    "nonfinite_sentinel",
    "param_norm",
    "gate_statistics",
    "emit_gate_statistics",
    "emit_state_transition",
    "scaling_efficiency",
    "process_rss_bytes",
    "ThroughputMeter",
]


def nonfinite_sentinel(
    telemetry: Telemetry,
    name: str,
    value: float,
    step: int | None = None,
    **context,
) -> bool:
    """Report ``value`` under ``health.<name>``; returns its finiteness.

    The non-finite reading itself is the payload (the schema admits
    NaN/inf only under ``health.*``), and a ``log`` event records the
    context so the terminal shows the failure the instant it happens.
    """
    finite = math.isfinite(value)
    if not finite:
        telemetry.gauge(f"health.{name}", float(value), step=step)
        details = " ".join(f"{k}={v}" for k, v in sorted(context.items()))
        telemetry.log(
            f"[health] non-finite {name} ({value}){' ' + details if details else ''}",
            step=step,
        )
    return finite


def param_norm(parameters: Sequence) -> float:
    """Global L2 norm over parameter tensors (``.data`` arrays)."""
    total = 0.0
    for parameter in parameters:
        data = np.asarray(parameter.data)
        total += float((data * data).sum())
    return math.sqrt(total)


def gate_statistics(z_sum: float, entropy_sum: float, copy_sum: float, tokens: int) -> dict:
    """Normalize accumulated switch-gate sums into the reported stats.

    ``z_sum``/``entropy_sum``/``copy_sum`` are sums over non-pad target
    tokens of: the gate value ``z_k``, its Bernoulli entropy
    ``-z ln z - (1-z) ln (1-z)`` (nats), and the hard copy indicator
    ``z_k > 0.5``.
    """
    if tokens <= 0:
        return {"z_mean": 0.0, "z_entropy": 0.0, "copy_rate": 0.0, "tokens": 0}
    return {
        "z_mean": z_sum / tokens,  # numerics: ok — tokens <= 0 returns early above
        "z_entropy": entropy_sum / tokens,  # numerics: ok — tokens <= 0 returns early above
        "copy_rate": copy_sum / tokens,  # numerics: ok — tokens <= 0 returns early above
        "tokens": int(tokens),
    }


def emit_gate_statistics(
    telemetry: Telemetry, prefix: str, stats: dict | None, step: int | None = None
) -> None:
    """Gauge a gate-stats dict under ``<prefix>.z_mean`` etc. (None = no-op)."""
    if not stats or not stats.get("tokens"):
        return
    telemetry.gauge(f"{prefix}.z_mean", stats["z_mean"], step=step)
    telemetry.gauge(f"{prefix}.z_entropy", stats["z_entropy"], step=step)
    telemetry.gauge(f"{prefix}.copy_rate", stats["copy_rate"], step=step)


def emit_state_transition(
    telemetry: Telemetry,
    name: str,
    old: str,
    new: str,
    step: int | None = None,
    **context,
) -> None:
    """Record a state-machine edge: one counter per edge plus a log line.

    Used by watchers whose *transitions* are the signal (the serving
    circuit breaker's closed/open/half-open walk); the counter name
    ``<name>.transition.<old>_to_<new>`` makes each edge individually
    countable from the trace.
    """
    telemetry.counter(f"{name}.transition.{old}_to_{new}", 1.0, step=step)
    details = " ".join(f"{k}={v}" for k, v in sorted(context.items()))
    telemetry.log(
        f"[{name}] {old} -> {new}{' ' + details if details else ''}", step=step
    )


def scaling_efficiency(busy_seconds: float, wall_seconds: float, world_size: int) -> float:
    """Fraction of the pool's wall-clock capacity spent computing.

    ``busy_seconds`` is the sum of per-micro-batch compute time reported by
    the workers; capacity is ``wall_seconds * world_size``. 1.0 means every
    worker computed the whole time (perfect scaling); the gap is dispatch,
    IPC, reduction, and supervision overhead. Degenerate windows (no wall
    time, empty pool) report 0.0 rather than dividing by zero.
    """
    capacity = wall_seconds * world_size
    if capacity <= 0.0 or busy_seconds < 0.0:
        return 0.0
    return min(1.0, busy_seconds / capacity)  # numerics: ok — capacity <= 0 returns early


def process_rss_bytes() -> int:
    """Resident-set size of the calling process, in bytes.

    Reads ``/proc/self/statm`` (instantaneous RSS); falls back to
    ``resource.getrusage`` (peak RSS, KiB on Linux) where proc is
    unavailable. Never raises — a platform with neither reports 0 rather
    than breaking a heartbeat path.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024
    except (ImportError, OSError, ValueError):  # pragma: no cover - exotic platform
        return 0


class ThroughputMeter:
    """Accumulates a count over a timed window and gauges ``count/sec``.

    Usable as a context manager (one window) or via ``start``/``stop`` for
    windows spanning several code regions. ``add`` is valid only while the
    window is open.
    """

    def __init__(
        self,
        telemetry: Telemetry,
        name: str,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.telemetry = telemetry
        self.name = name
        self._clock = clock
        self.count = 0.0
        self.seconds = 0.0
        self._started: float | None = None

    def start(self) -> "ThroughputMeter":
        self._started = self._clock()
        return self

    def add(self, count: float) -> None:
        if self._started is None:
            raise RuntimeError("ThroughputMeter.add outside an open window")
        self.count += count

    def stop(self, step: int | None = None) -> float:
        """Close the window, gauge the rate, return elapsed seconds."""
        if self._started is None:
            raise RuntimeError("ThroughputMeter.stop without start")
        elapsed = max(0.0, self._clock() - self._started)
        self._started = None
        self.seconds += elapsed
        self.telemetry.throughput(self.name, self.count, self.seconds, step=step)
        return elapsed

    def __enter__(self) -> "ThroughputMeter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.stop()
        else:
            self._started = None
