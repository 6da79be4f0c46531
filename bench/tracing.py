"""In-memory spans recorded from outside the program, and the layer metrics.

Nothing under ``src/`` knows it is traced. :meth:`Tracer.wrap` replaces a
public method on one object (an instance attribute shadows the class
method, so internal ``self.x(...)`` calls are seen too) with a version that
opens a :class:`~repro.observability.spans.SpanTracker` span around the
original call. Completed spans are kept in a list and written as JSONL when
the run ends; self times come from
:func:`~repro.observability.spans.build_span_tree`.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from repro.observability.spans import SpanRecord, SpanTracker, build_span_tree

__all__ = ["Tracer", "LAYER_METRICS", "layer_metrics"]


class Tracer:
    """Records nested spans of wrapped calls while :attr:`recording`."""

    def __init__(self, recording: bool = True) -> None:
        self.recording = recording
        """Wrapped calls record spans only while this is true, so warm-up
        and the correctness gate stay out of the measured trace."""
        self.spans: list[SpanRecord] = []
        self._tracker = SpanTracker(self.spans.append)

    def span(self, name: str, **extra):
        """A span of the benchmark's own, or nothing when not recording."""
        if not self.recording:
            return contextlib.nullcontext()
        return self._tracker.span(name, extra)

    def wrap(self, owner, method: str, name: str, attrs=None, request_id=None) -> None:
        """Shadow ``owner.method`` with a span-recording forwarder.

        ``attrs(*args)`` returns extra span fields from the call's
        arguments; ``request_id(*args)`` names the request it serves.
        """
        original = getattr(owner, method)

        def traced(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            extra = attrs(*args) if attrs else {}
            if request_id:
                extra["request_id"] = request_id(*args)
            with self._tracker.span(name, extra):
                return original(*args, **kwargs)

        setattr(owner, method, traced)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                extra = dict(span.extra or {})
                record = {
                    "id": span.span_id, "name": span.name, "start": span.start,
                    "end": span.start + span.duration, "parent": span.parent_id,
                    "request_id": extra.pop("request_id", None),
                }
                if extra:
                    record["attrs"] = extra
                handle.write(json.dumps(record) + "\n")


class _Span:
    __slots__ = ("name", "duration", "self_time", "ancestors", "extra")

    def __init__(self, node, ancestors: frozenset, extra) -> None:
        self.name = node.name
        self.duration = node.duration
        self.self_time = node.self_time
        self.ancestors = ancestors
        self.extra = extra or {}


def _flatten(spans: list[SpanRecord]) -> tuple[list[_Span], float]:
    """Every span with its self time and its ancestors' names, and the
    total duration of the top-level spans."""
    extra = {span.span_id: span.extra for span in spans}
    roots = build_span_tree([
        {"name": s.name, "span_id": s.span_id, "parent_id": s.parent_id,
         "duration": s.duration}
        for s in spans
    ])
    flat: list[_Span] = []
    stack = [(root, frozenset()) for root in roots]
    while stack:
        node, ancestors = stack.pop()
        flat.append(_Span(node, ancestors, extra[node.span_id]))
        below = ancestors | {node.name}
        stack.extend((child, below) for child in node.children)
    return flat, float(sum(root.duration for root in roots))


def _select(flat, name: str, under: str | None = None, not_under: str | None = None):
    return [
        s for s in flat
        if s.name == name
        and (under is None or under in s.ancestors)
        and (not_under is None or not_under not in s.ancestors)
    ]


def _total(spans) -> float:
    return float(sum(s.duration for s in spans))


def _mean_ms(seconds: float, count: int) -> float:
    return 1000.0 * seconds / count if count else 0.0


# name -> (unit, better). Every traced run reports all of them; a layer
# that does not run on a workload reads 0.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "models.encode_calls": ("count", "lower"),
    "models.encode_ms": ("ms", "lower"),
    "models.encode_ms_short": ("ms", "lower"),
    "models.encode_ms_long": ("ms", "lower"),
    "models.step_calls": ("count", "lower"),
    "models.step_ms": ("ms", "lower"),
    "models.step_rows_mean": ("rows", "higher"),
    "serving.cache.hit_ratio": ("ratio", "higher"),
    "serving.cache.lookup_ms": ("ms", "lower"),
    "serving.engine.steps": ("count", "lower"),
    "serving.engine.self_ms_per_step": ("ms", "lower"),
    "serving.engine.frontier_rows_mean": ("rows", "higher"),
    "serving.engine.queue_wait_p50_ms": ("ms", "lower"),
    "serving.requests.admit_ms": ("ms", "lower"),
    "miss_fraction": ("ratio", "lower"),
    "serving.pool.submit_ms": ("ms", "lower"),
    "serving.pool.pump_ms": ("ms", "lower"),
    "serving.pool.pump_calls": ("count", "lower"),
    "serving.pool.pump_fraction": ("ratio", "lower"),
    "serving.pool.worker_peak_rss_mb": ("MB", "lower"),
    "serving.pool.redispatched": ("count", "lower"),
    "training.batch_ms": ("ms", "lower"),
    "train_tokens_per_s": ("1/s", "higher"),
    "models.loss_ms": ("ms", "lower"),
    "training.backward_ms": ("ms", "lower"),
    "optim.step_ms": ("ms", "lower"),
    "tensor.tape_nodes_per_batch": ("count", "lower"),
    "tensor.tape_elements_per_batch": ("count", "lower"),
    "decoding.batched_beam.batch_ms": ("ms", "lower"),
    "decoding.batched_beam.self_ms_per_step": ("ms", "lower"),
    "evaluation.metrics_ms": ("ms", "lower"),
    "eval_examples_per_s": ("1/s", "higher"),
    "table1_row_s": ("s", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "latency.tail_ms": ("ms", "lower"),
    "latency.samples": ("count", "higher"),
    "gen.lateness_p99_ms": ("ms", "lower"),
    "gen.idle_fraction": ("ratio", "higher"),
    "trace.unattributed_fraction": ("ratio", "lower"),
    "trace.overhead_fraction": ("ratio", "lower"),
}

SHORT_SOURCE_TOKENS = 50
"""Encodes of sources up to this many real tokens count as ``_short``."""


def layer_metrics(tracer: Tracer, extra: dict[str, float], wall: float) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value from the spans plus ``extra``.

    ``extra`` carries what the benchmark counts itself (queue waits, cache
    stats, generator lateness, ...); ``wall`` is the measured phases'
    wall time that the top-level spans should cover.
    """
    flat, covered = _flatten(tracer.spans)
    values = {name: 0.0 for name in LAYER_METRICS}

    # Encodes inside the teacher-forced loss are training forward work.
    encodes = _select(flat, "models.encode", not_under="models.loss")
    values["models.encode_calls"] = float(len(encodes))
    values["models.encode_ms"] = _mean_ms(_total(encodes), len(encodes))
    for suffix, keep in (("short", True), ("long", False)):
        part = [s for s in encodes if (s.extra["source_tokens"] <= SHORT_SOURCE_TOKENS) == keep]
        values[f"models.encode_ms_{suffix}"] = _mean_ms(_total(part), len(part))
    steps = _select(flat, "models.step")
    values["models.step_calls"] = float(len(steps))
    values["models.step_ms"] = _mean_ms(_total(steps), len(steps))
    if steps:
        values["models.step_rows_mean"] = float(np.mean([s.extra["rows"] for s in steps]))

    lookups = [
        s for name in ("serving.cache.key_for", "serving.cache.get", "serving.cache.put")
        for s in _select(flat, name)
    ]
    keyed = len(_select(flat, "serving.cache.key_for"))
    values["serving.cache.lookup_ms"] = _mean_ms(_total(lookups), keyed)

    engine_steps = _select(flat, "serving.engine.step")
    values["serving.engine.steps"] = float(len(engine_steps))
    values["serving.engine.self_ms_per_step"] = _mean_ms(
        sum(s.self_time for s in engine_steps), len(engine_steps)
    )
    if engine_steps:
        values["serving.engine.frontier_rows_mean"] = float(
            np.mean([s.extra["frontier_rows"] for s in engine_steps])
        )
    admits = _select(flat, "serving.requests.admit")
    values["serving.requests.admit_ms"] = _mean_ms(_total(admits), len(admits))

    submits = _select(flat, "serving.pool.submit")
    pumps = _select(flat, "serving.pool.pump")
    values["serving.pool.submit_ms"] = _mean_ms(_total(submits), len(submits))
    values["serving.pool.pump_ms"] = _mean_ms(_total(pumps), len(pumps))
    values["serving.pool.pump_calls"] = float(len(pumps))
    if pumps and wall > 0:
        values["serving.pool.pump_fraction"] = _total(pumps) / wall

    batches = _select(flat, "training.batch")
    losses = _select(flat, "models.loss", under="training.batch")
    optim = _select(flat, "optim.step")
    values["training.batch_ms"] = _mean_ms(_total(batches), len(batches))
    values["models.loss_ms"] = _mean_ms(_total(losses), len(batches))
    values["optim.step_ms"] = _mean_ms(_total(optim), len(batches))
    values["training.backward_ms"] = _mean_ms(
        sum(s.self_time for s in batches), len(batches)
    )

    beams = _select(flat, "decoding.batched_beam")
    beam_steps = _select(flat, "models.step", under="decoding.batched_beam")
    values["decoding.batched_beam.batch_ms"] = _mean_ms(_total(beams), len(beams))
    values["decoding.batched_beam.self_ms_per_step"] = _mean_ms(
        sum(s.self_time for s in beams), len(beam_steps)
    )
    evaluations = _select(flat, "evaluation.evaluate_model")
    values["evaluation.metrics_ms"] = 1000.0 * sum(s.self_time for s in evaluations)

    values["trace.unattributed_fraction"] = max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0

    for name, value in extra.items():
        if name not in values:
            raise KeyError(f"unknown layer metric {name!r}")
        values[name] = float(value)
    return values
