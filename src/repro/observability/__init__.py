"""Run-level observability: structured telemetry, tracing spans, health monitors.

Every run (training, decoding, evaluation) reports through a
:class:`~repro.observability.telemetry.Telemetry` hub: typed events
(counters, gauges, histograms, spans, logs, run markers) appended to a
JSONL trace plus a human terminal summary. See docs/architecture.md,
"Observability & telemetry", for the event schema and span taxonomy.

Quick start::

    from repro.observability import Telemetry, JsonlSink, TerminalSink, use_telemetry

    tel = Telemetry([JsonlSink("runs/trace.jsonl"), TerminalSink()])
    with use_telemetry(tel):
        with tel.span("train"):
            ...
        tel.gauge("train.loss", 1.23, step=7)
    tel.close()
"""

from repro.observability.events import EVENT_KINDS, TelemetryEvent
from repro.observability.histogram import StreamingHistogram
from repro.observability.monitors import (
    ThroughputMeter,
    emit_gate_statistics,
    emit_state_transition,
    gate_statistics,
    nonfinite_sentinel,
    param_norm,
    process_rss_bytes,
    scaling_efficiency,
)
from repro.observability.schema import SchemaViolation, read_trace, validate_line, validate_record
from repro.observability.sinks import JsonlSink, MemorySink, Sink, TerminalSink
from repro.observability.spans import (
    SpanNode,
    SpanRecord,
    SpanTracker,
    aggregate_spans,
    build_span_tree,
)
from repro.observability.telemetry import (
    NullTelemetry,
    Telemetry,
    get_telemetry,
    use_telemetry,
)

__all__ = [
    "EVENT_KINDS",
    "TelemetryEvent",
    "StreamingHistogram",
    "ThroughputMeter",
    "emit_gate_statistics",
    "emit_state_transition",
    "gate_statistics",
    "nonfinite_sentinel",
    "param_norm",
    "process_rss_bytes",
    "scaling_efficiency",
    "SchemaViolation",
    "read_trace",
    "validate_line",
    "validate_record",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "TerminalSink",
    "SpanNode",
    "SpanRecord",
    "SpanTracker",
    "aggregate_spans",
    "build_span_tree",
    "NullTelemetry",
    "Telemetry",
    "get_telemetry",
    "use_telemetry",
]
