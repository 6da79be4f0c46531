"""Tape-level numerical anomaly detection with op provenance.

The ACNN loss chains softmax, a sigmoid switch gate, and ``log`` of a
two-way mixture (paper Eq. 5-7) — exactly the shape that mints ``inf`` or
``NaN`` silently and surfaces it far downstream (a non-finite epoch loss,
``NonFiniteLogits`` at serve time). This module moves detection to the op
that caused it, mirroring ``torch.autograd.detect_anomaly``:

    from repro.tensor.anomaly import detect_anomaly, NumericalAnomaly

    with detect_anomaly():
        loss = model.loss(batch)   # every op output is checked
        loss.backward()            # every gradient write is checked

While the context is active, every tape op records provenance (op name,
input/output shapes and dtypes, and the user-code creation site) on its
output tensor. The first non-finite forward output or backward gradient
raises :class:`NumericalAnomaly` carrying the op's :class:`OpRecord` and
the causal chain of producing ops, and emits a structured ``anomaly.*``
telemetry event through the ambient hub so the trainer's
``RecoveryEvent.cause`` can name the culprit op instead of guessing.

The mode is strictly opt-in: with no active context the per-op cost is one
falsy check in ``Tensor._from_op`` (the same pattern as
:class:`~repro.tensor.profiler.TapeProfile`).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.tensor import core
from repro.tensor.core import Tensor

__all__ = [
    "OpRecord",
    "NumericalAnomaly",
    "detect_anomaly",
    "is_anomaly_enabled",
    "provenance_of",
]

# Frames whose filenames end with one of these are tape internals; the
# creation site reported for an op is the innermost frame *outside* them.
_INTERNAL_SUFFIXES = (
    "repro/tensor/core.py",
    "repro/tensor/ops.py",
    "repro/tensor/anomaly.py",
    "repro/nn/functional.py",
    "repro/nn/numerics.py",
)

_UNKNOWN_SITE = "<unknown>"


def _op_name_from_backward(backward_fn: Callable) -> str:
    """Derive the op name from the backward closure's qualname.

    Every differentiable op defines its backward as a local function, so
    ``tanh.<locals>.backward`` → ``tanh`` and
    ``Tensor.__add__.<locals>.backward`` → ``__add__`` — no per-op changes
    needed to know which op a tape node belongs to.
    """
    qualname = getattr(backward_fn, "__qualname__", "")
    if not qualname:
        return "<op>"
    return qualname.split(".<locals>")[0].split(".")[-1]


def _creation_site() -> str:
    """``file.py:line in function`` of the innermost non-internal frame."""
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename.replace("\\", "/")
        if not filename.endswith(_INTERNAL_SUFFIXES):
            short = "/".join(filename.split("/")[-2:])
            return f"{short}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return _UNKNOWN_SITE


def _nonfinite_kind(array: np.ndarray) -> str | None:
    """``'nan'`` / ``'inf'`` if the array holds such values, else None."""
    if np.isnan(array).any():
        return "nan"
    if np.isinf(array).any():
        return "inf"
    return None


@dataclass(frozen=True)
class OpRecord:
    """Provenance of one tape op, recorded while anomaly mode is active."""

    op: str
    """Op name (``softmax``, ``__matmul__``, ``lstm_cell_step``,
    ``lstm_sequence`` ...): the name of the function that defines the op's
    backward closure, so fused kernels define theirs inline."""
    seq: int
    """Creation order within the anomaly context (0-based)."""
    site: str
    """User-code creation site, ``file.py:line in function``."""
    input_shapes: tuple[tuple[int, ...], ...]
    input_dtypes: tuple[str, ...]
    output_shape: tuple[int, ...]
    output_dtype: str
    parents: tuple["OpRecord | None", ...] = field(default=(), repr=False)
    """Provenance of each input (None for leaf tensors)."""

    def describe(self) -> str:
        shapes = ", ".join(str(s) for s in self.input_shapes) or "-"
        return (
            f"{self.op} [{self.site}] "
            f"inputs ({shapes}) -> {self.output_shape} {self.output_dtype}"
        )

    def to_payload(self) -> dict:
        """JSON-safe summary for the ``anomaly`` telemetry event."""
        return {
            "op": self.op,
            "seq": self.seq,
            "site": self.site,
            "input_shapes": [list(s) for s in self.input_shapes],
            "output_shape": list(self.output_shape),
            "output_dtype": self.output_dtype,
        }


class NumericalAnomaly(ArithmeticError):
    """A tape op produced a non-finite forward output or backward gradient.

    Attributes
    ----------
    op:
        Name of the culprit op (the op that minted the first non-finite
        value — for ``phase='backward'``, the op whose backward pass wrote
        the gradient).
    phase:
        ``'forward'`` or ``'backward'``.
    kind:
        ``'nan'`` or ``'inf'``.
    record:
        Full :class:`OpRecord` of the culprit op.
    chain:
        Causal chain of :class:`OpRecord` from the earliest recorded
        producer down to the culprit (depth-limited).
    """

    def __init__(
        self,
        message: str,
        *,
        op: str,
        phase: str,
        kind: str,
        record: OpRecord,
        chain: list[OpRecord],
    ) -> None:
        super().__init__(message)
        self.op = op
        self.phase = phase
        self.kind = kind
        self.record = record
        self.chain = chain

    def chain_summary(self) -> str:
        lines = [f"  {'^' if i else '!'} {r.describe()}" for i, r in enumerate(self.chain)]
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """JSON-safe payload emitted as the ``anomaly`` run event."""
        return {
            "op": self.op,
            "phase": self.phase,
            "kind": self.kind,
            "site": self.record.site,
            "chain": [r.to_payload() for r in self.chain],
        }


def _build_chain(record: OpRecord, max_depth: int = 12) -> list[OpRecord]:
    """Culprit-first causal chain: the op, then its producers upward."""
    chain: list[OpRecord] = []
    seen: set[int] = set()
    frontier: list[OpRecord] = [record]
    while frontier and len(chain) < max_depth:
        node = frontier.pop(0)
        if id(node) in seen:
            continue
        seen.add(id(node))
        chain.append(node)
        # Most-recent producers first: they are the likeliest causes.
        parents = [p for p in node.parents if p is not None]
        parents.sort(key=lambda r: -r.seq)
        frontier.extend(parents)
    return chain


class _AnomalyState:
    """Per-context bookkeeping installed on ``core._ANOMALY``."""

    def __init__(self, check_forward: bool, check_backward: bool, emit_telemetry: bool) -> None:
        self.check_forward = check_forward
        self.check_backward = check_backward
        self.emit_telemetry = emit_telemetry
        self._seq = 0
        # The op whose backward closure is currently executing; gradient
        # writes observed inside it are attributed to this op.
        self._backward_record: OpRecord | None = None

    # -- forward ------------------------------------------------------
    def on_op(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn: Callable) -> None:
        record = OpRecord(
            op=_op_name_from_backward(backward_fn),
            seq=self._seq,
            site=_creation_site(),
            input_shapes=tuple(p.data.shape for p in parents),
            input_dtypes=tuple(str(p.data.dtype) for p in parents),
            output_shape=out.data.shape,
            output_dtype=str(out.data.dtype),
            parents=tuple(provenance_of(p) for p in parents),
        )
        self._seq += 1
        out._provenance = record
        if not self.check_forward:
            return
        kind = _nonfinite_kind(out.data)
        if kind is None:
            return
        poisoned = [
            i for i, p in enumerate(parents) if _nonfinite_kind(p.data) is not None
        ]
        note = (
            f" (input #{poisoned[0]} was already non-finite)" if poisoned else ""
        )
        self._raise(
            f"op {record.op!r} produced {kind} in its forward output "
            f"at {record.site}{note}",
            phase="forward",
            kind=kind,
            record=record,
        )

    # -- backward -----------------------------------------------------
    def enter_backward(self, node: Tensor) -> None:
        self._backward_record = provenance_of(node)

    def exit_backward(self) -> None:
        self._backward_record = None

    def on_grad(self, target: Tensor, grad: np.ndarray) -> None:
        if not self.check_backward:
            return
        kind = _nonfinite_kind(grad)
        if kind is None:
            return
        record = self._backward_record or provenance_of(target)
        if record is None:
            # Gradient seeded directly into a leaf (backward(grad=...)).
            record = OpRecord(
                op="<seed>",
                seq=-1,
                site=_creation_site(),
                input_shapes=(),
                input_dtypes=(),
                output_shape=target.data.shape,
                output_dtype=str(target.data.dtype),
            )
        self._raise(
            f"op {record.op!r} produced {kind} in its backward gradient "
            f"(forward site {record.site})",
            phase="backward",
            kind=kind,
            record=record,
        )

    # -- shared -------------------------------------------------------
    def _raise(self, message: str, *, phase: str, kind: str, record: OpRecord) -> None:
        chain = _build_chain(record)
        anomaly = NumericalAnomaly(
            message + "\ncausal chain (culprit first):\n"
            + "\n".join(f"  {r.describe()}" for r in chain),
            op=record.op,
            phase=phase,
            kind=kind,
            record=record,
            chain=chain,
        )
        if self.emit_telemetry:
            # Lazy import: repro.tensor must not hard-depend on the
            # observability layer (which itself imports the profiler).
            from repro.observability import get_telemetry

            telemetry = get_telemetry()
            telemetry.counter(f"anomaly.{phase}")
            telemetry.run_marker("anomaly", **anomaly.to_payload())
        raise anomaly


def provenance_of(tensor: Tensor) -> OpRecord | None:
    """The :class:`OpRecord` attached to ``tensor`` (None for leaves /
    tensors created outside an anomaly context)."""
    return getattr(tensor, "_provenance", None)


class detect_anomaly:
    """Context manager enabling tape-level anomaly detection.

    Parameters
    ----------
    check_forward, check_backward:
        Independently toggle output and gradient checks (both on by
        default).
    emit_telemetry:
        Emit ``anomaly.*`` events through the ambient telemetry hub when
        an anomaly is raised (on by default; a ``NullTelemetry`` hub makes
        this free).
    """

    def __init__(
        self,
        check_forward: bool = True,
        check_backward: bool = True,
        emit_telemetry: bool = True,
    ) -> None:
        self._state = _AnomalyState(check_forward, check_backward, emit_telemetry)

    def __enter__(self) -> "detect_anomaly":
        core._ANOMALY.append(self._state)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        core._ANOMALY.remove(self._state)


def is_anomaly_enabled() -> bool:
    """Whether a :class:`detect_anomaly` context is currently active."""
    return bool(core._ANOMALY)
