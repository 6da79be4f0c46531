"""Tape profiling: count autograd nodes and activation footprint.

The numpy backend's throughput is governed by how many Python-level tape
nodes a forward pass creates (see docs/architecture.md); this context
manager makes that measurable:

    with TapeProfile() as profile:
        loss = model.loss(batch)
    print(profile.nodes, profile.elements)

Used by the microbenchmarks and by tests that pin the fused-LSTM node
budget so a refactor cannot silently reintroduce per-step op explosions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tensor import core

__all__ = ["TapeProfile"]


@dataclass
class TapeProfile:
    """Counts graph nodes created while the context is active."""

    nodes: int = 0
    """Number of tape nodes (op outputs that require grad)."""
    elements: int = 0
    """Total scalar elements across those outputs (activation footprint)."""

    def __enter__(self) -> "TapeProfile":
        core._PROFILES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        core._PROFILES.remove(self)

    def record(self, size: int) -> None:
        self.nodes += 1
        self.elements += size
