"""Deterministic sharding for elastic data-parallel training.

Three contracts make a multiprocess run reproduce a single-process run
bit for bit (see docs/architecture.md, "Elastic data-parallel training"):

1. **Global order is a pure function of the run seed.** The batch
   composition of epoch *e* is derived statelessly from
   ``(run_seed, "batch_order", e)`` — no generator state is carried across
   epochs or processes, so any world size (and any worker, after any
   membership change) computes the identical global micro-batch sequence.
2. **Per-micro-batch RNG streams.** Dropout and scheduled sampling draw
   from model-owned generators; before computing micro-batch *g* of epoch
   *e*, every generator is reseeded from ``(run_seed, "microbatch", e, g)``
   (one spawned child per generator, in sorted module-path order). The
   forward/backward of a micro-batch is therefore a function of
   ``(parameters, micro-batch index)`` alone — *which worker* runs it is
   immaterial.
3. **Pinned reduction order.** Gradient contributions are combined with
   :func:`tree_reduce` — pairwise sums over the list sorted by micro-batch
   index, never ``sum()`` over an arrival-ordered list — so the
   floating-point result is identical at every world size.

:class:`ShardPlan` maps micro-batch slots to live workers; membership
changes recompute the mapping but never the global order, so degraded
runs stay on the same example sequence.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.data.batching import plan_batches

__all__ = [
    "derive_seed_sequence",
    "derive_rng",
    "epoch_batch_plan",
    "reseed_model_rngs",
    "ShardPlan",
    "tree_reduce",
    "tree_reduce_gradients",
]


def _key_word(part: int | str) -> int:
    """Stable 32-bit word for a seed-key component (no builtin ``hash``)."""
    if isinstance(part, bool):  # bool is an int subclass; be explicit
        return int(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def derive_seed_sequence(run_seed: int, *key: int | str) -> np.random.SeedSequence:
    """A ``SeedSequence`` at a named point of the run's derivation tree.

    Purely a function of ``(run_seed, key)``: every process — coordinator,
    worker, a worker restarted three times — derives the identical stream
    for the identical key. String components are hashed with SHA-256, so
    the mapping does not depend on ``PYTHONHASHSEED``.
    """
    return np.random.SeedSequence(
        entropy=int(run_seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=tuple(_key_word(part) for part in key),
    )


def derive_rng(run_seed: int, *key: int | str) -> np.random.Generator:
    """A fresh Generator seeded from :func:`derive_seed_sequence`."""
    return np.random.default_rng(derive_seed_sequence(run_seed, *key))


def epoch_batch_plan(
    lengths: Sequence[int],
    batch_size: int,
    run_seed: int,
    epoch: int,
    bucket_multiplier: int = 16,
    shuffle: bool = True,
) -> tuple[tuple[int, ...], ...]:
    """The global micro-batch sequence of one epoch, statelessly derived.

    Same bucketing/shuffling as :class:`~repro.data.batching.BatchIterator`
    but fed by a generator derived from ``(run_seed, epoch)``, so the plan
    can be recomputed identically by any process at any time — the property
    elastic re-sharding relies on.
    """
    rng = derive_rng(run_seed, "batch_order", epoch)
    plan = plan_batches(
        lengths, batch_size, rng, shuffle=shuffle, bucket_multiplier=bucket_multiplier
    )
    return tuple(tuple(int(i) for i in indices) for indices in plan)


def reseed_model_rngs(model, run_seed: int, epoch: int, microbatch: int) -> None:
    """Reseed every model-owned Generator for one micro-batch.

    Each generator's stream is derived from ``(run_seed, "microbatch",
    epoch, microbatch, path)``, with ``path`` its module path, so the
    dropout streams of a micro-batch do not depend on which worker (or how
    many workers) the run is using, nor on which other generators exist.
    """
    from repro.training.resilience import _iter_module_generators

    for path, generator in _iter_module_generators(model):
        stream = derive_rng(run_seed, "microbatch", epoch, microbatch, path)
        generator.bit_generator.state = stream.bit_generator.state


# ----------------------------------------------------------------------
# Shard assignment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Assignment of micro-batch slots to the current live membership.

    The global micro-batch order never changes; only the slot → rank
    mapping is recomputed when membership does. Round-robin over the
    sorted live ranks keeps per-step load within one micro-batch of even.
    """

    members: tuple[int, ...]
    """Live worker ranks, sorted ascending."""

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.members)))
        if ordered != self.members:
            raise ValueError(f"members must be sorted and unique, got {self.members}")

    @property
    def world_size(self) -> int:
        return len(self.members)

    def owner_of(self, slot: int) -> int:
        """Rank responsible for global micro-batch slot ``slot``."""
        if not self.members:
            raise ValueError("empty shard plan has no owners")
        return self.members[slot % len(self.members)]

    def assignments(self, slots: Sequence[int]) -> Mapping[int, tuple[int, ...]]:
        """Slots grouped by owning rank (ranks with no slots omitted)."""
        grouped: dict[int, list[int]] = {}
        for slot in slots:
            grouped.setdefault(self.owner_of(slot), []).append(slot)
        return {rank: tuple(assigned) for rank, assigned in grouped.items()}

    def without(self, rank: int) -> "ShardPlan":
        """Membership after ``rank`` is retired (degraded mode)."""
        survivors = tuple(r for r in self.members if r != rank)
        return ShardPlan(survivors)


# ----------------------------------------------------------------------
# Deterministic reduction
# ----------------------------------------------------------------------
def tree_reduce(values: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise tree sum in the order given — THE pinned reduction.

    Floating-point addition is not associative, so a gradient exchange
    that summed contributions in arrival order would drift between world
    sizes. Every reduction in the elastic runtime instead sorts its
    contributions by global micro-batch index and folds them pairwise:
    ``(a+b) + (c+d)`` for four, left-to-right rounds for any length. The
    result is a pure function of the ordered inputs — proven equal across
    world sizes and arrival orders by test.
    """
    items = [np.asarray(value) for value in values]
    if not items:
        raise ValueError("tree_reduce of an empty sequence")
    while len(items) > 1:
        folded = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            folded.append(items[-1])
        items = folded
    return items[0]


def tree_reduce_gradients(
    contributions: Sequence[Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """Per-parameter :func:`tree_reduce` across gradient contributions.

    ``contributions[k][j]`` is the gradient of parameter *j* from the
    micro-batch in position *k* of the pinned order; the caller sorts by
    global micro-batch index before calling.
    """
    if not contributions:
        raise ValueError("tree_reduce_gradients of an empty sequence")
    num_params = len(contributions[0])
    for contribution in contributions:
        if len(contribution) != num_params:
            raise ValueError(
                f"gradient contributions disagree on parameter count: "
                f"{len(contribution)} vs {num_params}"
            )
    return [
        tree_reduce([contribution[j] for contribution in contributions])
        for j in range(num_params)
    ]
