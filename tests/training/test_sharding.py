"""Tests for deterministic sharding: seed derivation, shard plans, tree reduce."""

import numpy as np
import pytest

from repro.models import ModelConfig, build_model
from repro.training.sharding import (
    ShardPlan,
    derive_rng,
    derive_seed_sequence,
    epoch_batch_plan,
    reseed_model_rngs,
    tree_reduce,
    tree_reduce_gradients,
)


# ----------------------------------------------------------------------
# Seed derivation
# ----------------------------------------------------------------------
def test_derive_rng_is_stable_for_equal_keys():
    a = derive_rng(7, "batch_order", 3).random(8)
    b = derive_rng(7, "batch_order", 3).random(8)
    assert np.array_equal(a, b)


def test_derive_rng_differs_across_keys():
    base = derive_rng(7, "batch_order", 3).random(8)
    assert not np.array_equal(base, derive_rng(8, "batch_order", 3).random(8))
    assert not np.array_equal(base, derive_rng(7, "batch_order", 4).random(8))
    assert not np.array_equal(base, derive_rng(7, "microbatch", 3).random(8))


def test_derive_seed_sequence_string_keys_are_hash_seed_independent():
    # String components are mapped through SHA-256, not builtin hash(), so
    # the spawn key cannot move with PYTHONHASHSEED. Pin the mapping.
    seq = derive_seed_sequence(0, "batch_order")
    assert seq.spawn_key == (2802330429,)


def test_derive_seed_sequence_int_keys_masked_not_hashed():
    seq = derive_seed_sequence(5, 3, "x", 12)
    assert seq.spawn_key[0] == 3
    assert seq.spawn_key[2] == 12
    assert seq.entropy == 5


# ----------------------------------------------------------------------
# Epoch batch plan
# ----------------------------------------------------------------------
def test_epoch_batch_plan_partitions_every_example_once():
    lengths = [3 + (i % 5) for i in range(41)]
    plan = epoch_batch_plan(lengths, 4, run_seed=9, epoch=1)
    flat = sorted(i for indices in plan for i in indices)
    assert flat == list(range(41))


def test_epoch_batch_plan_is_a_pure_function_of_seed_and_epoch():
    lengths = [3 + (i % 5) for i in range(41)]
    assert epoch_batch_plan(lengths, 4, 9, 1) == epoch_batch_plan(lengths, 4, 9, 1)
    assert epoch_batch_plan(lengths, 4, 9, 1) != epoch_batch_plan(lengths, 4, 9, 2)
    assert epoch_batch_plan(lengths, 4, 9, 1) != epoch_batch_plan(lengths, 4, 10, 1)


def test_epoch_batch_plan_no_shuffle_is_length_bucketed_identity():
    lengths = [5, 3, 4, 3, 5]
    plan = epoch_batch_plan(lengths, 2, 0, 1, shuffle=False)
    flat = sorted(i for indices in plan for i in indices)
    assert flat == list(range(5))
    # Deterministic regardless of seed when shuffling is off.
    assert plan == epoch_batch_plan(lengths, 2, 123, 1, shuffle=False)


# ----------------------------------------------------------------------
# Shard plans
# ----------------------------------------------------------------------
def test_shard_plan_requires_sorted_unique_members():
    with pytest.raises(ValueError):
        ShardPlan((2, 1))
    with pytest.raises(ValueError):
        ShardPlan((1, 1))


def test_shard_plan_round_robin_ownership():
    plan = ShardPlan((0, 2, 5))
    assert [plan.owner_of(s) for s in range(6)] == [0, 2, 5, 0, 2, 5]


def test_shard_plan_assignments_group_by_owner():
    plan = ShardPlan((1, 3))
    assert plan.assignments(range(5)) == {1: (0, 2, 4), 3: (1, 3)}


def test_shard_plan_without_reshards_onto_survivors():
    plan = ShardPlan((0, 1, 2)).without(1)
    assert plan.members == (0, 2)
    assert [plan.owner_of(s) for s in range(4)] == [0, 2, 0, 2]


def test_empty_shard_plan_has_no_owners():
    with pytest.raises(ValueError):
        ShardPlan(()).owner_of(0)


# ----------------------------------------------------------------------
# Pinned tree reduction
# ----------------------------------------------------------------------
def test_tree_reduce_matches_explicit_pairwise_fold():
    rng = np.random.default_rng(0)
    a, b, c, d, e = (rng.standard_normal(16).astype(np.float32) for _ in range(5))
    assert np.array_equal(tree_reduce([a, b, c, d]), (a + b) + (c + d))
    assert np.array_equal(tree_reduce([a, b, c, d, e]), ((a + b) + (c + d)) + e)
    assert np.array_equal(tree_reduce([a]), a)


def test_tree_reduce_empty_raises():
    with pytest.raises(ValueError):
        tree_reduce([])


def test_tree_reduce_is_order_sensitive_hence_the_pinning():
    # Floating-point addition is not associative: an arrival-ordered sum
    # would drift between world sizes. This shows the drift is real, which
    # is exactly why every caller sorts by micro-batch index first.
    rng = np.random.default_rng(1)
    grads = [
        (rng.standard_normal(512) * 10.0 ** rng.integers(-6, 6)).astype(np.float32)
        for _ in range(9)
    ]
    pinned = tree_reduce(grads)
    assert np.array_equal(pinned, tree_reduce(list(grads)))  # same order -> same bits
    drifted = any(
        not np.array_equal(pinned, tree_reduce(grads[i:] + grads[:i]))
        for i in range(1, len(grads))
    )
    assert drifted


def test_tree_reduce_equals_itself_across_world_partitions():
    # Workers only decide WHERE a contribution is computed; the coordinator
    # always reduces the slot-sorted list. Simulate three world sizes
    # producing the same per-slot contributions in different arrival orders.
    rng = np.random.default_rng(2)
    contributions = {slot: rng.standard_normal(64).astype(np.float32) for slot in range(8)}
    arrival_orders = [
        list(range(8)),          # world=1: in order
        [0, 2, 4, 6, 1, 3, 5, 7],  # world=2: even rank finishes first
        [3, 0, 7, 1, 5, 2, 6, 4],  # world=4 with a straggler
    ]
    reduced = {
        tuple(order): tree_reduce([contributions[s] for s in sorted(order)]).tobytes()
        for order in arrival_orders
    }
    assert len(set(reduced.values())) == 1


def test_tree_reduce_gradients_per_parameter():
    rng = np.random.default_rng(3)
    contribs = [[rng.standard_normal(4), rng.standard_normal((2, 3))] for _ in range(3)]
    reduced = tree_reduce_gradients(contribs)
    assert len(reduced) == 2
    for j in range(2):
        assert np.array_equal(reduced[j], tree_reduce([c[j] for c in contribs]))


def test_tree_reduce_gradients_validates_parameter_count():
    with pytest.raises(ValueError):
        tree_reduce_gradients([[np.ones(2)], [np.ones(2), np.ones(3)]])
    with pytest.raises(ValueError):
        tree_reduce_gradients([])


# ----------------------------------------------------------------------
# Model RNG reseeding
# ----------------------------------------------------------------------
def _tiny_model():
    config = ModelConfig(embedding_dim=8, hidden_size=8, num_layers=1, dropout=0.5, seed=0)
    return build_model("acnn", config, 20, 10)


def _drain_generators(model, n=4):
    from repro.training.resilience import _iter_module_generators

    return {
        path: generator.random(n)
        for path, generator in sorted(_iter_module_generators(model))
    }


def test_reseed_model_rngs_is_worker_independent():
    model_a, model_b = _tiny_model(), _tiny_model()
    # Desynchronize: model_b's generators have advanced arbitrarily far
    # (as a worker's would after computing other micro-batches).
    _drain_generators(model_b, 17)
    reseed_model_rngs(model_a, run_seed=5, epoch=2, microbatch=7)
    reseed_model_rngs(model_b, run_seed=5, epoch=2, microbatch=7)
    draws_a, draws_b = _drain_generators(model_a), _drain_generators(model_b)
    assert draws_a.keys() == draws_b.keys()
    for path in draws_a:
        assert np.array_equal(draws_a[path], draws_b[path]), path


def test_reseed_model_rngs_keys_each_stream_by_module_path():
    """Removing one generator leaves every other stream's draws unchanged."""
    from repro.training.resilience import _iter_module_generators

    full, reduced = _tiny_model(), _tiny_model()
    paths = sorted(path for path, _ in _iter_module_generators(reduced))
    assert len(paths) > 2
    removed = paths[0]  # sorts first, so every other stream's position moves
    module_path, attr = removed.rsplit(".", 1)
    delattr(dict(reduced.named_modules())[module_path], attr)
    reseed_model_rngs(full, run_seed=5, epoch=2, microbatch=7)
    reseed_model_rngs(reduced, run_seed=5, epoch=2, microbatch=7)
    draws_full, draws_reduced = _drain_generators(full), _drain_generators(reduced)
    assert draws_reduced.keys() == draws_full.keys() - {removed}
    for path in draws_reduced:
        assert np.array_equal(draws_reduced[path], draws_full[path]), path


def test_reseed_model_rngs_distinct_per_microbatch_and_generator():
    model = _tiny_model()
    reseed_model_rngs(model, 5, 2, 7)
    first = _drain_generators(model)
    reseed_model_rngs(model, 5, 2, 8)
    second = _drain_generators(model)
    for path in first:
        assert not np.array_equal(first[path], second[path]), path
    if len(first) > 1:
        values = [draw.tobytes() for draw in first.values()]
        assert len(set(values)) == len(values), "generators share a stream"
