"""Encoder-state cache: byte-identity, LRU mechanics, weight-change guard.

The cache's one contract is that it is *invisible* in the outputs: a hit
must decode to bit-identical results as a miss, for every model family,
and a weight change must move the key space so stale states can never be
served against new parameters.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample
from repro.data.batching import collate
from repro.data.vocabulary import PAD_ID
from repro.models import ModelConfig, build_model
from repro.observability import Telemetry
from repro.serving import (
    AdmissionPolicy,
    CachedEncoderModel,
    CacheStats,
    ContinuousBatchingEngine,
    EncoderStateCache,
    GenerationRequest,
    fingerprint_model,
    pad_batch,
    pad_context,
)
from repro.tensor.core import no_grad

from conftest import DECODER, ENCODER, WORDS, build_service, request_texts

FAMILIES = ["acnn", "seq2seq"]


def build_family(family: str, seed: int = 0):
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=1, dropout=0.0, seed=seed)
    return build_model(family, config, len(ENCODER), len(DECODER))


def quiet_cache(capacity: int = 8) -> EncoderStateCache:
    return EncoderStateCache(capacity=capacity, telemetry=Telemetry([]))


def serve_rows(service, texts, beam_size=2, max_length=6):
    rows = []
    for index, text in enumerate(texts):
        result = service.handle(
            GenerationRequest(text, request_id=f"r{index}", beam_size=beam_size,
                              max_length=max_length)
        )
        rows.append((result.tokens, result.log_prob, result.rung))
    return rows


# ----------------------------------------------------------------------
# Byte identity: a hit must be indistinguishable from a miss
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_cache_hit_outputs_byte_identical_to_miss(family):
    texts = request_texts(4, seed=11)
    model = build_family(family)

    cache = quiet_cache()
    cached_service = build_service(model=model, encoder_cache=cache)
    cold = serve_rows(cached_service, texts)   # all misses
    warm = serve_rows(cached_service, texts)   # all hits
    assert cache.stats.misses == len(texts)
    assert cache.stats.hits >= len(texts)
    # byte-identical, not approximate
    assert cold == warm

    # ... and identical to a cache-free service over the same weights.
    plain_service = build_service(model=model)
    assert serve_rows(plain_service, texts) == cold


@pytest.mark.parametrize("family", FAMILIES)
def test_cached_context_arrays_match_fresh_encode(family):
    model = build_family(family)
    cache = quiet_cache()
    proxy = CachedEncoderModel(model, cache)
    service = build_service(model=model)
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = pad_batch(collate([encoded], pad_id=PAD_ID), 12)

    missed = proxy.encode(batch)    # miss: stores
    hit = proxy.encode(batch)       # hit: returns stored object
    fresh = model.encode(batch)     # bypasses the cache entirely
    assert hit is missed
    np.testing.assert_array_equal(hit.encoder_states.data, fresh.encoder_states.data)
    np.testing.assert_array_equal(hit.src_ext, fresh.src_ext)
    assert hit.max_oov == fresh.max_oov
    for (h1, c1), (h2, c2) in zip(hit.initial_states, fresh.initial_states):
        np.testing.assert_array_equal(h1.data, h2.data)
        np.testing.assert_array_equal(c1.data, c2.data)


def test_cached_contexts_are_frozen():
    model = build_family("acnn")
    cache = quiet_cache()
    proxy = CachedEncoderModel(model, cache)
    service = build_service(model=model)
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    context = proxy.encode(collate([encoded], pad_id=PAD_ID))
    with pytest.raises(ValueError):
        context.encoder_states.data[...] = 0.0
    with pytest.raises(ValueError):
        context.src_ext[...] = 0


def test_multi_example_batches_bypass_the_cache():
    model = build_family("acnn")
    cache = quiet_cache()
    proxy = CachedEncoderModel(model, cache)
    service = build_service(model=model)
    encoded = [
        service.admit(GenerationRequest(text, request_id=f"b{i}"))
        for i, text in enumerate(request_texts(2, seed=5))
    ]
    proxy.encode(collate(encoded, pad_id=PAD_ID))
    assert cache.stats.lookups == 0
    assert len(cache) == 0


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------
def test_capacity_one_cache_evicts_and_still_serves_identically():
    texts = request_texts(3, seed=21)
    model = build_family("acnn")
    cache = quiet_cache(capacity=1)
    service = build_service(model=model, encoder_cache=cache)

    # Round-robin through 3 distinct sources: every lookup after the first
    # insert evicts, so nothing ever hits — and nothing ever changes bytes.
    first = serve_rows(service, texts * 2)
    assert cache.stats.hits == 0
    assert cache.stats.evictions == len(texts) * 2 - 1
    assert len(cache) == 1

    plain = build_service(model=model)
    assert serve_rows(plain, texts * 2) == first


def test_lru_keeps_recently_used_entries():
    texts = request_texts(3, seed=31)
    model = build_family("acnn")
    cache = quiet_cache(capacity=2)
    service = build_service(model=model, encoder_cache=cache)
    a, b, c = texts

    serve_rows(service, [a, b])     # cache: [a, b]
    serve_rows(service, [a])        # hit a -> LRU order [b, a]
    assert cache.stats.hits == 1
    serve_rows(service, [c])        # evicts b
    assert cache.stats.evictions == 1
    serve_rows(service, [a, c])     # both still resident
    assert cache.stats.hits == 3
    serve_rows(service, [b])        # b was the evictee: a miss
    assert cache.stats.misses == 4


def test_cache_counters_flow_into_report():
    cache = quiet_cache(capacity=2)
    service = build_service(encoder_cache=cache)
    serve_rows(service, request_texts(2, seed=41) * 2)
    payload = service.report()["encoder_cache"]
    assert payload["hits"] == 2
    assert payload["misses"] == 2
    assert payload["size"] == 2
    assert payload["capacity"] == 2


def test_cache_stats_as_dict_keys():
    assert set(CacheStats().as_dict()) == {"hits", "misses", "evictions", "invalidations"}


def test_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        EncoderStateCache(capacity=0)


# ----------------------------------------------------------------------
# Weight-change invalidation (stale-state poisoning guard)
# ----------------------------------------------------------------------
def test_cache_key_changes_when_weights_change():
    """The guard this PR pins: without the fingerprint in the key, a warm
    cache would keep serving encoder states computed under *old* weights
    after a reload — byte-poisoning every decode. This test fails against
    a key built from token ids alone."""
    model = build_family("acnn", seed=0)
    cache = quiet_cache()
    cache.bind(model)
    service = build_service(model=model)
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = collate([encoded], pad_id=PAD_ID)
    key_before = cache.key_for(batch)

    # Perturb one weight in place — same architecture, same tokens.
    name, param = next(iter(model.named_parameters()))
    param.data[...] = param.data + 1e-3
    cache.refresh(model)
    assert cache.key_for(batch) != key_before


def test_refresh_on_drift_drops_every_entry():
    model = build_family("acnn")
    cache = quiet_cache()
    service = build_service(model=model, encoder_cache=cache)
    serve_rows(service, request_texts(3, seed=51))
    assert len(cache) == 3

    name, param = next(iter(model.named_parameters()))
    param.data[...] = param.data + 1e-3
    assert cache.refresh(model) is True
    assert len(cache) == 0
    assert cache.stats.invalidations == 3
    # Unchanged weights: refresh is a no-op.
    assert cache.refresh(model) is False
    assert cache.stats.invalidations == 3


def test_fingerprint_sensitivity():
    base = fingerprint_model(build_family("acnn", seed=0))
    assert fingerprint_model(build_family("acnn", seed=0)) == base
    assert fingerprint_model(build_family("acnn", seed=1)) != base
    assert fingerprint_model(build_family("seq2seq", seed=0)) != base


def test_key_distinguishes_copy_visible_structure():
    """Two sources with identical encoder ids must not collide when their
    extended (copy) ids differ — the copy path sees different sources."""
    model = build_family("acnn")
    cache = quiet_cache()
    cache.bind(model)
    service = build_service(model=model)
    text = request_texts(1, seed=3)[0]
    encoded = service.admit(GenerationRequest(text, request_id="x"))
    batch_a = collate([encoded], pad_id=PAD_ID)

    from dataclasses import replace

    ext = list(encoded.src_ext_ids)
    ext[0] = ext[0] + 1
    batch_b = collate([replace(encoded, src_ext_ids=tuple(ext))], pad_id=PAD_ID)
    assert cache.key_for(batch_a) != cache.key_for(batch_b)


def test_key_includes_padded_width():
    model = build_family("acnn")
    cache = quiet_cache()
    cache.bind(model)
    service = build_service(model=model)
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = collate([encoded], pad_id=PAD_ID)
    wide = pad_batch(batch, batch.src.shape[1] + 4)
    assert cache.key_for(batch) != cache.key_for(wide)


# ----------------------------------------------------------------------
# pad_batch
# ----------------------------------------------------------------------
def test_pad_batch_is_identity_at_current_width():
    service = build_service()
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = collate([encoded], pad_id=PAD_ID)
    assert pad_batch(batch, batch.src.shape[1]) is batch


def test_pad_batch_refuses_to_shrink():
    service = build_service()
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = collate([encoded], pad_id=PAD_ID)
    with pytest.raises(ValueError):
        pad_batch(batch, batch.src.shape[1] - 1)


def test_pad_batch_pads_with_inert_values():
    service = build_service()
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = collate([encoded], pad_id=PAD_ID)
    width = batch.src.shape[1] + 3
    padded = pad_batch(batch, width)
    assert padded.src.shape[1] == width
    assert (padded.src[:, -3:] == PAD_ID).all()
    assert padded.src_pad_mask[:, -3:].all()
    assert (padded.answer_mask[:, -3:] == 0.0).all()
    assert (padded.copy_match[:, :, -3:] == 0.0).all()


# ----------------------------------------------------------------------
# Natural-width encode: the cache stores it, the service pads it
# ----------------------------------------------------------------------
def test_frontier_admission_and_solo_ladder_share_one_entry():
    """Both paths key the same natural-width batch: one miss, then a hit."""
    text = request_texts(1, seed=3)[0]
    cache = quiet_cache()
    service = build_service(
        encoder_cache=cache, policy=AdmissionPolicy(max_source_tokens=12)
    )
    engine = ContinuousBatchingEngine(service)
    assert engine.submit(
        GenerationRequest(text, request_id="frontier", beam_size=2, max_length=4)
    ) is None
    assert [o.status for o in engine.drain()] == ["served"]
    assert (cache.stats.misses, cache.stats.hits) == (1, 0)
    solo = service.serve(GenerationRequest(text, request_id="solo", beam_size=2, max_length=4))
    assert solo.status == "served"
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)


def test_cache_stores_natural_width_and_the_service_decodes_padded():
    cache = quiet_cache()
    service = build_service(encoder_cache=cache)
    encoded = service.admit(GenerationRequest(request_texts(1, seed=3)[0], request_id="x"))
    batch = collate([encoded], pad_id=PAD_ID)
    with no_grad():
        served = service.model.encode(batch)
    assert served.encoder_states.shape[1] == service.validator.policy.max_source_tokens
    stored = cache.get(cache.key_for(batch))
    assert stored.encoder_states.shape[1] == len(encoded.src_ids)


# ----------------------------------------------------------------------
# pad_context: padding the encoder output equals encoding a padded batch
# ----------------------------------------------------------------------
WIDTH = 12
OOV_WORDS = ["qlorp", "zintu"]  # outside both vocabularies: copy-only slots


@st.composite
def sources(draw):
    length = draw(st.integers(min_value=1, max_value=WIDTH))
    tokens = tuple(draw(st.lists(
        st.sampled_from(WORDS + OOV_WORDS), min_size=length, max_size=length
    )))
    start = draw(st.integers(min_value=0, max_value=length - 1))
    stop = draw(st.integers(min_value=start + 1, max_value=length))
    return tokens, tokens[start:stop]


def encoded_batch(tokens, answer):
    example = QGExample(sentence=tokens, paragraph=tokens, question=("?",), answer=answer)
    return collate([QGDataset([example], ENCODER, DECODER)[0]], pad_id=PAD_ID)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ["acnn", "seq2seq", "du-attention"])
@settings(max_examples=15, deadline=None)
@given(source=sources())
@example(source=(tuple(WORDS[:WIDTH]), tuple(WORDS[2:4])))
def test_pad_context_matches_padded_encode_byte_for_byte(family, source):
    config = ModelConfig(embedding_dim=8, hidden_size=10, num_layers=2, dropout=0.0, seed=4)
    kwargs = {} if family == "seq2seq" else {"use_answer_features": True}
    model = build_model(family, config, len(ENCODER), len(DECODER), **kwargs)
    model.eval()
    batch = encoded_batch(*source)
    assert batch.answer_mask.any()
    with no_grad():
        natural = model.encode(batch)
        padded = pad_context(natural, WIDTH)
        reference = model.encode(pad_batch(batch, WIDTH))

    if batch.src.shape[1] == WIDTH:
        assert padded is natural
    assert same_bytes(padded.encoder_states.data, reference.encoder_states.data)
    assert same_bytes(padded.src_pad_mask, reference.src_pad_mask)
    assert same_bytes(padded.src_ext, reference.src_ext)
    assert padded.max_oov == reference.max_oov
    assert len(padded.initial_states) == len(reference.initial_states) == 2
    for (h1, c1), (h2, c2) in zip(padded.initial_states, reference.initial_states):
        assert same_bytes(h1.data, h2.data)
        assert same_bytes(c1.data, c2.data)


def test_pad_context_refuses_to_shrink():
    batch = encoded_batch(tuple(WORDS[:4]), tuple(WORDS[:1]))
    with no_grad():
        context = build_family("acnn").encode(batch)
    with pytest.raises(ValueError):
        pad_context(context, 3)
