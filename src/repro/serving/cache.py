"""Bounded LRU cache of encoded source states, keyed by content hash.

Millions of users asking about the same passages re-run the same encoder
over the same tokens. The cache sits directly in front of the encoder
(:class:`CachedEncoderModel` is a model proxy, so every decode path —
the continuous engine's frontier admissions and the ladder rungs of its
solo fallback — hits it without knowing it exists) and stores the full
:class:`~repro.models.base.EncoderContext` of single-example batches at
the source's natural width. :class:`PaddedEncoderModel` sits outside the
cache and pads every single-example context to the service's one decode
width (:func:`pad_context`), so the encoder only ever runs over real
tokens while every serving path decodes at the same width.

The contract is **byte identity**: a cache hit must produce bit-identical
decode outputs to a miss. Three design points guarantee it:

- the key is a SHA-256 over everything the encode depends on — the
  encoder-vocabulary ids, the extended-vocabulary ids (two sources can
  share ``src_ids`` while differing in which tokens are copy-visible),
  the batch's source width, and a fingerprint of the model's weights and
  configuration;
- stored contexts are frozen (every backing array is marked read-only),
  so a later request cannot mutate what an earlier one cached;
- the fingerprint changes when the weights change, so stale states from
  old weights can never poison decodes against new ones
  (:meth:`EncoderStateCache.refresh` re-hashes and drops every entry on
  drift).

Hits, misses, evictions and invalidations are counted both locally
(:class:`CacheStats`) and through telemetry (``serving.cache.*``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.data.batching import Batch
from repro.data.vocabulary import PAD_ID
from repro.models.base import EncoderContext
from repro.observability import get_telemetry
from repro.tensor.core import Tensor

__all__ = [
    "fingerprint_model",
    "pad_batch",
    "pad_context",
    "CacheStats",
    "EncoderStateCache",
    "CachedEncoderModel",
    "PaddedEncoderModel",
]


def fingerprint_model(model) -> str:
    """SHA-256 of the model's identity: class, shapes, and every weight byte.

    Any weight change — fine-tuning, quantization, a corrupted load —
    yields a different fingerprint, which keys cached encoder states to
    the exact parameters that produced them.
    """
    digest = hashlib.sha256()
    digest.update(type(model).__name__.encode())
    digest.update(str(getattr(model, "decoder_vocab_size", "")).encode())
    for name, param in sorted(model.named_parameters(), key=lambda item: item[0]):
        digest.update(name.encode())
        digest.update(str(param.data.shape).encode())
        digest.update(str(param.data.dtype).encode())
        digest.update(np.ascontiguousarray(param.data).tobytes())
    return digest.hexdigest()


def pad_batch(batch: Batch, width: int) -> Batch:
    """Pad every source-axis array of ``batch`` out to ``width`` positions.

    The LSTM encoder carries state through padded positions unchanged and
    emits zeros there, so encoding a padded batch costs the full width and
    yields exactly what :func:`pad_context` builds from the unpadded
    encode. Serving pads the encoder *output* instead; this helper is the
    reference that equivalence is tested against.
    """
    current = batch.src.shape[1]
    if current == width:
        return batch
    if current > width:
        raise ValueError(f"cannot pad a width-{current} batch down to {width}")
    extra = width - current

    def pad(array: np.ndarray, value) -> np.ndarray:
        return np.pad(array, ((0, 0), (0, extra)), constant_values=value)

    return Batch(
        src=pad(batch.src, PAD_ID),
        src_pad_mask=pad(batch.src_pad_mask, True),
        src_ext=pad(batch.src_ext, PAD_ID),
        tgt_input=batch.tgt_input,
        tgt_output=batch.tgt_output,
        tgt_pad_mask=batch.tgt_pad_mask,
        att_allowed=batch.att_allowed,
        copy_match=np.pad(batch.copy_match, ((0, 0), (0, 0), (0, extra))),
        answer_mask=pad(batch.answer_mask, 0.0),
        oov_tokens=batch.oov_tokens,
        examples=batch.examples,
    )


def pad_context(context: EncoderContext, width: int) -> EncoderContext:
    """Pad an encoded batch's source axis out to ``width`` positions.

    Zero encoder states, ``True`` in the pad mask and ``PAD_ID`` in the
    extended ids: byte for byte what encoding the :func:`pad_batch`-padded
    batch yields. Attention masks the extra positions to exactly zero
    weight, but a *fixed* decode width is what keeps the continuous
    engine's frontier byte-stable: the reduction shapes, and so the
    rounding, never depend on who else is in flight. The bridged
    ``initial_states`` and ``max_oov`` do not depend on the width.
    """
    current = context.src_ext.shape[1]
    if current == width:
        return context
    if current > width:
        raise ValueError(f"cannot pad a width-{current} context down to {width}")
    extra = ((0, 0), (0, width - current))
    return EncoderContext(
        encoder_states=Tensor(np.pad(context.encoder_states.data, extra + ((0, 0),))),
        src_pad_mask=np.pad(context.src_pad_mask, extra, constant_values=True),
        src_ext=np.pad(context.src_ext, extra, constant_values=PAD_ID),
        max_oov=context.max_oov,
        initial_states=context.initial_states,
    )


def _freeze(context: EncoderContext) -> EncoderContext:
    """Mark every backing array read-only; cached state must be immutable."""
    context.encoder_states.data.flags.writeable = False
    context.src_pad_mask.flags.writeable = False
    context.src_ext.flags.writeable = False
    for h, c in context.initial_states:
        h.data.flags.writeable = False
        c.data.flags.writeable = False
    return context


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class EncoderStateCache:
    """Bounded LRU of :class:`EncoderContext` by content-hash key.

    Bind it to a model once (:meth:`bind`); every lookup key then carries
    that model's weight fingerprint. After a weight change, call
    :meth:`refresh` — the fingerprint moves and every cached entry is
    dropped, which is what keeps a warm cache from serving stale encoder
    states against new weights.
    """

    def __init__(self, capacity: int = 128, telemetry=None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.stats = CacheStats()
        self._entries: OrderedDict[str, EncoderContext] = OrderedDict()
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            raise RuntimeError("cache is not bound to a model; call bind(model) first")
        return self._fingerprint

    def bind(self, model) -> str:
        """Fingerprint ``model`` and key all future lookups to it."""
        self._fingerprint = fingerprint_model(model)
        return self._fingerprint

    def refresh(self, model) -> bool:
        """Re-fingerprint after a (possible) weight change.

        Returns True when the weights drifted; the cache is then emptied —
        entries encoded under the old weights are unreachable via the new
        keys anyway, and keeping them would only squat the LRU budget.
        """
        old = self._fingerprint
        new = self.bind(model)
        if old is not None and old != new:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            if dropped:
                self.telemetry.counter("serving.cache.invalidation", dropped)
            return True
        return False

    # ------------------------------------------------------------------
    def key_for(self, batch: Batch) -> str:
        """The content key of a single-example batch at its source width."""
        example = batch.examples[0]
        digest = hashlib.sha256()
        digest.update(self.fingerprint.encode())
        digest.update(str(batch.src.shape[1]).encode())
        digest.update(np.asarray(example.src_ids, dtype=np.int64).tobytes())
        digest.update(np.asarray(example.src_ext_ids, dtype=np.int64).tobytes())
        digest.update(np.asarray(example.answer_positions, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def get(self, key: str) -> EncoderContext | None:
        context = self._entries.get(key)
        if context is None:
            self.stats.misses += 1
            self.telemetry.counter("serving.cache.miss")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        self.telemetry.counter("serving.cache.hit")
        return context

    def put(self, key: str, context: EncoderContext) -> None:
        self._entries[key] = _freeze(context)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            self.telemetry.counter("serving.cache.eviction")
        self.telemetry.gauge("serving.cache.size", float(len(self._entries)))

    def __len__(self) -> int:
        return len(self._entries)

    def as_dict(self) -> dict:
        payload = self.stats.as_dict()
        payload["size"] = len(self._entries)
        payload["capacity"] = self.capacity
        return payload


class CachedEncoderModel:
    """A :class:`QuestionGenerator` proxy that memoizes single-example encodes.

    Only ``encode`` is intercepted, and only for ``batch.size == 1`` (the
    shape every serving path produces: solo ladder decodes and the
    continuous engine's per-request admission encodes). Multi-example
    training/eval batches pass straight through. Everything else delegates
    to the wrapped model, so the proxy composes with the other serving
    seams: stacked as
    ``FaultInjectingModel(PaddedEncoderModel(CachedEncoderModel(model)))``,
    entries stay at natural width and injected encode faults still fire
    whether or not the lookup hits.
    """

    def __init__(self, model, cache: EncoderStateCache) -> None:
        self._model = model
        self.cache = cache
        cache.bind(model)

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def encode(self, batch: Batch) -> EncoderContext:
        if batch.size != 1:
            return self._model.encode(batch)
        key = self.cache.key_for(batch)
        context = self.cache.get(key)
        if context is None:
            context = self._model.encode(batch)
            self.cache.put(key, context)
        return context


class PaddedEncoderModel:
    """A :class:`QuestionGenerator` proxy that pads single-example encodes.

    The encoder runs at the source's natural width and the context is
    padded to ``width`` afterwards (:func:`pad_context`), so a short
    source costs a short encode while every serving path — frontier
    admission and every solo-ladder rung — decodes at the one width.
    Multi-example batches pass straight through. It wraps the cache, so
    the cache stores natural-width contexts:
    ``FaultInjectingModel(PaddedEncoderModel(CachedEncoderModel(model)))``.
    """

    def __init__(self, model, width: int) -> None:
        self._model = model
        self.width = width

    def __getattr__(self, name: str):
        return getattr(self._model, name)

    def encode(self, batch: Batch) -> EncoderContext:
        context = self._model.encode(batch)
        if batch.size != 1:
            return context
        return pad_context(context, self.width)
