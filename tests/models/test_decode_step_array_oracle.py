"""Each family's array ``decode_step`` against its tape step, byte for byte.

Decode steps run on the parameters' arrays, off the autodiff tape. The
reference below is the tape ``decode_step`` each family had before, kept
inline: it embeds, runs the decoder LSTM, attention, the copy distribution
and the switch through tape ops (``Module.__call__``, ``Tensor`` nodes)
and builds the same :class:`DecodeStep`. Every field must agree by bytes
over several chained steps: ``log_probs``, each layer's ``(h, c)``,
coverage, attention, copy distribution, switch and probabilities, and the
ACNN's decode gate stats.

The fleets cover all three families; ACNN with and without coverage and
with the switch adaptive or fixed at 0, 0.5 and 1; ``row_indices`` set
and unset; ragged sources padded past their live width; contexts with
source OOV slots; hidden 10 and the DEFAULT dims (E 32, H 48), with the
weights sharpened so the steps are far from uniform.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import QGDataset, QGExample, Vocabulary, collate
from repro.data.vocabulary import BOS_ID, PAD_ID, UNK_ID
from repro.models import ACNN, ModelConfig, Seq2SeqBaseline, build_model
from repro.models.base import DecodeInTrainingMode, DecoderStepState, DecodeStep
from repro.nn.loss import PROBABILITY_FLOOR
from repro.nn.numerics import np_bernoulli_entropy, np_smoothed_log
from repro.serving.cache import pad_context
from repro.tensor import Tensor, no_grad
from repro.tensor.ops import log_softmax, softmax

# Source words: the first five are decoder-OOV (copyable only through the
# extended vocabulary), the rest are in the decoder vocabulary.
_OOV_WORDS = ["zorvex", "karlin", "1887", "ostavia", "velkin"]
_QWORDS = ["where", "what", "who", "is", "was", "the", "tower", "river", "?"]
_QWORDS += [f"w{i}" for i in range(40)]

_DIMS = {"hidden10": (8, 10), "default": (32, 48)}
_SWITCHES = [("adaptive", 0.5), ("fixed", 0.0), ("fixed", 0.5), ("fixed", 1.0)]


# ----------------------------------------------------------------------
# The reference: each family's tape decode step
# ----------------------------------------------------------------------
def _tape_context_rows(context, row_indices):
    if row_indices is None:
        return context.encoder_states, context.src_pad_mask, context.src_ext
    states = Tensor(context.encoder_states.data[row_indices])
    return states, context.src_pad_mask[row_indices], context.src_ext[row_indices]


def _tape_decode_step(model, prev_tokens, state, context, row_indices=None):
    token_ids = model.map_to_decoder_vocab(prev_tokens, model.decoder_vocab_size, UNK_ID)
    embedded = model.decoder_embedding(token_ids)
    if isinstance(model, Seq2SeqBaseline):
        hidden, new_states = model.decoder.step(embedded, state.lstm_states)
        logits = model.output_projection(hidden)
        log_probs = log_softmax(logits, axis=-1).data
        return DecodeStep(model.floor_oov_slots(log_probs, context), DecoderStepState(new_states))

    encoder_states, src_pad_mask, src_ext = _tape_context_rows(context, row_indices)
    if not isinstance(model, ACNN):
        _, _, attn, logits, new_states = model._decode_step(
            embedded, state.lstm_states, encoder_states, src_pad_mask
        )
        log_probs = log_softmax(logits, axis=-1).data
        return DecodeStep(
            model.floor_oov_slots(log_probs, context),
            DecoderStepState(new_states),
            attention=attn.data,
        )

    coverage = Tensor(state.coverage) if state.coverage is not None else None
    d_k, c_k, attn, logits, new_states = model._decode_step(
        embedded, state.lstm_states, encoder_states, src_pad_mask, coverage=coverage
    )
    p_att = softmax(logits, axis=-1).data
    p_cop = model.copy_distribution(d_k, c_k, encoder_states, src_pad_mask).data
    z = model.switch(d_k, c_k, embedded).data
    if model.collect_gate_stats:
        accum = model._decode_gate_accum or {"z": 0.0, "entropy": 0.0, "copy": 0.0, "tokens": 0}
        accum["z"] += float(z.sum())
        accum["entropy"] += float(np_bernoulli_entropy(z).sum())
        accum["copy"] += float((z > 0.5).sum())
        accum["tokens"] += int(z.shape[0])
        model._decode_gate_accum = accum
    extended = model._extended_mixture(p_att, p_cop, z, src_ext, context.max_oov)
    new_coverage = state.coverage + attn.data if state.coverage is not None else None
    return DecodeStep(
        np_smoothed_log(extended, PROBABILITY_FLOOR),
        DecoderStepState(new_states, coverage=new_coverage),
        attention=attn.data,
        copy_distribution=p_cop,
        switch=z,
        probs=extended,
    )


# ----------------------------------------------------------------------
# Fleets
# ----------------------------------------------------------------------
def _model(seed, family, dims, num_layers, **kwargs):
    embedding_dim, hidden_size = _DIMS[dims]
    encoder = Vocabulary(_OOV_WORDS + _QWORDS[:8])
    decoder = Vocabulary(_QWORDS)
    config = ModelConfig(
        embedding_dim=embedding_dim,
        hidden_size=hidden_size,
        num_layers=num_layers,
        dropout=0.0,
        seed=seed,
    )
    model = build_model(family, config, len(encoder), len(decoder), **kwargs)
    rng = np.random.default_rng(seed)
    # A fresh init is near-uniform: sharpen it so the steps are peaked and
    # the last bits of every product matter, and give the zero-initialized
    # biases values of their own.
    for parameter in model.parameters():
        parameter.data *= 3.0
        if not parameter.data.any():
            parameter.data[...] = rng.uniform(-1.0, 1.0, parameter.data.shape)
    if family == "acnn":
        model.switch_bias.data[:] = rng.uniform(-3.0, 3.0)
    if kwargs.get("use_coverage"):
        # The coverage weight starts at 0; give the history a real say.
        model.attention.coverage_weight.data[:] = rng.uniform(-6.0, 6.0)
    return model.eval(), encoder, decoder


def _context(model, encoder, decoder, seed, num_examples, extra_width):
    """An encoded fleet of ragged sources (1-8 tokens, the first with a
    decoder-OOV word), padded ``extra_width`` columns past its width."""
    rng = np.random.default_rng(seed + 1)
    words = _OOV_WORDS + _QWORDS[:8]
    examples = []
    for index in range(num_examples):
        sentence = list(rng.choice(words, size=rng.integers(1, 9)))
        if index == 0:
            sentence[0] = _OOV_WORDS[0]
        question = tuple(rng.choice(_QWORDS, size=3))
        examples.append(QGExample(sentence=tuple(sentence), paragraph=tuple(sentence), question=question))
    batch = collate(list(QGDataset(examples, encoder, decoder)), pad_id=PAD_ID)
    with no_grad():
        context = model.encode(batch)
    assert context.max_oov > 0
    return pad_context(context, context.src_ext.shape[1] + extra_width)


@contextmanager
def _counting_tape_nodes():
    """Count ``Tensor._from_op`` calls inside the block."""
    original = Tensor._from_op
    calls = [0]

    def counting(data, parents, backward_fn):
        calls[0] += 1
        return original(data, parents, backward_fn)

    Tensor._from_op = staticmethod(counting)
    try:
        yield calls
    finally:
        Tensor._from_op = staticmethod(original)


def _assert_same_array(got, want, what):
    if want is None:
        assert got is None, what
        return
    assert isinstance(got, np.ndarray), what
    assert got.shape == want.shape and got.dtype == want.dtype, what
    assert got.tobytes() == want.tobytes(), what


def _assert_same_step(got, want):
    for field in ("log_probs", "attention", "copy_distribution", "switch", "probs"):
        _assert_same_array(getattr(got, field), getattr(want, field), field)
    _assert_same_array(got.state.coverage, want.state.coverage, "coverage")
    assert len(got.state.lstm_states) == len(want.state.lstm_states)
    for layer, ((h, c), (h_ref, c_ref)) in enumerate(
        zip(got.state.lstm_states, want.state.lstm_states)
    ):
        _assert_same_array(h.data, h_ref.data, f"h[{layer}]")
        _assert_same_array(c.data, c_ref.data, f"c[{layer}]")


def _run_both(model, context, steps, row_indices, seed):
    """Chain ``steps`` array and tape steps from the same start; compare
    each step and count the tape nodes the array steps build."""
    rows = context.batch_size if row_indices is None else len(row_indices)
    start = model.initial_decoder_state(context)
    if row_indices is not None:
        start = start.select(row_indices)
    prev = np.random.default_rng(seed).integers(0, model.extended_vocab_size(context), size=rows)
    got_state = want_state = start
    tape_nodes = 0
    gate_stats = getattr(model, "pop_decode_gate_stats", lambda: None)
    with no_grad():
        for _ in range(steps):
            want = _tape_decode_step(model, prev, want_state, context, row_indices)
            want_stats = gate_stats()
            with _counting_tape_nodes() as calls:
                got = model.decode_step(prev, got_state, context, row_indices)
            tape_nodes += calls[0]
            _assert_same_step(got, want)
            assert gate_stats() == want_stats
            assert (want_stats is not None) == getattr(model, "collect_gate_stats", False)
            masked = want.log_probs.copy()
            masked[:, [PAD_ID, BOS_ID]] = -np.inf
            prev = masked.argmax(axis=1)
            got_state, want_state = got.state, want.state
    return tape_nodes


_FLEET = dict(
    seed=st.integers(0, 10_000),
    dims=st.sampled_from(sorted(_DIMS)),
    num_layers=st.integers(1, 2),
    num_examples=st.integers(1, 4),
    extra_width=st.integers(0, 6),
    steps=st.integers(1, 4),
    gather=st.booleans(),
)


def _row_indices(gather, num_examples, seed):
    if not gather:
        return None
    rng = np.random.default_rng(seed + 2)
    return rng.integers(0, num_examples, size=rng.integers(1, 7))


@pytest.mark.parametrize("family", ["seq2seq", "du-attention"])
@given(**_FLEET)
@settings(max_examples=30, deadline=None)
def test_baseline_array_step_matches_tape_step(
    family, seed, dims, num_layers, num_examples, extra_width, steps, gather
):
    model, encoder, decoder = _model(seed, family, dims, num_layers)
    context = _context(model, encoder, decoder, seed, num_examples, extra_width)
    row_indices = _row_indices(gather, num_examples, seed)
    assert _run_both(model, context, steps, row_indices, seed) == 0


@given(
    **_FLEET,
    use_coverage=st.booleans(),
    switch=st.sampled_from(_SWITCHES),
    gate_stats=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_acnn_array_step_matches_tape_step(
    seed, dims, num_layers, num_examples, extra_width, steps, gather,
    use_coverage, switch, gate_stats,
):
    switch_mode, fixed_switch = switch
    model, encoder, decoder = _model(
        seed, "acnn", dims, num_layers,
        use_coverage=use_coverage, switch_mode=switch_mode, fixed_switch=fixed_switch,
    )
    context = _context(model, encoder, decoder, seed, num_examples, extra_width)
    row_indices = _row_indices(gather, num_examples, seed)
    model.collect_gate_stats = gate_stats
    assert _run_both(model, context, steps, row_indices, seed) == 0


@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_nan_weight_gives_nan_log_probs(family):
    """A NaN weight reaches every row's log-probs, as on the tape: the
    array step launders nothing."""
    model, encoder, decoder = _model(7, family, "hidden10", 1)
    context = _context(model, encoder, decoder, 7, 3, 2)
    model.output_projection.weight.data[5, 0] = np.nan
    prev = np.full(context.batch_size, BOS_ID)
    with no_grad():
        got = model.decode_step(prev, model.initial_decoder_state(context), context)
        want = _tape_decode_step(model, prev, model.initial_decoder_state(context), context)
    assert np.isnan(got.log_probs).any(axis=1).all()
    _assert_same_step(got, want)


@pytest.mark.parametrize("family", ["seq2seq", "du-attention", "acnn"])
def test_decode_step_refuses_a_model_in_training_mode(family):
    model, encoder, decoder = _model(3, family, "hidden10", 1)
    context = _context(model, encoder, decoder, 3, 2, 0)
    model.train()
    prev = np.full(context.batch_size, BOS_ID)
    with no_grad():
        with pytest.raises(DecodeInTrainingMode):
            model.decode_step(prev, model.initial_decoder_state(context), context)
        with pytest.raises(DecodeInTrainingMode):
            model.step_log_probs(prev, model.initial_decoder_state(context), context)
