"""ACNN-specific tests: copy distribution, switch gate, mixture, gradients."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import collate
from repro.data.vocabulary import BOS_ID, PAD_ID, UNK_ID
from repro.models import ACNN, ModelConfig, build_model
from repro.models.base import DecoderStepState, EncoderContext
from repro.nn.loss import PROBABILITY_FLOOR
from repro.nn.numerics import np_smoothed_log
from repro.tensor import Tensor, check_gradients, no_grad
from repro.tensor.ops import concat, softmax, tanh


def _acnn(tiny_config, tiny_vocabs, **kwargs):
    encoder, decoder = tiny_vocabs
    return build_model("acnn", tiny_config, len(encoder), len(decoder), **kwargs)


def test_copy_distribution_sums_to_one_over_valid_positions(tiny_config, tiny_vocabs, tiny_batch):
    model = _acnn(tiny_config, tiny_vocabs).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        d = Tensor(np.random.default_rng(0).standard_normal((tiny_batch.size, tiny_config.hidden_size)))
        c = Tensor(np.random.default_rng(1).standard_normal((tiny_batch.size, 2 * tiny_config.hidden_size)))
        p_cop = model.copy_distribution(d, c, context.encoder_states, context.src_pad_mask).data
    assert np.allclose(p_cop.sum(axis=1), 1.0)
    assert np.allclose(p_cop[tiny_batch.src_pad_mask], 0.0)


def test_switch_gate_in_unit_interval(tiny_config, tiny_vocabs, tiny_batch):
    model = _acnn(tiny_config, tiny_vocabs).eval()
    rng = np.random.default_rng(2)
    d = Tensor(rng.standard_normal((4, tiny_config.hidden_size)))
    c = Tensor(rng.standard_normal((4, 2 * tiny_config.hidden_size)))
    y = Tensor(rng.standard_normal((4, tiny_config.embedding_dim)))
    z = model.switch(d, c, y).data
    assert z.shape == (4,)
    assert np.all((z > 0) & (z < 1))


def test_fixed_switch_returns_constant(tiny_config, tiny_vocabs):
    model = _acnn(tiny_config, tiny_vocabs, switch_mode="fixed", fixed_switch=0.25)
    rng = np.random.default_rng(3)
    d = Tensor(rng.standard_normal((2, tiny_config.hidden_size)))
    c = Tensor(rng.standard_normal((2, 2 * tiny_config.hidden_size)))
    y = Tensor(rng.standard_normal((2, tiny_config.embedding_dim)))
    assert np.allclose(model.switch(d, c, y).data, 0.25)


def test_invalid_switch_mode_rejected(tiny_config, tiny_vocabs):
    with pytest.raises(ValueError):
        _acnn(tiny_config, tiny_vocabs, switch_mode="sometimes")
    with pytest.raises(ValueError):
        _acnn(tiny_config, tiny_vocabs, switch_mode="fixed", fixed_switch=1.5)


def test_extended_distribution_covers_oov_slots(tiny_config, tiny_vocabs, tiny_batch):
    """The copy path must put real probability on source OOV words."""
    model = _acnn(tiny_config, tiny_vocabs).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        state = model.initial_decoder_state(context)
        prev = np.full(context.batch_size, BOS_ID, dtype=np.int64)
        log_probs, _ = model.step_log_probs(prev, state, context)
    vocab_size = model.decoder_vocab_size
    oov_mass = np.exp(log_probs[:, vocab_size:]).sum(axis=1)
    # Each example has source OOVs, and an untrained gate is near 0.5,
    # so the OOV slots must carry non-trivial mass.
    assert np.all(oov_mass > 1e-4)


def test_pure_attention_fixed_switch_puts_no_mass_on_oov(tiny_config, tiny_vocabs, tiny_batch):
    model = _acnn(tiny_config, tiny_vocabs, switch_mode="fixed", fixed_switch=0.0).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        prev = np.full(context.batch_size, BOS_ID, dtype=np.int64)
        log_probs, _ = model.step_log_probs(prev, model.initial_decoder_state(context), context)
    oov_mass = np.exp(log_probs[:, model.decoder_vocab_size:]).sum(axis=1)
    assert np.allclose(oov_mass, 0.0, atol=1e-9)


def test_pure_copy_fixed_switch_puts_all_mass_on_source(tiny_config, tiny_vocabs, tiny_batch):
    model = _acnn(tiny_config, tiny_vocabs, switch_mode="fixed", fixed_switch=1.0).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        prev = np.full(context.batch_size, BOS_ID, dtype=np.int64)
        log_probs, _ = model.step_log_probs(prev, model.initial_decoder_state(context), context)
    probs = np.exp(log_probs)
    for row in range(tiny_batch.size):
        source_ids = set(tiny_batch.src_ext[row][~tiny_batch.src_pad_mask[row]])
        non_source = [i for i in range(probs.shape[1]) if i not in source_ids]
        assert probs[row, non_source].sum() < 1e-6


def test_mixture_equals_manual_combination(tiny_config, tiny_vocabs, tiny_batch):
    """Eq. 2 check: extended distribution = (1-z) P_att scattered + z P_cop."""
    model = _acnn(tiny_config, tiny_vocabs).eval()
    with no_grad():
        context = model.encode(tiny_batch)
        state = model.initial_decoder_state(context)
        prev = np.full(context.batch_size, BOS_ID, dtype=np.int64)

        embedded = model.decoder_embedding(prev)
        d, c, _, logits, _ = model._decode_step(
            embedded, state.lstm_states, context.encoder_states, context.src_pad_mask
        )
        from repro.tensor.ops import softmax

        p_att = softmax(logits, axis=-1).data
        p_cop = model.copy_distribution(d, c, context.encoder_states, context.src_pad_mask).data
        z = model.switch(d, c, embedded).data[:, None]

        log_probs, _ = model.step_log_probs(prev, model.initial_decoder_state(context), context)
        probs = np.exp(log_probs)

    manual = np.zeros_like(probs)
    manual[:, : model.decoder_vocab_size] = (1 - z) * p_att
    for row in range(tiny_batch.size):
        for position, ext_id in enumerate(tiny_batch.src_ext[row]):
            if not tiny_batch.src_pad_mask[row, position]:
                manual[row, ext_id] += z[row, 0] * p_cop[row, position]
    assert np.allclose(probs, manual, atol=1e-9)


def test_loss_gradcheck_small_acnn(tiny_vocabs, tiny_dataset):
    """Full end-to-end gradient check of the ACNN training loss."""
    from repro.models import ModelConfig

    encoder, decoder = tiny_vocabs
    config = ModelConfig(embedding_dim=4, hidden_size=3, num_layers=1, dropout=0.0, seed=11)
    model = ACNN(config, len(encoder), len(decoder))
    batch = collate(list(tiny_dataset)[:2], pad_id=0)

    parameters = model.parameters()
    check_gradients(lambda: model.loss(batch), parameters, rtol=2e-3, atol=1e-6)


def test_loss_decreases_over_several_steps(tiny_config, tiny_vocabs, tiny_batch):
    from repro.optim import SGD, clip_grad_norm

    model = _acnn(tiny_config, tiny_vocabs)
    optimizer = SGD(model.parameters(), lr=1.0)
    losses = []
    for _ in range(40):
        loss = model.loss(tiny_batch)
        losses.append(loss.item())
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        model.zero_grad()
    assert losses[-1] < losses[0] * 0.85


def test_trained_acnn_copies_entities(tiny_config, tiny_vocabs, tiny_batch, tiny_dataset):
    """After overfitting the tiny corpus, greedy decoding must copy OOVs."""
    from repro.decoding import extended_ids_to_tokens, greedy_decode
    from repro.optim import SGD, clip_grad_norm

    model = _acnn(tiny_config.scaled(hidden_size=24, embedding_dim=16), tiny_vocabs)
    optimizer = SGD(model.parameters(), lr=0.7)
    for _ in range(120):
        model.train()
        loss = model.loss(tiny_batch)
        loss.backward()
        clip_grad_norm(model.parameters(), 5.0)
        optimizer.step()
        model.zero_grad()

    hypotheses = greedy_decode(model, tiny_batch, max_length=12)
    _, decoder = tiny_vocabs
    copied_any = False
    for hyp, encoded in zip(hypotheses, tiny_batch.examples):
        tokens = extended_ids_to_tokens(hyp.token_ids, decoder, encoded.oov_tokens)
        gold_oov = [t for t in encoded.example.question if t not in decoder]
        if any(t in tokens for t in gold_oov):
            copied_any = True
    assert copied_any, "overfit ACNN never copied an out-of-vocabulary entity"


# ----------------------------------------------------------------------
# Numerical hardening of the Eq. 2/4 mixture (saturated-gate regression)
# ----------------------------------------------------------------------
def test_saturated_gate_keeps_loss_and_grads_finite(tiny_config, tiny_vocabs, tiny_batch):
    """Regression: a hugely confident switch gate used to return exact 1.0,
    zeroing the generate branch; gold tokens only that branch explains got
    probability 0 and the Eq. 7 log hit the floor with dead gradients."""
    model = _acnn(tiny_config, tiny_vocabs)
    model.switch_bias.data[...] = 1e5  # drive sigmoid into exact saturation
    loss = model.loss(tiny_batch)
    assert np.isfinite(loss.item())
    loss.backward()
    for parameter in model.parameters():
        if parameter.grad is not None:
            assert np.isfinite(parameter.grad).all(), parameter.name


def test_adaptive_gate_never_exactly_saturates(tiny_config, tiny_vocabs):
    model = _acnn(tiny_config, tiny_vocabs).eval()
    d = Tensor(np.full((2, tiny_config.hidden_size), 1e6))
    c = Tensor(np.full((2, 2 * tiny_config.hidden_size), 1e6))
    y = Tensor(np.full((2, tiny_config.embedding_dim), 1e6))
    for sign in (1.0, -1.0):
        z = model.switch(d * sign, c * sign, y * sign).data
        assert np.all(z > 0.0) and np.all(z < 1.0)


def test_fixed_switch_extremes_stay_exact(tiny_config, tiny_vocabs):
    """0/1 fixed gates are deliberate ablations (pure attention / pure
    copy) and must NOT be touched by the saturation guard."""
    rng = np.random.default_rng(9)
    d = Tensor(rng.standard_normal((2, tiny_config.hidden_size)))
    c = Tensor(rng.standard_normal((2, 2 * tiny_config.hidden_size)))
    y = Tensor(rng.standard_normal((2, tiny_config.embedding_dim)))
    for value in (0.0, 1.0):
        model = _acnn(tiny_config, tiny_vocabs, switch_mode="fixed", fixed_switch=value)
        np.testing.assert_array_equal(model.switch(d, c, y).data, value)


# ----------------------------------------------------------------------
# Live-prefix skip: the decode step's attention and copy kernels score only
# the source columns some row does not pad, and match the full-width
# formula byte for byte
# ----------------------------------------------------------------------
_DECODER_VOCAB, _MAX_OOV = 30, 3


@functools.lru_cache(maxsize=None)
def _frontier_acnn(use_coverage: bool) -> ACNN:
    config = ModelConfig(embedding_dim=6, hidden_size=5, num_layers=2, dropout=0.0, seed=11)
    model = build_model("acnn", config, 40, _DECODER_VOCAB, use_coverage=use_coverage).eval()
    if use_coverage:
        model.attention.coverage_weight.data[:] = 5.0
    return model


@st.composite
def frontier_contexts(draw):
    """``(width, lengths, seed)`` for a frontier padded to a fixed width;
    every row holds a real token, and half the draws fill the last column
    (the skip is then a no-op)."""
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 200))
    longest = width if draw(st.booleans()) else draw(st.integers(1, width))
    lengths = draw(st.lists(st.integers(1, longest), min_size=rows, max_size=rows))
    lengths[draw(st.integers(0, rows - 1))] = longest
    return width, np.array(lengths), draw(st.integers(0, 2**16))


def _frontier(model, width, lengths, rng):
    rows = len(lengths)
    mask = np.arange(width)[None, :] >= lengths[:, None]
    states = rng.standard_normal((rows, width, model.encoder_output_size))
    states[mask] = 0.0  # the encoder emits zeros at pads
    src_ext = rng.integers(1, _DECODER_VOCAB + _MAX_OOV, size=(rows, width))
    src_ext[mask] = PAD_ID
    hidden = model.config.hidden_size
    context = EncoderContext(
        encoder_states=Tensor(states),
        src_pad_mask=mask,
        src_ext=src_ext,
        max_oov=_MAX_OOV,
        initial_states=[
            (Tensor(rng.standard_normal((rows, hidden))), Tensor(rng.standard_normal((rows, hidden))))
            for _ in range(model.config.num_layers)
        ],
    )
    coverage = None
    if model.use_coverage:
        coverage = np.where(mask, 0.0, rng.random((rows, width)) * 2.0)
    return context, DecoderStepState(context.initial_states, coverage=coverage)


def _full_width_softmax(scores):
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def _full_width_copy(model, d_k, c_k, states, mask):
    """Eq. 3 at the full width, in plain numpy."""
    projected = model.copy_projection(concat([d_k, Tensor(c_k)], axis=1)).data
    scores = (projected[:, None, :] * states).sum(axis=2) + model.copy_score_bias.data
    return _full_width_softmax(np.where(mask, -1e9, scores))


def _full_width_step(model, prev, state, context):
    """``step_log_probs`` with attention, copy and the Eq. 2 scatter at the
    full width in plain numpy; the decoder LSTM and the readout are the
    model's own (the skip does not touch them)."""
    states, mask = context.encoder_states.data, context.src_pad_mask
    embedded = model.decoder_embedding(np.where(prev >= _DECODER_VOCAB, UNK_ID, prev))
    d_k, lstm_states = model.decoder.step(embedded, state.lstm_states)
    scores = np.tanh(((d_k.data @ model.attention.weight.data)[:, None, :] * states).sum(axis=2))
    if state.coverage is not None:
        scores = scores + state.coverage * model.attention.coverage_weight.data
    attn = _full_width_softmax(np.where(mask, -1e9, scores))
    c_k = (attn[:, :, None] * states).sum(axis=1)
    logits = model.output_projection(tanh(model.readout(concat([d_k, Tensor(c_k)], axis=1))))
    p_att = softmax(logits, axis=-1).data
    p_cop = _full_width_copy(model, d_k, c_k, states, mask)
    z = model.switch(d_k, Tensor(c_k), embedded).data[:, None]
    extended = np.zeros((len(prev), _DECODER_VOCAB + _MAX_OOV))
    extended[:, :_DECODER_VOCAB] = (1.0 - z) * p_att
    rows = np.repeat(np.arange(len(prev))[:, None], states.shape[1], axis=1)
    np.add.at(extended, (rows, context.src_ext), z * p_cop)
    coverage = None if state.coverage is None else state.coverage + attn
    return np_smoothed_log(extended, PROBABILITY_FLOOR), lstm_states, coverage, (d_k, c_k)


@pytest.mark.parametrize("use_coverage", [False, True], ids=["acnn", "acnn_coverage"])
@given(frontier_contexts())
@settings(max_examples=30, deadline=None)
def test_live_prefix_step_is_byte_identical_to_full_width(use_coverage, frontier):
    width, lengths, seed = frontier
    rng = np.random.default_rng(seed)
    model = _frontier_acnn(use_coverage)
    context, state = _frontier(model, width, lengths, rng)
    prev = rng.integers(0, _DECODER_VOCAB + _MAX_OOV, size=len(lengths))
    with no_grad():
        log_probs, new_state = model.step_log_probs(prev, state, context)
        expected, lstm_states, coverage, (d_k, c_k) = _full_width_step(model, prev, state, context)
        p_cop = model.copy_distribution(
            d_k, Tensor(c_k), context.encoder_states, context.src_pad_mask
        ).data
    assert np.array_equal(log_probs, expected)  # bytes, not close
    for (h, c), (h_ref, c_ref) in zip(new_state.lstm_states, lstm_states):
        assert np.array_equal(h.data, h_ref.data) and np.array_equal(c.data, c_ref.data)
    if use_coverage:
        assert np.array_equal(new_state.coverage, coverage)
    assert p_cop.shape == (len(lengths), width)
    assert np.array_equal(
        p_cop, _full_width_copy(model, d_k, c_k, context.encoder_states.data, context.src_pad_mask)
    )
