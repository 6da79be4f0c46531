"""Fused attention / pointer kernels: gradchecks against numerical
gradients and byte-identity fuzzing against the elementary-op formulation,
with gradients on and under ``no_grad``. The layers run these kernels as
their only tape form, so the layer tests compare them with the elementary
chains on the same inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.attention import GlobalAttention, live_width, pad_masked_scores
from repro.nn.functional import fused_attention, fused_pointer_probs
from repro.tensor import Tensor, no_grad
from repro.tensor.gradcheck import check_gradients
from repro.tensor.ops import concat, expand_dims, masked_fill, softmax

dims = st.integers(2, 5)
seeds = st.integers(0, 10_000)


def _attention_inputs(batch, time, dec, enc, seed, with_mask=True, trailing_pad=0):
    """Random attention inputs; ``trailing_pad`` appends that many columns
    that pad every row (zero states, as the encoder emits them), the shape
    of a short-source decode frontier at a fixed width."""
    rng = np.random.default_rng(seed)
    d = Tensor(rng.standard_normal((batch, dec)), requires_grad=True)
    states = rng.standard_normal((batch, time + trailing_pad, enc))
    weight = Tensor(rng.standard_normal((dec, enc)) * 0.5, requires_grad=True)
    if (with_mask and time > 1) or trailing_pad:
        mask = rng.random((batch, time + trailing_pad)) < 0.3
        mask[:, 0] = False  # never fully masked
        mask[:, time:] = True
        states[:, time:] = 0.0
    else:
        mask = None
    return d, Tensor(states, requires_grad=True), weight, mask


def _eager_attention_chain(d, states, weight, mask):
    from repro.tensor.ops import tanh

    projected = d @ weight
    scores = tanh((expand_dims(projected, 1) * states).sum(axis=2))
    if mask is not None:
        scores = masked_fill(scores, mask, -1e9)
    weights = softmax(scores, axis=1)
    context = (expand_dims(weights, 2) * states).sum(axis=1)
    return context, weights


def _live_prefix_attention_chain(layer, d, states, mask):
    """The elementary attention chain over the live source prefix, softmax
    at the full width: what the layer ran on the tape before the kernel."""
    width = states.shape[1]
    live = live_width(mask, width)
    scores = layer.scores(d, states[:, :live])
    if mask is not None:
        scores = masked_fill(scores, mask[:, :live], -1e9)
    weights = softmax(pad_masked_scores(scores, width), axis=1)
    context = (expand_dims(weights[:, :live], 2) * states[:, :live]).sum(axis=1)
    return context, weights


# ---------------------------------------------------------------------------
# fused_attention
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("with_mask", [False, True])
def test_fused_attention_gradcheck(with_mask):
    d, states, weight, mask = _attention_inputs(2, 4, 3, 3, seed=0, with_mask=with_mask)

    def loss():
        context, weights = fused_attention(d, states, weight, pad_mask=mask)
        return (context * context).sum() + (weights * weights).sum()

    check_gradients(loss, [d, states, weight])


@given(dims, st.integers(1, 6), dims, dims, seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_fused_attention_byte_identical_to_eager(batch, time, dec, enc, seed, trailing_pad):
    d, states, weight, mask = _attention_inputs(
        batch, time, dec, enc, seed, trailing_pad=trailing_pad
    )
    f_context, f_weights = fused_attention(d, states, weight, pad_mask=mask)
    e_context, e_weights = _eager_attention_chain(d, states, weight, mask)
    assert np.array_equal(f_context.data, e_context.data)  # bytes, not close
    assert np.array_equal(f_weights.data, e_weights.data)


@given(dims, st.integers(2, 6), dims, dims, seeds, st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_fused_attention_no_grad_node_byte_identical(batch, time, dec, enc, seed, trailing_pad):
    d, states, weight, mask = _attention_inputs(
        batch, time, dec, enc, seed, trailing_pad=trailing_pad
    )
    e_context, e_weights = _eager_attention_chain(d, states, weight, mask)
    with no_grad():
        n_context, n_weights = fused_attention(d, states, weight, pad_mask=mask)
    assert np.array_equal(n_context.data, e_context.data)
    assert np.array_equal(n_weights.data, e_weights.data)


def test_attention_layer_routes_through_fused_kernel_identically():
    rng = np.random.default_rng(3)
    layer = GlobalAttention(4, 6, rng)
    d = Tensor(rng.standard_normal((3, 4)))
    states = Tensor(rng.standard_normal((3, 5, 6)))
    mask = rng.random((3, 5)) < 0.3
    mask[:, 0] = False
    eager_c, eager_w = _eager_attention_chain(d, states, layer.weight, mask)
    fused_c, fused_w = layer(d, states, pad_mask=mask)
    assert np.array_equal(eager_c.data, fused_c.data)
    assert np.array_equal(eager_w.data, fused_w.data)


@pytest.mark.parametrize("trailing_pad", [0, 4])
def test_attention_layer_live_prefix_routes_through_fused_kernel_identically(trailing_pad):
    """The fused kernel runs at the full width; the elementary chain skips
    trailing all-pad columns. Same bytes either way."""
    layer = GlobalAttention(4, 6, np.random.default_rng(3))
    d, states, _, mask = _attention_inputs(3, 5, 4, 6, seed=3, trailing_pad=trailing_pad)
    eager_c, eager_w = _live_prefix_attention_chain(layer, d, states, mask)
    fused_c, fused_w = layer(d, states, pad_mask=mask)
    assert eager_c.requires_grad and fused_c.requires_grad
    assert np.array_equal(eager_c.data, fused_c.data)
    assert np.array_equal(eager_w.data, fused_w.data)


def test_fused_attention_weights_normalized_and_masked():
    d, states, weight, mask = _attention_inputs(3, 5, 4, 4, seed=9)
    with no_grad():
        _, weights = fused_attention(d, states, weight, pad_mask=mask)
    np.testing.assert_allclose(weights.data.sum(axis=1), 1.0, rtol=1e-12)
    assert (weights.data[mask] < 1e-12).all()


# ---------------------------------------------------------------------------
# fused_pointer_probs
# ---------------------------------------------------------------------------
def _pointer_inputs(batch, time, enc, seed, trailing_pad=0):
    """Random pointer inputs; ``trailing_pad`` as in :func:`_attention_inputs`."""
    rng = np.random.default_rng(seed)
    projected = Tensor(rng.standard_normal((batch, enc)), requires_grad=True)
    states = rng.standard_normal((batch, time + trailing_pad, enc))
    states[:, time:] = 0.0
    bias = Tensor(rng.standard_normal(1), requires_grad=True)
    mask = rng.random((batch, time + trailing_pad)) < 0.3
    mask[:, 0] = False
    mask[:, time:] = True
    return projected, Tensor(states, requires_grad=True), bias, mask


def _eager_pointer_chain(projected, states, bias, mask):
    scores = (expand_dims(projected, 1) * states).sum(axis=2)
    scores = scores + bias
    scores = masked_fill(scores, mask, -1e9)
    return softmax(scores, axis=1)


def test_fused_pointer_probs_gradcheck():
    projected, states, bias, mask = _pointer_inputs(2, 4, 3, seed=1)

    def loss():
        probs = fused_pointer_probs(projected, states, bias, mask)
        return (probs * probs).sum()

    check_gradients(loss, [projected, states, bias])


@given(dims, st.integers(2, 6), dims, seeds, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_fused_pointer_probs_byte_identical(batch, time, enc, seed, trailing_pad):
    projected, states, bias, mask = _pointer_inputs(batch, time, enc, seed, trailing_pad)
    eager = _eager_pointer_chain(projected, states, bias, mask)
    fused = fused_pointer_probs(projected, states, bias, mask)
    assert np.array_equal(fused.data, eager.data)
    with no_grad():
        no_grad_probs = fused_pointer_probs(projected, states, bias, mask)
    assert np.array_equal(no_grad_probs.data, eager.data)


@pytest.mark.parametrize("trailing_pad", [0, 4])
def test_copy_distribution_routes_through_fused_kernel_identically(trailing_pad):
    """ACNN's Eq. 3 copy distribution: the fused pointer kernel at the full
    width equals the eager chain over the live source prefix."""
    from repro.models import ModelConfig, build_model

    config = ModelConfig(embedding_dim=4, hidden_size=3, num_layers=1, dropout=0.0, seed=2)
    model = build_model("acnn", config, 20, 20)
    _, states, _, mask = _pointer_inputs(3, 5, 6, seed=4, trailing_pad=trailing_pad)
    rng = np.random.default_rng(5)
    d_k = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    c_k = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
    projected = model.copy_projection(concat([d_k, c_k], axis=1))
    width = mask.shape[1]
    live = live_width(mask, width)
    scores = (expand_dims(projected, 1) * states[:, :live]).sum(axis=2) + model.copy_score_bias
    scores = masked_fill(scores, mask[:, :live], -1e9)
    eager = softmax(pad_masked_scores(scores, width), axis=1)
    fused = model.copy_distribution(d_k, c_k, states, mask)
    assert eager.requires_grad and fused.requires_grad
    assert np.array_equal(eager.data, fused.data)


def test_fused_kernels_are_single_tape_nodes_under_grad():
    from repro.tensor.profiler import TapeProfile

    d, states, weight, mask = _attention_inputs(2, 4, 3, 3, seed=5)
    with TapeProfile() as eager_profile:
        _eager_attention_chain(d, states, weight, mask)
    with TapeProfile() as fused_profile:
        fused_attention(d, states, weight, pad_mask=mask)
    # one packed node + two slice views
    assert fused_profile.nodes == 3
    assert fused_profile.nodes < eager_profile.nodes


def test_anomaly_mode_sees_fused_kernels():
    """detect_anomaly needs tape nodes for provenance: a fused kernel is
    one tape node, which on_op sees and blames."""
    from repro.tensor import NumericalAnomaly, detect_anomaly

    d, states, weight, mask = _attention_inputs(2, 4, 3, 3, seed=5)
    d.data[0, 0] = np.nan
    with pytest.raises(NumericalAnomaly):
        with detect_anomaly(emit_telemetry=False):
            fused_attention(d, states, weight, pad_mask=mask)
