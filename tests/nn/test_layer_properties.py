"""Hypothesis property tests for nn layers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Dropout, Embedding, GlobalAttention, Linear
from repro.tensor import Tensor

dims = st.integers(1, 6)
seeds = st.integers(0, 1000)


@given(dims, dims, st.integers(1, 4), seeds)
@settings(max_examples=30, deadline=None)
def test_linear_output_shape(in_features, out_features, batch, seed):
    layer = Linear(in_features, out_features, np.random.default_rng(seed))
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((batch, in_features)))
    assert layer(x).shape == (batch, out_features)


@given(dims, dims, seeds)
@settings(max_examples=30, deadline=None)
def test_linear_is_affine(in_features, out_features, seed):
    """f(a) + f(b) - f(0) == f(a + b) for an affine map."""
    layer = Linear(in_features, out_features, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    a = rng.standard_normal((2, in_features))
    b = rng.standard_normal((2, in_features))
    zero = np.zeros((2, in_features))
    lhs = layer(Tensor(a)).data + layer(Tensor(b)).data - layer(Tensor(zero)).data
    rhs = layer(Tensor(a + b)).data
    assert np.allclose(lhs, rhs, atol=1e-9)


@given(st.integers(2, 20), dims, seeds)
@settings(max_examples=30, deadline=None)
def test_embedding_rows_match_table(vocab, dim, seed):
    emb = Embedding(vocab, dim, np.random.default_rng(seed))
    ids = np.random.default_rng(seed + 1).integers(0, vocab, size=5)
    out = emb(ids).data
    for row, token_id in enumerate(ids):
        assert np.allclose(out[row], emb.weight.data[token_id])


@given(st.floats(0.0, 0.9), seeds)
@settings(max_examples=30, deadline=None)
def test_dropout_eval_identity(p, seed):
    layer = Dropout(p, seed=seed).eval()
    x = Tensor(np.random.default_rng(seed).standard_normal((3, 3)))
    out = layer(x)
    # Identity *values* (sharing x's array is fine) but a distinct node:
    # returning the input object itself aliased graph identities, so
    # TapeProfile node counts differed between train and eval graphs.
    assert out is not x
    assert out.data is x.data


@given(dims, dims, st.integers(1, 5), seeds)
@settings(max_examples=30, deadline=None)
def test_attention_weights_always_normalized(dec, enc, time, seed):
    attn = GlobalAttention(dec, enc, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    d = Tensor(rng.standard_normal((2, dec)))
    h = Tensor(rng.standard_normal((2, time, enc)))
    context, weights = attn(d, h)
    assert np.allclose(weights.data.sum(axis=1), 1.0)
    assert context.shape == (2, enc)


@given(dims, dims, st.integers(2, 5), seeds)
@settings(max_examples=20, deadline=None)
def test_attention_fully_masked_except_one_is_delta(dec, enc, time, seed):
    """Masking all but one position forces attention weight 1.0 there."""
    attn = GlobalAttention(dec, enc, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    d = Tensor(rng.standard_normal((1, dec)))
    h = Tensor(rng.standard_normal((1, time, enc)))
    mask = np.ones((1, time), dtype=bool)
    mask[0, 0] = False
    context, weights = attn(d, h, pad_mask=mask)
    assert np.isclose(weights.data[0, 0], 1.0)
    assert np.allclose(context.data[0], h.data[0, 0])
