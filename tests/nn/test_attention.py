"""Tests for the paper's global attention (Section 3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import GlobalAttention
from repro.nn.attention import live_width
from repro.tensor import Tensor, check_gradients


def _attention(dec=3, enc=4, seed=0):
    return GlobalAttention(dec, enc, np.random.default_rng(seed))


def test_weights_form_distribution():
    attn = _attention()
    d = Tensor(np.random.default_rng(1).standard_normal((2, 3)))
    h = Tensor(np.random.default_rng(2).standard_normal((2, 5, 4)))
    context, weights = attn(d, h)
    assert context.shape == (2, 4)
    assert weights.shape == (2, 5)
    assert np.allclose(weights.data.sum(axis=1), 1.0)
    assert np.all(weights.data >= 0)


def test_scores_match_paper_formula():
    """e_{k,t} = tanh(d_k^T W_h h_t), verified element by element."""
    attn = _attention()
    d = np.random.default_rng(3).standard_normal((2, 3))
    h = np.random.default_rng(4).standard_normal((2, 5, 4))
    scores = attn.scores(Tensor(d), Tensor(h)).data
    for b in range(2):
        for t in range(5):
            expected = np.tanh(d[b] @ attn.weight.data @ h[b, t])
            assert np.isclose(scores[b, t], expected)


def test_context_is_weighted_average():
    attn = _attention()
    d = Tensor(np.random.default_rng(5).standard_normal((1, 3)))
    h_data = np.random.default_rng(6).standard_normal((1, 4, 4))
    context, weights = attn(d, Tensor(h_data))
    expected = (weights.data[0][:, None] * h_data[0]).sum(axis=0)
    assert np.allclose(context.data[0], expected)


def test_pad_mask_zeroes_attention():
    attn = _attention()
    d = Tensor(np.random.default_rng(7).standard_normal((1, 3)))
    h = Tensor(np.random.default_rng(8).standard_normal((1, 5, 4)))
    pad_mask = np.array([[False, False, True, True, True]])
    _, weights = attn(d, h, pad_mask=pad_mask)
    assert np.allclose(weights.data[0, 2:], 0.0)
    assert np.allclose(weights.data[0, :2].sum(), 1.0)


def test_fully_valid_mask_equals_no_mask():
    attn = _attention()
    d = Tensor(np.random.default_rng(9).standard_normal((1, 3)))
    h = Tensor(np.random.default_rng(10).standard_normal((1, 5, 4)))
    _, w_none = attn(d, h)
    _, w_mask = attn(d, h, pad_mask=np.zeros((1, 5), dtype=bool))
    assert np.allclose(w_none.data, w_mask.data)


def test_attention_gradcheck():
    attn = GlobalAttention(2, 3, np.random.default_rng(11))
    d = Tensor(np.random.default_rng(12).standard_normal((2, 2)), requires_grad=True)
    h = Tensor(np.random.default_rng(13).standard_normal((2, 4, 3)), requires_grad=True)

    def loss():
        context, _ = attn(d, h)
        return (context * context).sum()

    check_gradients(loss, [d, h, attn.weight], rtol=1e-3, atol=1e-5)


def test_attention_gradcheck_with_mask():
    attn = GlobalAttention(2, 3, np.random.default_rng(14))
    d = Tensor(np.random.default_rng(15).standard_normal((1, 2)), requires_grad=True)
    h = Tensor(np.random.default_rng(16).standard_normal((1, 4, 3)), requires_grad=True)
    pad = np.array([[False, False, False, True]])

    def loss():
        context, _ = attn(d, h, pad_mask=pad)
        return context.sum()

    check_gradients(loss, [d, h, attn.weight], rtol=1e-3, atol=1e-5)


# ---------------------------------------------------------------------------
# Live-prefix skip: trailing all-pad columns are not scored
# ---------------------------------------------------------------------------
def test_live_width_without_mask_is_the_full_width():
    assert live_width(None, 7) == 7


def test_live_width_with_a_real_last_column_is_the_full_width():
    mask = np.array([[False, True, True], [False, False, False]])
    assert live_width(mask, 3) == 3


def test_live_width_with_only_the_first_column_real_is_one():
    mask = np.ones((4, 200), dtype=bool)
    mask[:, 0] = False
    assert live_width(mask, 200) == 1


def test_live_width_is_one_past_the_last_column_some_row_uses():
    mask = np.arange(9)[None, :] >= np.array([[2], [5], [3]])
    assert live_width(mask, 9) == 5


def test_live_width_of_an_all_pad_mask_is_the_full_width():
    assert live_width(np.ones((2, 6), dtype=bool), 6) == 6


@st.composite
def frontiers(draw):
    """A decode frontier padded to a fixed width: ``(width, lengths, seed)``.

    Every row holds at least one real token (admission guarantees it); half
    the draws put a real token in the last column, where the skip is a
    no-op.
    """
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 200))
    longest = width if draw(st.booleans()) else draw(st.integers(1, width))
    lengths = draw(st.lists(st.integers(1, longest), min_size=rows, max_size=rows))
    lengths[draw(st.integers(0, rows - 1))] = longest
    return width, np.array(lengths), draw(st.integers(0, 2**16))


def _full_width_attention(layer, d, states, mask, coverage):
    """The attention formula at the full width, in plain numpy."""
    scores = np.tanh(((d @ layer.weight.data)[:, None, :] * states).sum(axis=2))
    if coverage is not None:
        scores = scores + coverage * layer.coverage_weight.data
    scores = np.where(mask, -1e9, scores)
    exp = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights = exp / exp.sum(axis=1, keepdims=True)
    return (weights[:, :, None] * states).sum(axis=1), weights


@pytest.mark.parametrize("use_coverage", [False, True], ids=["plain", "coverage"])
@given(frontiers())
@settings(max_examples=40, deadline=None)
def test_live_prefix_attention_is_byte_identical_to_full_width(use_coverage, frontier):
    width, lengths, seed = frontier
    rng = np.random.default_rng(seed)
    rows, dec, enc = len(lengths), 5, 7
    layer = GlobalAttention(dec, enc, rng, use_coverage=use_coverage)
    mask = np.arange(width)[None, :] >= lengths[:, None]
    d = rng.standard_normal((rows, dec))
    states = rng.standard_normal((rows, width, enc))
    states[mask] = 0.0  # the encoder emits zeros at pads
    coverage = None
    if use_coverage:
        layer.coverage_weight.data[:] = rng.standard_normal(1) * 5.0
        coverage = np.where(mask, 0.0, rng.random((rows, width)) * 3.0)

    context, weights = layer(
        Tensor(d),
        Tensor(states),
        pad_mask=mask,
        coverage=None if coverage is None else Tensor(coverage),
    )
    expected_context, expected_weights = _full_width_attention(layer, d, states, mask, coverage)
    assert weights.shape == (rows, width)
    assert np.array_equal(weights.data, expected_weights)  # bytes, not close
    assert np.array_equal(context.data, expected_context)
