"""Tests for LSTMCell, stacked LSTM, and the bidirectional encoder."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import LSTM, BidirectionalLSTM, LSTMCell
from repro.nn.functional import lstm_cell_step
from repro.tensor import Tensor, check_gradients, no_grad
from repro.tensor.ops import concat, masked_fill, stack, where


def _rng(seed=0):
    return np.random.default_rng(seed)


def _inputs(batch, time, dim, seed=1):
    return Tensor(np.random.default_rng(seed).standard_normal((batch, time, dim)))


def test_cell_output_shapes():
    cell = LSTMCell(4, 3, _rng())
    h, c = cell.initial_state(2)
    x = Tensor(np.ones((2, 4)))
    h_new, c_new = cell(x, (h, c))
    assert h_new.shape == (2, 3)
    assert c_new.shape == (2, 3)


def test_cell_forget_bias_initialized_to_one():
    cell = LSTMCell(4, 3, _rng())
    assert np.allclose(cell.bias.data[3:6], 1.0)


def test_cell_reference_implementation():
    """Check the gate math against a direct numpy transcription."""
    cell = LSTMCell(2, 2, _rng(3))
    x = np.array([[0.5, -1.0]])
    h0 = np.array([[0.1, 0.2]])
    c0 = np.array([[-0.3, 0.4]])
    h_new, c_new = cell(Tensor(x), (Tensor(h0), Tensor(c0)))

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    gates = x @ cell.weight_ih.data.T + h0 @ cell.weight_hh.data.T + cell.bias.data
    i, f, g, o = gates[:, :2], gates[:, 2:4], gates[:, 4:6], gates[:, 6:]
    c_ref = sigmoid(f) * c0 + sigmoid(i) * np.tanh(g)
    h_ref = sigmoid(o) * np.tanh(c_ref)
    assert np.allclose(c_new.data, c_ref)
    assert np.allclose(h_new.data, h_ref)


def test_cell_gradcheck():
    cell = LSTMCell(3, 2, _rng(1))
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3)), requires_grad=True)

    def loss():
        h, c = cell(x, cell.initial_state(2))
        return (h * h + c).sum()

    check_gradients(loss, [x, cell.weight_ih, cell.weight_hh, cell.bias], rtol=1e-3)


def test_lstm_output_shape_and_state_count():
    lstm = LSTM(4, 3, num_layers=2, rng=_rng())
    out, states = lstm(_inputs(2, 5, 4))
    assert out.shape == (2, 5, 3)
    assert len(states) == 2
    assert states[0][0].shape == (2, 3)


def test_lstm_rejects_zero_layers():
    import pytest

    with pytest.raises(ValueError):
        LSTM(4, 3, num_layers=0, rng=_rng())


def test_lstm_final_state_equals_last_output():
    lstm = LSTM(4, 3, num_layers=1, rng=_rng())
    out, states = lstm(_inputs(2, 5, 4))
    assert np.allclose(out.data[:, -1, :], states[0][0].data)


def test_lstm_padding_carries_state():
    """A padded batch must reproduce the unpadded sequence's final state."""
    lstm = LSTM(4, 3, num_layers=1, rng=_rng(5))
    data = np.random.default_rng(6).standard_normal((1, 3, 4))
    out_short, states_short = lstm(Tensor(data))

    padded = np.concatenate([data, np.zeros((1, 2, 4))], axis=1)
    pad_mask = np.array([[False, False, False, True, True]])
    out_long, states_long = lstm(Tensor(padded), pad_mask=pad_mask)

    assert np.allclose(states_short[0][0].data, states_long[0][0].data)
    assert np.allclose(states_short[0][1].data, states_long[0][1].data)
    # Padded positions emit zeros.
    assert np.allclose(out_long.data[:, 3:, :], 0.0)
    assert np.allclose(out_long.data[:, :3, :], out_short.data)


def test_lstm_reverse_matches_manual_reversal():
    """reverse=True on x equals forward on time-reversed x, outputs re-reversed."""
    lstm = LSTM(2, 3, num_layers=1, rng=_rng(7))
    data = np.random.default_rng(8).standard_normal((1, 4, 2))
    out_rev, states_rev = lstm(Tensor(data), reverse=True)
    out_fwd, states_fwd = lstm(Tensor(data[:, ::-1, :].copy()))
    assert np.allclose(out_rev.data, out_fwd.data[:, ::-1, :])
    assert np.allclose(states_rev[0][0].data, states_fwd[0][0].data)


def test_lstm_step_matches_forward():
    lstm = LSTM(4, 3, num_layers=2, rng=_rng(9))
    data = np.random.default_rng(10).standard_normal((2, 3, 4))
    out, _ = lstm(Tensor(data))

    states = lstm.initial_states(2)
    for t in range(3):
        top, states = lstm.step(Tensor(data[:, t, :]), states)
        assert np.allclose(top.data, out.data[:, t, :])


def test_lstm_gradcheck_through_time():
    lstm = LSTM(2, 2, num_layers=1, rng=_rng(11))
    x = Tensor(np.random.default_rng(12).standard_normal((1, 3, 2)), requires_grad=True)

    def loss():
        out, _ = lstm(x)
        return (out * out).sum()

    check_gradients(loss, [x] + lstm.parameters(), rtol=1e-3, atol=1e-5)


def test_bilstm_output_width_is_doubled():
    encoder = BidirectionalLSTM(4, 3, num_layers=1, rng=_rng())
    out, fwd, bwd = encoder(_inputs(2, 5, 4))
    assert out.shape == (2, 5, 6)
    assert encoder.output_size == 6


def test_bilstm_directions_are_independent_parameters():
    encoder = BidirectionalLSTM(4, 3, num_layers=1, rng=_rng())
    names = {name for name, _ in encoder.named_parameters()}
    assert any(name.startswith("forward_lstm") for name in names)
    assert any(name.startswith("backward_lstm") for name in names)


def test_bilstm_concatenates_direction_outputs():
    encoder = BidirectionalLSTM(2, 3, num_layers=1, rng=_rng(13))
    data = _inputs(1, 4, 2, seed=14)
    out, fwd_states, bwd_states = encoder(data)
    fwd_out, _ = encoder.forward_lstm(data)
    bwd_out, _ = encoder.backward_lstm(data, reverse=True)
    assert np.allclose(out.data[:, :, :3], fwd_out.data)
    assert np.allclose(out.data[:, :, 3:], bwd_out.data)


def test_bilstm_backward_final_state_summarizes_from_start():
    """The backward direction's final state is its t=0 output."""
    encoder = BidirectionalLSTM(2, 3, num_layers=1, rng=_rng(15))
    data = _inputs(1, 4, 2, seed=16)
    out, _, bwd_states = encoder(data)
    assert np.allclose(out.data[:, 0, 3:], bwd_states[0][0].data)


def test_bilstm_gradcheck():
    encoder = BidirectionalLSTM(2, 2, num_layers=1, rng=_rng(17))
    x = Tensor(np.random.default_rng(18).standard_normal((1, 3, 2)), requires_grad=True)

    def loss():
        out, _, _ = encoder(x)
        return (out * out).sum()

    check_gradients(loss, [x] + encoder.parameters(), rtol=1e-3, atol=1e-5)


def test_interlayer_dropout_only_active_in_training():
    lstm = LSTM(4, 3, num_layers=2, rng=_rng(19), dropout=0.5, dropout_seed=1)
    data = _inputs(2, 4, 4, seed=20)
    lstm.eval()
    out_a, _ = lstm(data)
    out_b, _ = lstm(data)
    assert np.allclose(out_a.data, out_b.data)


def test_bilstm_padding_equivalence():
    """Padded bidirectional encoding must match the unpadded run."""
    encoder = BidirectionalLSTM(3, 4, num_layers=1, rng=_rng(21))
    data = np.random.default_rng(22).standard_normal((1, 4, 3))
    out_short, fwd_short, bwd_short = encoder(Tensor(data))

    padded = np.concatenate([data, np.zeros((1, 3, 3))], axis=1)
    mask = np.array([[False] * 4 + [True] * 3])
    out_long, fwd_long, bwd_long = encoder(Tensor(padded), pad_mask=mask)

    assert np.allclose(out_long.data[:, :4, :], out_short.data)
    assert np.allclose(out_long.data[:, 4:, :], 0.0)
    assert np.allclose(fwd_short[0][0].data, fwd_long[0][0].data)
    assert np.allclose(bwd_short[0][0].data, bwd_long[0][0].data)


def test_lstm_initial_states_are_independent_tensors():
    lstm = LSTM(2, 3, num_layers=2, rng=_rng(23))
    states = lstm.initial_states(2)
    states[0][0].data[...] = 5.0
    assert np.allclose(states[1][0].data, 0.0)


def test_lstm_two_layer_stack_feeds_layer_outputs():
    """Layer 1's input is layer 0's output sequence."""
    lstm = LSTM(2, 3, num_layers=2, rng=_rng(24), dropout=0.0)
    data = np.random.default_rng(25).standard_normal((1, 3, 2))
    out, states = lstm(Tensor(data))
    # Top-layer output must equal running layer 1 over layer 0's outputs.
    layer0 = LSTM(2, 3, num_layers=1, rng=_rng(99))
    layer0.cells[0].weight_ih.data[...] = lstm.cells[0].weight_ih.data
    layer0.cells[0].weight_hh.data[...] = lstm.cells[0].weight_hh.data
    layer0.cells[0].bias.data[...] = lstm.cells[0].bias.data
    mid, _ = layer0(Tensor(data))
    layer1 = LSTM(3, 3, num_layers=1, rng=_rng(98))
    layer1.cells[0].weight_ih.data[...] = lstm.cells[1].weight_ih.data
    layer1.cells[0].weight_hh.data[...] = lstm.cells[1].weight_hh.data
    layer1.cells[0].bias.data[...] = lstm.cells[1].bias.data
    top, _ = layer1(Tensor(mid.data))
    assert np.allclose(top.data, out.data)


# ----------------------------------------------------------------------
# The one-node recurrence against the per-step tape formulation
# ----------------------------------------------------------------------
def _reference_lstm(lstm, inputs, pad_mask=None, initial_states=None, reverse=False):
    """``LSTM.forward`` built from per-step tape nodes.

    Every step is a ``lstm_cell_step`` node on a slice of the batched input
    projection (an identity ``W_ih`` and zero bias leave the slice's bytes
    unchanged), padded rows carry their state through ``where``, and the
    steps are joined with ``stack`` and ``masked_fill``.
    """
    batch_size, time_steps = inputs.shape[0], inputs.shape[1]
    if pad_mask is not None:
        live = np.flatnonzero(~pad_mask.all(axis=0))
        steps = int(live[-1]) + 1 if live.size else time_steps
        if steps < time_steps:
            outputs, final_states = _reference_lstm(
                lstm, inputs[:, :steps], pad_mask[:, :steps], initial_states, reverse
            )
            tail = np.zeros((batch_size, time_steps - steps, outputs.shape[2]))
            return concat([outputs, Tensor(tail)], axis=1), final_states
    states = list(initial_states) if initial_states is not None else lstm.initial_states(batch_size)
    time_order = range(time_steps - 1, -1, -1) if reverse else range(time_steps)
    layer_input = inputs
    final_states = []
    for layer, cell in enumerate(lstm.cells):
        gates = 4 * cell.hidden_size
        projected = (
            layer_input.reshape(batch_size * time_steps, layer_input.shape[2]) @ cell.weight_ih.T
            + cell.bias
        ).reshape(batch_size, time_steps, gates)
        identity, zero_bias = Tensor(np.eye(gates)), Tensor(np.zeros(gates))
        h, c = states[layer]
        outputs = [None] * time_steps
        for t in time_order:
            h_new, c_new = lstm_cell_step(
                projected[:, t, :], h, c, identity, cell.weight_hh, zero_bias
            )
            if pad_mask is not None and pad_mask[:, t].any():
                pad_t = pad_mask[:, t: t + 1]
                h_new = where(pad_t, h, h_new)
                c_new = where(pad_t, c, c_new)
            h, c = h_new, c_new
            outputs[t] = h_new
        final_states.append((h, c))
        sequence = stack(outputs, axis=1)
        if pad_mask is not None:
            sequence = masked_fill(sequence, pad_mask[:, :, None], 0.0)
        if lstm.inter_layer_dropout is not None and layer < lstm.num_layers - 1:
            sequence = lstm.inter_layer_dropout(sequence)
        layer_input = sequence
    return layer_input, final_states


def _ragged_mask(rng, batch, time):
    lengths = rng.integers(0, time + 1, size=batch)
    return np.arange(time)[None, :] >= lengths[:, None]


def _loss_through_everything(outputs, states, rng):
    """A loss reading the outputs and every layer's final ``(h, c)``."""
    loss = (outputs * Tensor(rng.standard_normal(outputs.shape))).sum()
    for h, c in states:
        loss = loss + (h * Tensor(rng.standard_normal(h.shape))).sum()
        loss = loss + (c * Tensor(rng.standard_normal(c.shape))).sum()
    return loss


def _run_case(build, call, seed):
    """Build two identical modules and backpropagate one loss through each path."""
    results = []
    for path in ("kernel", "reference"):
        module = build()
        module.train()
        outputs, states, leaves = call(module, path)
        _loss_through_everything(outputs, states, np.random.default_rng(seed)).backward()
        results.append((module, outputs, states, leaves))
    return results


def _assert_identical(kernel, reference):
    module_k, out_k, states_k, leaves_k = kernel
    module_r, out_r, states_r, leaves_r = reference
    assert out_k.data.tobytes() == out_r.data.tobytes()
    assert len(states_k) == len(states_r)
    for (h_k, c_k), (h_r, c_r) in zip(states_k, states_r):
        assert h_k.data.tobytes() == h_r.data.tobytes()
        assert c_k.data.tobytes() == c_r.data.tobytes()
    for (name, p_k), (_, p_r) in zip(module_k.named_parameters(), module_r.named_parameters()):
        assert np.array_equal(p_k.grad, p_r.grad), name
    for leaf_k, leaf_r in zip(leaves_k, leaves_r):
        assert np.array_equal(leaf_k.grad, leaf_r.grad)


case_shape = st.tuples(
    st.integers(1, 6),  # batch
    st.integers(1, 12),  # time
    st.integers(1, 4),  # input features
    st.integers(1, 5),  # hidden
    st.integers(1, 2),  # layers
)


@given(
    case_shape,
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 0.3]),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_lstm_matches_per_step_tape_byte_for_byte(shape, padded, reverse, given_states, p, seed):
    batch, time, features, hidden, layers = shape
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, time, features))
    pad_mask = _ragged_mask(rng, batch, time) if padded else None
    starts = rng.standard_normal((layers, 2, batch, hidden)) if given_states else None

    def build():
        return LSTM(features, hidden, layers, _rng(seed), dropout=p, dropout_seed=seed)

    def call(module, path):
        x = Tensor(data, requires_grad=True)
        initial = None
        leaves = [x]
        if starts is not None:
            initial = [(Tensor(h, requires_grad=True), Tensor(c, requires_grad=True)) for h, c in starts]
            leaves += [t for pair in initial for t in pair]
        run = module if path == "kernel" else lambda *a, **k: _reference_lstm(module, *a, **k)
        outputs, states = run(x, pad_mask=pad_mask, initial_states=initial, reverse=reverse)
        return outputs, states, leaves

    kernel, reference = _run_case(build, call, seed)
    _assert_identical(kernel, reference)


@given(case_shape, st.booleans(), st.sampled_from([0.0, 0.3]), st.integers(0, 2**16))
@example(shape=(2, 1, 1, 1, 2), padded=False, p=0.0, seed=2)  # (B, 1) layer input
@settings(max_examples=25, deadline=None)
def test_bilstm_matches_per_step_tape_byte_for_byte(shape, padded, p, seed):
    batch, time, features, hidden, layers = shape
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, time, features))
    pad_mask = _ragged_mask(rng, batch, time) if padded else None

    def build():
        return BidirectionalLSTM(features, hidden, layers, _rng(seed), dropout=p, dropout_seed=seed)

    def call(module, path):
        x = Tensor(data, requires_grad=True)
        if path == "kernel":
            outputs, fwd, bwd = module(x, pad_mask=pad_mask)
        else:
            fwd_out, fwd = _reference_lstm(module.forward_lstm, x, pad_mask)
            bwd_out, bwd = _reference_lstm(module.backward_lstm, x, pad_mask, reverse=True)
            outputs = concat([fwd_out, bwd_out], axis=2)
        return outputs, fwd + bwd, [x]

    kernel, reference = _run_case(build, call, seed)
    _assert_identical(kernel, reference)


def _bilstm_paths(module, x, pad_mask, path):
    """The lockstep encoder, or each direction through ``_reference_lstm``."""
    if path == "kernel":
        outputs, fwd, bwd = module(x, pad_mask=pad_mask)
    else:
        fwd_out, fwd = _reference_lstm(module.forward_lstm, x, pad_mask)
        bwd_out, bwd = _reference_lstm(module.backward_lstm, x, pad_mask, reverse=True)
        outputs = concat([fwd_out, bwd_out], axis=2)
    return outputs, fwd + bwd


# (batch, time, features, hidden, layers, ragged): the ACNN encoder at
# DEFAULT dims (embedding 32 in, hidden 48, 2 layers) as serving encodes
# it and as a training batch runs it, then the (B, 1) layer input and the
# H = 1 shape whose ``dW_hh`` operand numpy hands to BLAS as a vector.
DEFAULT_DIM_CASES = [
    (1, 12, 32, 48, 2, False),
    (1, 100, 32, 48, 2, False),
    (32, 100, 32, 48, 2, True),
    (2, 1, 1, 1, 2, False),
    (7, 10, 4, 1, 2, True),
]


def _case_id(case):
    return "x".join(map(str, case[:5])) + ("-ragged" if case[5] else "")


@pytest.mark.parametrize("case", DEFAULT_DIM_CASES, ids=_case_id)
@pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "no_grad"])
def test_bilstm_matches_per_step_tape_at_default_dims(case, recorded):
    batch, time, features, hidden, layers, ragged = case
    seed = 415
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, time, features))
    pad_mask = _ragged_mask(rng, batch, time) if ragged else None

    def build():
        return BidirectionalLSTM(
            features, hidden, layers, _rng(seed), dropout=0.3, dropout_seed=seed
        )

    if recorded:
        def call(module, path):
            x = Tensor(data, requires_grad=True)
            outputs, states = _bilstm_paths(module, x, pad_mask, path)
            return outputs, states, [x]

        kernel, reference = _run_case(build, call, seed)
        _assert_identical(kernel, reference)
        return

    results = []
    for path in ("kernel", "reference"):
        module = build()
        module.eval()
        with no_grad():
            results.append(_bilstm_paths(module, Tensor(data), pad_mask, path))
    (out_k, states_k), (out_r, states_r) = results
    assert out_k.data.tobytes() == out_r.data.tobytes()
    for (h_k, c_k), (h_r, c_r) in zip(states_k, states_r):
        assert h_k.data.tobytes() == h_r.data.tobytes()
        assert c_k.data.tobytes() == c_r.data.tobytes()


# ----------------------------------------------------------------------
# Gradchecks over ragged pads, stacking, reverse and final states
# ----------------------------------------------------------------------
_PADS = np.array(
    [
        [False, False, False, False],
        [False, False, True, True],
        [False, True, True, True],
    ]
)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_gradcheck_ragged_two_layers_through_final_states(reverse):
    lstm = LSTM(2, 2, num_layers=2, rng=_rng(31))
    x = Tensor(np.random.default_rng(32).standard_normal((3, 4, 2)), requires_grad=True)
    weights = np.random.default_rng(33)
    w_out = Tensor(weights.standard_normal((3, 4, 2)))
    w_states = [Tensor(weights.standard_normal((3, 2))) for _ in range(4)]

    def loss():
        out, states = lstm(x, pad_mask=_PADS, reverse=reverse)
        total = (out * w_out).sum()
        for (h, c), (w_h, w_c) in zip(states, zip(w_states[::2], w_states[1::2])):
            total = total + (h * w_h).sum() + (c * w_c).sum()
        return total

    check_gradients(loss, [x] + lstm.parameters(), rtol=1e-3, atol=1e-5)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_gradcheck_given_initial_states(reverse):
    lstm = LSTM(2, 3, num_layers=2, rng=_rng(34))
    rng = np.random.default_rng(35)
    x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
    initial = [
        (Tensor(rng.standard_normal((3, 3)), requires_grad=True),
         Tensor(rng.standard_normal((3, 3)), requires_grad=True))
        for _ in range(2)
    ]
    leaves = [t for pair in initial for t in pair]

    def loss():
        out, states = lstm(x, pad_mask=_PADS, initial_states=initial, reverse=reverse)
        h_top, c_top = states[-1]
        return (out * out).sum() + (h_top * c_top).sum() + states[0][1].sum()

    check_gradients(loss, [x] + leaves + lstm.parameters(), rtol=1e-3, atol=1e-5)


def test_bilstm_gradcheck_ragged_through_final_states():
    encoder = BidirectionalLSTM(2, 2, num_layers=2, rng=_rng(36))
    x = Tensor(np.random.default_rng(37).standard_normal((3, 4, 2)), requires_grad=True)

    def loss():
        out, fwd, bwd = encoder(x, pad_mask=_PADS)
        total = (out * out).sum()
        for h, c in fwd + bwd:
            total = total + (h * c).sum()
        return total

    check_gradients(loss, [x] + encoder.parameters(), rtol=1e-3, atol=1e-5)
