"""Tests for the fused LSTM step: must match the elementary-op reference."""

import numpy as np

from reference_cell import lstm_cell_reference

from repro.nn import LSTMCell
from repro.nn.functional import lstm_cell_step
from repro.tensor import Tensor, check_gradients


def _cell(input_size=3, hidden=4, seed=0):
    return LSTMCell(input_size, hidden, np.random.default_rng(seed))


def _inputs(batch=2, input_size=3, hidden=4, seed=1):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((batch, input_size)), requires_grad=True)
    h = Tensor(rng.standard_normal((batch, hidden)), requires_grad=True)
    c = Tensor(rng.standard_normal((batch, hidden)), requires_grad=True)
    return x, h, c


def test_fused_forward_matches_reference():
    cell = _cell()
    x, h, c = _inputs()
    h_fused, c_fused = lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
    h_ref, c_ref = lstm_cell_reference(cell, x, (h, c))
    assert np.allclose(h_fused.data, h_ref.data)
    assert np.allclose(c_fused.data, c_ref.data)


def test_fused_backward_matches_reference():
    """Identical loss through both paths must give identical gradients."""
    cell_a = _cell(seed=3)
    cell_b = _cell(seed=3)

    x_a, h_a, c_a = _inputs(seed=4)
    out_h, out_c = lstm_cell_step(x_a, h_a, c_a, cell_a.weight_ih, cell_a.weight_hh, cell_a.bias)
    ((out_h * out_h).sum() + (out_c * 2.0).sum()).backward()

    x_b, h_b, c_b = _inputs(seed=4)
    ref_h, ref_c = lstm_cell_reference(cell_b, x_b, (h_b, c_b))
    ((ref_h * ref_h).sum() + (ref_c * 2.0).sum()).backward()

    for fused, ref in [
        (x_a, x_b), (h_a, h_b), (c_a, c_b),
        (cell_a.weight_ih, cell_b.weight_ih),
        (cell_a.weight_hh, cell_b.weight_hh),
        (cell_a.bias, cell_b.bias),
    ]:
        assert np.allclose(fused.grad, ref.grad, atol=1e-10), fused.name


def test_fused_gradcheck_h_path():
    cell = _cell(seed=5)
    x, h, c = _inputs(seed=6)

    def loss():
        h_new, _ = lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
        return (h_new * h_new).sum()

    check_gradients(loss, [x, h, c, cell.weight_ih, cell.weight_hh, cell.bias], rtol=1e-3)


def test_fused_gradcheck_c_path():
    cell = _cell(seed=7)
    x, h, c = _inputs(seed=8)

    def loss():
        _, c_new = lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
        return (c_new * c_new).sum()

    check_gradients(loss, [x, h, c, cell.weight_ih, cell.weight_hh, cell.bias], rtol=1e-3)


def test_fused_gradcheck_joint_paths():
    cell = _cell(seed=9)
    x, h, c = _inputs(seed=10)

    def loss():
        h_new, c_new = lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
        return (h_new * c_new).sum()

    check_gradients(loss, [x, h, c, cell.weight_ih, cell.weight_hh, cell.bias], rtol=1e-3)


def test_fused_multi_step_chain_gradcheck():
    """Two chained fused steps (the recurrent use case)."""
    cell = _cell(seed=11)
    x1, h0, c0 = _inputs(seed=12)
    x2 = Tensor(np.random.default_rng(13).standard_normal(x1.shape), requires_grad=True)

    def loss():
        h1, c1 = lstm_cell_step(x1, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias)
        h2, c2 = lstm_cell_step(x2, h1, c1, cell.weight_ih, cell.weight_hh, cell.bias)
        return (h2 * h2 + c2).sum()

    check_gradients(
        loss, [x1, x2, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias], rtol=1e-3
    )
