"""The LSTM cell in elementary tape ops: the reference the fused cell
(:func:`repro.nn.functional.lstm_cell_step`) is checked against."""

from repro.tensor.ops import sigmoid, tanh


def lstm_cell_reference(cell, x, state):
    """One step of ``cell`` (an :class:`repro.nn.LSTMCell`) built from
    elementary ops; returns the new ``(hidden, cell)`` pair."""
    h_prev, c_prev = state
    gates = x @ cell.weight_ih.T + h_prev @ cell.weight_hh.T + cell.bias
    hidden = cell.hidden_size
    i_gate = sigmoid(gates[:, :hidden])
    f_gate = sigmoid(gates[:, hidden: 2 * hidden])
    g_gate = tanh(gates[:, 2 * hidden: 3 * hidden])
    o_gate = sigmoid(gates[:, 3 * hidden:])
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * tanh(c_new)
    return h_new, c_new
