"""Tests for the tape profiler, incl. pinning the fused-LSTM node budget."""

import os
import sys

import numpy as np

from repro.nn import LSTMCell
from repro.nn.functional import lstm_cell_step
from repro.tensor import TapeProfile, Tensor, no_grad
from repro.tensor.ops import tanh

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "nn"))
from reference_cell import lstm_cell_reference  # noqa: E402


def test_counts_nodes_and_elements():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with TapeProfile() as profile:
        y = tanh(x)          # 1 node, 6 elements
        z = (y * 2.0).sum()  # mul node (6) + sum node (1)
    assert profile.nodes == 3
    assert profile.elements == 6 + 6 + 1


def test_no_grad_creates_no_nodes():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    with TapeProfile() as profile:
        with no_grad():
            tanh(x)
    assert profile.nodes == 0


def test_constant_inputs_create_no_nodes():
    x = Tensor(np.ones((2, 3)))  # requires_grad=False
    with TapeProfile() as profile:
        tanh(x)
    assert profile.nodes == 0


def test_profile_inactive_outside_context():
    x = Tensor(np.ones(2), requires_grad=True)
    with TapeProfile() as profile:
        tanh(x)
    tanh(x)  # outside: not counted
    assert profile.nodes == 1


def test_nested_profiles_both_count():
    x = Tensor(np.ones(2), requires_grad=True)
    with TapeProfile() as outer:
        tanh(x)
        with TapeProfile() as inner:
            tanh(x)
    assert inner.nodes == 1
    assert outer.nodes == 2


def test_fused_lstm_step_node_budget():
    """The fused cell must stay at 3 nodes per step (core + 2 slices).

    A refactor that silently re-expands the cell into elementary ops would
    blow this budget and the paragraph-scale training speed with it.
    """
    cell = LSTMCell(8, 8, np.random.default_rng(0))
    x = Tensor(np.ones((4, 8)), requires_grad=True)
    h, c = cell.initial_state(4)
    with TapeProfile() as profile:
        lstm_cell_step(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
    assert profile.nodes == 3


def test_reference_cell_is_much_larger():
    cell = LSTMCell(8, 8, np.random.default_rng(0))
    x = Tensor(np.ones((4, 8)), requires_grad=True)
    h, c = cell.initial_state(4)
    with TapeProfile() as profile:
        lstm_cell_reference(cell, x, (h, c))
    assert profile.nodes >= 10
