"""LSTM layers: cell, stacked unidirectional LSTM, and bidirectional encoder.

Implements the recurrences of Section 3.1 of the paper: the encoder is a
bidirectional LSTM whose per-step hidden states are concatenated,
``h_t = [h_t_fwd ; h_t_bwd]``; the decoder is a (stacked) unidirectional LSTM
driven one step at a time.

Over a whole sequence, each layer batches its input projections into one
matmul per direction and runs the recurrence inside one tape node,
:func:`repro.nn.functional.lstm_sequence`, so the time loop builds no
per-step graph. The bidirectional encoder's two directions share that
node: they step in lockstep, the backward one on time-reversed inputs,
so one Python time loop serves both, and :class:`LSTM` and
:class:`BidirectionalLSTM` run the same layer loop. The training loss's
single decoder steps use the fused cell
:func:`repro.nn.functional.lstm_cell_step`, and inference decode steps
run the same cell forward on plain arrays (:meth:`LSTM.step_array`).

Padding is handled with a boolean pad mask: at padded positions the recurrent
state is carried through unchanged, so variable-length batches give the same
final states as running each sequence alone. Trailing steps that pad every
row are not run at all, so padding a batch further never changes a byte of
what it encodes to.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import init
from repro.nn.dropout import Dropout
from repro.nn.functional import lstm_cell_forward, lstm_cell_step, lstm_sequence
from repro.nn.module import Module, Parameter
from repro.tensor.core import Tensor
from repro.tensor.ops import concat, masked_fill

__all__ = ["LSTMCell", "LSTM", "BidirectionalLSTM"]

State = tuple[Tensor, Tensor]


class LSTMCell(Module):
    """Single LSTM step.

    Gate layout inside the fused weight matrices is ``[input, forget, cell,
    output]``. The forget-gate bias is initialized to 1.0, the standard
    trick for stable early training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), rng))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), rng))
        bias = init.zeros((4 * hidden_size,))
        bias[hidden_size: 2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def initial_state(self, batch_size: int) -> State:
        """Zero hidden and cell state for a batch."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())

    def forward(self, x: Tensor, state: State) -> State:
        """Advance one step as one fused tape node
        (:func:`~repro.nn.functional.lstm_cell_step`); returns the new
        ``(hidden, cell)`` pair."""
        h_prev, c_prev = state
        return lstm_cell_step(x, h_prev, c_prev, self.weight_ih, self.weight_hh, self.bias)


class LSTM(Module):
    """Stacked unidirectional LSTM over a padded batch.

    Parameters
    ----------
    input_size, hidden_size:
        Feature sizes; all layers above the first take ``hidden_size`` input.
    num_layers:
        Stack depth (the paper uses 2).
    rng:
        Generator for weight init.
    dropout:
        Probability applied between stacked layers (paper: 0.3).
    dropout_seed:
        Seed for the inter-layer dropout masks.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        dropout_seed: int = 0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.cells: list[LSTMCell] = []
        for layer in range(num_layers):
            cell = LSTMCell(input_size if layer == 0 else hidden_size, hidden_size, rng)
            # Register each cell under a stable dotted name.
            setattr(self, f"cell_{layer}", cell)
            self.cells.append(cell)
        self.inter_layer_dropout = Dropout(dropout, seed=dropout_seed) if dropout > 0 else None

    def initial_states(self, batch_size: int) -> list[State]:
        """Zero states for every layer."""
        return [cell.initial_state(batch_size) for cell in self.cells]

    def step(self, x: Tensor, states: Sequence[State]) -> tuple[Tensor, list[State]]:
        """Advance the whole stack one timestep.

        Returns the top layer's hidden state and the new per-layer states.
        """
        new_states: list[State] = []
        layer_input = x
        for layer, cell in enumerate(self.cells):
            h_new, c_new = cell(layer_input, states[layer])
            new_states.append((h_new, c_new))
            layer_input = h_new
            if self.inter_layer_dropout is not None and layer < self.num_layers - 1:
                layer_input = self.inter_layer_dropout(layer_input)
        return layer_input, new_states

    def step_array(self, x: np.ndarray, states: Sequence[State]) -> tuple[np.ndarray, list[State]]:
        """:meth:`step` in inference mode, on arrays: no dropout, no tape.

        The same cell forward as :meth:`step`, so the bytes match; the new
        states are wrapped as plain (unrecorded) tensors.
        """
        new_states: list[State] = []
        layer_input = x
        for cell, (h_prev, c_prev) in zip(self.cells, states):
            h_c, _ = lstm_cell_forward(
                layer_input, h_prev.data, c_prev.data,
                cell.weight_ih.data, cell.weight_hh.data, cell.bias.data,
            )
            layer_input = h_c[:, : cell.hidden_size]
            new_states.append((Tensor(layer_input), Tensor(h_c[:, cell.hidden_size:])))
        return layer_input, new_states

    def forward(
        self,
        inputs: Tensor,
        pad_mask: np.ndarray | None = None,
        initial_states: Sequence[State] | None = None,
        reverse: bool = False,
    ) -> tuple[Tensor, list[State]]:
        """Run over a full ``(batch, time, features)`` tensor.

        Parameters
        ----------
        inputs:
            Embedded sequence, shape ``(B, T, input_size)``.
        pad_mask:
            Optional boolean array ``(B, T)``; True marks padding (None: no
            padding). At padded steps the state is carried through unchanged
            and the emitted output is zero.
        initial_states:
            Optional per-layer ``(h, c)`` to start from.
        reverse:
            Process time steps from last to first (used by the backward
            direction of the bidirectional encoder). Outputs are returned in
            natural time order either way.

        Returns
        -------
        outputs, final_states:
            ``outputs`` is ``(B, T, hidden_size)`` from the top layer;
            ``final_states`` the per-layer state after the last step.
        """
        outputs, final_states = _run_directions(
            [self], inputs, pad_mask, [initial_states], [reverse]
        )
        return outputs[0], final_states[0]


def _run_directions(
    stacks: Sequence[LSTM],
    inputs: Tensor,
    pad_mask: np.ndarray | None,
    initial_states: Sequence[Sequence[State] | None],
    reverse: Sequence[bool],
) -> tuple[list[Tensor], list[list[State]]]:
    """:meth:`LSTM.forward` for ``D`` stacks of one shape over one input,
    each layer's ``D`` recurrences in one lockstep
    :func:`~repro.nn.functional.lstm_sequence` node. Each stack keeps its
    own layer inputs, dropout and ``initial_states`` entry (None: zeros)."""
    batch_size, time_steps = inputs.shape[0], inputs.shape[1]
    if pad_mask is None:
        pad_mask = np.zeros((batch_size, time_steps), dtype=bool)
    # Trailing steps that pad every row carry the state and emit zeros,
    # so skip them outright. That makes the result byte-for-byte
    # independent of how far the batch was padded: BLAS rounds a row of
    # the input projection differently depending on how many rows the
    # matmul has.
    live = np.flatnonzero(~pad_mask.all(axis=0))
    steps = int(live[-1]) + 1 if live.size else time_steps
    if steps < time_steps:
        outputs, final_states = _run_directions(
            stacks, inputs[:, :steps], pad_mask[:, :steps], initial_states, reverse
        )
        tail = Tensor(np.zeros(
            (batch_size, time_steps - steps, outputs[0].shape[2]), dtype=outputs[0].data.dtype
        ))
        return [concat([out, tail], axis=1) for out in outputs], final_states
    states = [
        list(given) if given is not None else lstm.initial_states(batch_size)
        for lstm, given in zip(stacks, initial_states)
    ]

    layer_inputs = [inputs] * len(stacks)
    final_states: list[list[State]] = [[] for _ in stacks]
    for layer in range(stacks[0].num_layers):
        cells = [lstm.cells[layer] for lstm in stacks]
        # One 2-D matmul per direction for every timestep's input
        # projection (one ``(F, 8H)`` matmul would round differently); the
        # recurrence then only multiplies by W_hh per step.
        projected = [
            (
                x.reshape(batch_size * time_steps, x.shape[2]) @ cell.weight_ih.T + cell.bias
            ).reshape(batch_size, time_steps, 4 * cell.hidden_size)
            for x, cell in zip(layer_inputs, cells)
        ]
        packed = lstm_sequence(
            projected,
            [state[layer][0] for state in states],
            [state[layer][1] for state in states],
            [cell.weight_hh for cell in cells],
            pad_mask,
            reverse,
        )
        for d, lstm in enumerate(stacks):
            final_states[d].append((packed[d, :, time_steps], packed[d, :, time_steps + 1]))
            # Padded positions emit zeros. The fill also copies the strided
            # slice into a contiguous array for the next layer's input
            # projection: numpy hands BLAS a strided ``(B, 1)`` operand as
            # a strided vector, whose rounding depends on the stride.
            sequence = masked_fill(packed[d, :, :time_steps], pad_mask[:, :, None], 0.0)
            if lstm.inter_layer_dropout is not None and layer < lstm.num_layers - 1:
                sequence = lstm.inter_layer_dropout(sequence)
            layer_inputs[d] = sequence

    return layer_inputs, final_states


class BidirectionalLSTM(Module):
    """Bidirectional encoder: concatenated forward/backward hidden states.

    Produces ``h_t = [h_t_fwd ; h_t_bwd]`` of width ``2 * hidden_size`` per
    step, exactly the encoder representation of the paper's Section 3.1.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int,
        rng: np.random.Generator,
        dropout: float = 0.0,
        dropout_seed: int = 0,
    ) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.forward_lstm = LSTM(
            input_size, hidden_size, num_layers, rng, dropout=dropout, dropout_seed=dropout_seed
        )
        self.backward_lstm = LSTM(
            input_size, hidden_size, num_layers, rng, dropout=dropout, dropout_seed=dropout_seed + 1
        )

    @property
    def output_size(self) -> int:
        return 2 * self.hidden_size

    def forward(
        self, inputs: Tensor, pad_mask: np.ndarray | None = None
    ) -> tuple[Tensor, list[State], list[State]]:
        """Encode a padded batch.

        Returns
        -------
        outputs, forward_states, backward_states:
            ``outputs`` is ``(B, T, 2 * hidden_size)``; the state lists hold
            each direction's final per-layer ``(h, c)``.
        """
        (fwd_out, bwd_out), (fwd_states, bwd_states) = _run_directions(
            [self.forward_lstm, self.backward_lstm], inputs, pad_mask, [None, None], [False, True]
        )
        outputs = concat([fwd_out, bwd_out], axis=2)
        return outputs, fwd_states, bwd_states
