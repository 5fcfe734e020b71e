"""Recurrent layers: LSTM cell and (optionally stacked) LSTM.

The IC inference network uses an LSTM recurrent core that is executed for as
many time steps as the simulator's probabilistic trace length, with a
per-time-step input that concatenates the observation, address and previous-
sample embeddings (Section 4.3).  The hyperparameter search in Figure 2 sweeps
the number of stacked LSTM layers and hidden units, which is why
:class:`LSTM` supports ``num_layers``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.tensor import functional as F
from repro.tensor.nn import init
from repro.tensor.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM cell with the standard gate parameterisation.

    Gate order in the packed weight matrices is (input, forget, cell, output),
    matching PyTorch so intuition about forget-gate bias etc. carries over.
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        k = 1.0 / math.sqrt(hidden_size) if hidden_size > 0 else 0.0
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), -k, k, rng=rng))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), -k, k, rng=rng))
        self.bias_ih = Parameter(init.uniform((4 * hidden_size,), -k, k, rng=rng))
        self.bias_hh = Parameter(init.uniform((4 * hidden_size,), -k, k, rng=rng))

    def forward(
        self, x: Tensor, state: Optional[Tuple[Tensor, Tensor]] = None
    ) -> Tuple[Tensor, Tensor]:
        """One step.  ``x`` is ``(batch, input_size)``; returns ``(h, c)``."""
        batch = x.shape[0]
        if state is None:
            h_prev = Tensor.zeros(batch, self.hidden_size)
            c_prev = Tensor.zeros(batch, self.hidden_size)
        else:
            h_prev, c_prev = state
        return F.lstm_cell(
            x, h_prev, c_prev, self.weight_ih, self.weight_hh, self.bias_ih, self.bias_hh
        )

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        return Tensor.zeros(batch, self.hidden_size), Tensor.zeros(batch, self.hidden_size)


class LSTM(Module):
    """A stack of LSTM cells applied over a sequence.

    The sequence can be provided either as a single ``(T, batch, input)``
    tensor via :meth:`forward`, or step by step via :meth:`step` - the latter
    is how the inference network drives it, because in a Turing-complete model
    the trace length (and hence T) is not known up-front.
    """

    def __init__(self, input_size: int, hidden_size: int, num_layers: int = 1, rng=None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        from repro.tensor.nn.container import ModuleList

        cells = []
        for layer in range(num_layers):
            in_size = input_size if layer == 0 else hidden_size
            cells.append(LSTMCell(in_size, hidden_size, rng=rng))
        self.cells = ModuleList(cells)

    def initial_state(self, batch: int) -> List[Tuple[Tensor, Tensor]]:
        return [cell.initial_state(batch) for cell in self.cells]

    def step(
        self, x: Tensor, state: Optional[List[Tuple[Tensor, Tensor]]] = None
    ) -> Tuple[Tensor, List[Tuple[Tensor, Tensor]]]:
        """Advance all layers one time step.  Returns top-layer ``h`` and new state."""
        if state is None:
            state = self.initial_state(x.shape[0])
        new_state: List[Tuple[Tensor, Tensor]] = []
        layer_input = x
        for cell, layer_state in zip(self.cells, state):
            h, c = cell(layer_input, layer_state)
            new_state.append((h, c))
            layer_input = h
        return layer_input, new_state

    def forward(
        self, sequence: Sequence[Tensor], state: Optional[List[Tuple[Tensor, Tensor]]] = None
    ) -> Tuple[List[Tensor], List[Tuple[Tensor, Tensor]]]:
        """Run over a whole sequence of per-step inputs ``(batch, input_size)``.

        Returns the list of top-layer hidden states (one per step) and the
        final state.
        """
        outputs: List[Tensor] = []
        if isinstance(sequence, Tensor):
            steps = [sequence[t] for t in range(sequence.shape[0])]
        else:
            steps = list(sequence)
        for x in steps:
            out, state = self.step(x, state)
            outputs.append(out)
        return outputs, state
