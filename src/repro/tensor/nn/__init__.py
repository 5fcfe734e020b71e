"""Neural-network modules built on the autograd tensor library."""

from repro.tensor.nn.module import Module, Parameter
from repro.tensor.nn.linear import Linear, ReLU, Flatten
from repro.tensor.nn.container import Sequential, ModuleList, ModuleDict
from repro.tensor.nn.conv import Conv3d, MaxPool3d
from repro.tensor.nn.recurrent import LSTM, LSTMCell
from repro.tensor.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Flatten",
    "Sequential",
    "ModuleList",
    "ModuleDict",
    "Conv3d",
    "MaxPool3d",
    "LSTM",
    "LSTMCell",
    "init",
]
