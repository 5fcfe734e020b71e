"""A from-scratch reverse-mode autodiff tensor library (PyTorch substitute).

The Etalumis paper trains its inference-compilation network with PyTorch; in
this reproduction the equivalent capability is provided by:

* :mod:`repro.tensor.tensor` — the :class:`Tensor` class and dynamic autograd
  graph,
* :mod:`repro.tensor.functional` — softmax/conv3d/max-pool/… operations,
* :mod:`repro.tensor.nn` — Module/Linear/Conv3d/LSTM/… layers,
* :mod:`repro.tensor.optim` — Adam/LARC and learning-rate schedules.
"""

from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import functional
from repro.tensor import nn
from repro.tensor import optim

__all__ = ["Tensor", "no_grad", "functional", "nn", "optim"]
