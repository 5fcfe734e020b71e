"""Module and Parameter base classes for the NN library.

Mirrors the subset of ``torch.nn.Module`` behaviour the Etalumis stack relies
on: named parameter traversal (needed for the allreduce of gradients by name,
Section 4.4.4), recursive train/eval switching, state-dict save/load, and
dynamic registration of sub-modules (the inference network creates new
address-specific embedding and proposal layers at runtime).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True`` when created)."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all NN modules."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # ------------------------------------------------------------ registration
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -------------------------------------------------------------- traversal
    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total number of trainable scalars (the paper reports 156M / 171M)."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # ------------------------------------------------------------- state dict
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, value in state.items():
            if own[name].data.shape != np.asarray(value).shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{own[name].data.shape} vs {np.asarray(value).shape}"
                )
            own[name].data = np.asarray(value, dtype=np.float64).copy()

    # ------------------------------------------------------------------- call
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child = ", ".join(self._modules.keys())
        return f"{type(self).__name__}({child})"
