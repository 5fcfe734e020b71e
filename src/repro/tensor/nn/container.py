"""Module containers: Sequential, ModuleList and ModuleDict.

``ModuleDict`` is the key container for the Etalumis inference network: the
address-specific embedding and proposal layers live in dictionaries keyed by
simulator address, and new entries are added dynamically the first time an
address is encountered (Section 4.3) or pre-generated from an offline dataset
(Section 4.4).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, List, Optional

from repro.tensor.nn.module import Module

__all__ = ["Sequential", "ModuleList", "ModuleDict"]


class Sequential(Module):
    """Apply child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.register_module(str(index), module)

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())


class ModuleList(Module):
    """A list of sub-modules registered for parameter traversal."""

    def __init__(self, modules: Optional[Iterable[Module]] = None) -> None:
        super().__init__()
        self._order: List[str] = []
        if modules is not None:
            for module in modules:
                self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return (self._modules[name] for name in self._order)


class ModuleDict(Module):
    """A string-keyed dictionary of sub-modules.

    Keys are sanitised so that arbitrary simulator address strings (which can
    contain dots) do not collide with the hierarchical parameter naming used
    by :meth:`Module.named_parameters`.
    """

    def __init__(self) -> None:
        super().__init__()
        self._key_map: "OrderedDict[str, str]" = OrderedDict()

    @staticmethod
    def _sanitize(key: str) -> str:
        return key.replace(".", "_")

    def __setitem__(self, key: str, module: Module) -> None:
        safe = self._sanitize(key)
        # Disambiguate collisions after sanitisation.
        if safe in self._modules and self._key_map.get(key) != safe:
            suffix = 1
            base = safe
            while safe in self._modules:
                safe = f"{base}__{suffix}"
                suffix += 1
        self._key_map[key] = safe
        self.register_module(safe, module)

    def __getitem__(self, key: str) -> Module:
        return self._modules[self._key_map[key]]

    def __contains__(self, key: str) -> bool:
        return key in self._key_map

    def __len__(self) -> int:
        return len(self._key_map)
