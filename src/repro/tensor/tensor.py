"""A minimal reverse-mode automatic-differentiation tensor library.

The paper builds its inference-compilation network on PyTorch, exploiting
dynamic computation graphs (the network topology changes with every execution
trace).  PyTorch is not available in this environment, so this module provides
the same capability from scratch on top of numpy:

* :class:`Tensor` wraps an ``ndarray`` and records the operations applied to
  it in a dynamic graph.
* :meth:`Tensor.backward` runs reverse-mode AD over a topological sort of that
  graph, accumulating gradients into ``.grad``.
* Broadcasting is handled by summing gradients back over broadcast dimensions
  (:func:`unbroadcast`).

The design mirrors the subset of the PyTorch tensor API that the Etalumis
training stack uses (elementwise arithmetic, sums, reshapes, indexing,
concatenation, ReLU), so the rest of the code reads like the original.  The
network's hot operations are the fused kernels of
:mod:`repro.tensor.functional`; the composed operations kept here beside them
(``@``, ``transpose``, ``log``, ``tanh``, ``sigmoid``, ``clamp``) are what
those kernels are checked against.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "unbroadcast"]

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Grad mode is thread-local (as in torch): the batched inference engine enters
# no_grad from cohort worker threads, and a process-global flag would
# race — an unlucky interleaving of two threads' enter/exit could leave
# autograd disabled for the whole process.
class _GradMode(threading.local):
    # Class-level default: a thread that never entered ``no_grad`` reads it
    # with a plain attribute lookup (``_make`` does so once per operation).
    enabled = True


_grad_mode = _GradMode()


def _grad_enabled() -> bool:
    return _grad_mode.enabled


class no_grad:
    """Context manager that disables graph construction (like ``torch.no_grad``)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum over leading dims added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dims that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        data = data.data
    arr = np.asarray(data, dtype=dtype if dtype is not None else None)
    if arr.dtype.kind in "iub" and dtype is None:
        # Keep integer tensors as-is (used for categorical indices); floats default to float64.
        return arr
    if dtype is None and arr.dtype != np.float64 and arr.dtype.kind == "f":
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """A numpy-backed tensor participating in a dynamic autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100.0  # ensure ndarray + Tensor dispatches to Tensor.__radd__

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad) and _grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ basics
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    # --------------------------------------------------------------- backward
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode AD from this tensor.

        ``grad`` defaults to ones (scalar outputs are the common case: the
        minibatch loss in Algorithm 1).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad_arr = np.ones_like(self.data, dtype=np.float64)
        else:
            grad_arr = np.array(np.broadcast_to(_as_array(grad), self.data.shape), dtype=np.float64)

        # Linear-time ordering (Kahn): count, for every node reachable from
        # this one, how many reachable consumers feed gradient into it; a
        # node's backward runs once that many contributions have arrived.
        pending: Dict[Tensor, int] = {}
        stack = [self]
        while stack:
            for parent in stack.pop()._parents:
                if parent.requires_grad:
                    if parent in pending:
                        pending[parent] += 1
                    else:
                        pending[parent] = 1
                        stack.append(parent)

        _accumulate(self, grad_arr, True)
        ready = [self]
        while ready:
            node = ready.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            for parent in node._parents:
                if parent.requires_grad:
                    remaining = pending[parent] - 1
                    if remaining:
                        pending[parent] = remaining
                    else:
                        ready.append(parent)

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out = _make(self.data + other_t.data, (self, other_t))
        if out.requires_grad:
            a, b = self, other_t
            def _bw(grad):
                if a.requires_grad:
                    _accumulate(a, grad)
                if b.requires_grad:
                    _accumulate(b, grad)
            out._backward = _bw
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = _make(-self.data, (self,))
        if out.requires_grad:
            a = self
            def _bw(grad):
                _accumulate(a, -grad, True)
            out._backward = _bw
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_ensure_tensor(other))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out = _make(self.data * other_t.data, (self, other_t))
        if out.requires_grad:
            a, b = self, other_t
            def _bw(grad):
                if a.requires_grad:
                    _accumulate(a, grad * b.data, True)
                if b.requires_grad:
                    _accumulate(b, grad * a.data, True)
            out._backward = _bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out = _make(self.data / other_t.data, (self, other_t))
        if out.requires_grad:
            a, b = self, other_t
            def _bw(grad):
                if a.requires_grad:
                    _accumulate(a, grad / b.data, True)
                if b.requires_grad:
                    _accumulate(b, -grad * a.data / (b.data ** 2), True)
            out._backward = _bw
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        out = _make(self.data @ other_t.data, (self, other_t))
        if out.requires_grad:
            a, b = self, other_t
            def _bw(grad):
                if a.requires_grad:
                    if b.data.ndim == 1:
                        ga = np.outer(grad, b.data) if a.data.ndim == 2 else grad * b.data
                    else:
                        ga = grad @ np.swapaxes(b.data, -1, -2)
                    _accumulate(a, ga, True)
                if b.requires_grad:
                    if a.data.ndim == 1:
                        gb = np.outer(a.data, grad) if b.data.ndim == 2 else grad * a.data
                    else:
                        gb = np.swapaxes(a.data, -1, -2) @ grad
                    _accumulate(b, gb, True)
            out._backward = _bw
        return out

    # ------------------------------------------------------------- unary math
    def log(self) -> "Tensor":
        out = _make(np.log(self.data), (self,))
        if out.requires_grad:
            a = self
            def _bw(grad):
                _accumulate(a, grad / a.data, True)
            out._backward = _bw
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = _make(value, (self,))
        if out.requires_grad:
            a = self
            def _bw(grad):
                _accumulate(a, grad * (1.0 - value ** 2), True)
            out._backward = _bw
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = _make(value, (self,))
        if out.requires_grad:
            a = self
            def _bw(grad):
                _accumulate(a, grad * value * (1.0 - value), True)
            out._backward = _bw
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = _make(self.data * mask, (self,))
        if out.requires_grad:
            a = self
            def _bw(grad):
                _accumulate(a, grad * mask, True)
            out._backward = _bw
        return out

    def clamp(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        out = _make(np.clip(self.data, min_value, max_value), (self,))
        if out.requires_grad:
            a = self
            # The pass-through mask is only needed by the backward pass.
            mask = np.ones(self.data.shape, dtype=bool)
            if min_value is not None:
                mask &= self.data >= min_value
            if max_value is not None:
                mask &= self.data <= max_value
            def _bw(grad):
                _accumulate(a, grad * mask, True)
            out._backward = _bw
        return out

    # ------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = _make(value, (self,))
        if out.requires_grad:
            a = self
            in_shape = a.shape
            def _bw(grad):
                g = grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis=axis)
                _accumulate(a, np.broadcast_to(g, in_shape))
            out._backward = _bw
        return out

    # ---------------------------------------------------------------- reshape
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            a = self
            original = a.shape
            def _bw(grad):
                _accumulate(a, grad.reshape(original))
            out._backward = _bw
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = _make(np.transpose(self.data, axes), (self,))
        if out.requires_grad:
            a = self
            inverse = np.argsort(axes)
            def _bw(grad):
                _accumulate(a, np.transpose(grad, inverse))
            out._backward = _bw
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        idx = index.data if isinstance(index, Tensor) else index
        out = _make(self.data[idx], (self,))
        if out.requires_grad:
            a = self
            # A basic index (ints/slices/ellipsis/newaxis) selects every
            # element at most once, so a plain ``+=`` scatters it; only
            # integer-array indices can repeat an element and need add.at.
            basic = _is_basic_index(idx)
            def _bw(grad):
                if basic and a.grad is not None:
                    a.grad[idx] += grad
                    return
                full = np.zeros(a.data.shape)
                if basic:
                    full[idx] = grad
                else:
                    np.add.at(full, idx, grad)
                _accumulate(a, full, True)
            out._backward = _bw
        return out

    # ------------------------------------------------------------------ joins
    @staticmethod
    def cat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [_ensure_tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        out = _make(data, tuple(tensors))
        if out.requires_grad:
            sizes = [t.shape[axis] for t in tensors]
            def _bw(grad):
                offset = 0
                for t, size in zip(tensors, sizes):
                    if t.requires_grad:
                        slicer = [slice(None)] * grad.ndim
                        slicer[axis] = slice(offset, offset + size)
                        _accumulate(t, grad[tuple(slicer)])
                    offset += size
            out._backward = _bw
        return out

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [_ensure_tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)
        out = _make(data, tuple(tensors))
        if out.requires_grad:
            def _bw(grad):
                pieces = np.split(grad, len(tensors), axis=axis)
                for t, piece in zip(tensors, pieces):
                    if t.requires_grad:
                        _accumulate(t, np.squeeze(piece, axis=axis))
            out._backward = _bw
        return out

    # -------------------------------------------------------------- factories
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(np.zeros(shape), requires_grad=requires_grad)


_BASIC_INDEX_TYPES = (int, np.integer, slice, type(Ellipsis), type(None))


def _is_basic_index(index) -> bool:
    """Whether ``index`` is numpy basic indexing (no element selected twice)."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(part, _BASIC_INDEX_TYPES) and not isinstance(part, (bool, np.bool_))
        for part in parts
    )


def _ensure_tensor(value: ArrayLike) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _make(data: np.ndarray, parents: Tuple[Tensor, ...]) -> Tensor:
    """Wrap an operation's result; record ``parents`` if any of them needs grad.

    The per-operation constructor of the tape: ``data`` is already the output
    of a numpy operation on tensor data, so the dtype normalisation of
    ``Tensor.__init__`` is skipped.
    """
    out = Tensor.__new__(Tensor)
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.grad = None
    out._backward = None
    out.name = None
    out.requires_grad = False
    out._parents = ()
    if _grad_mode.enabled:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                out._parents = parents
                break
    return out


def _accumulate(tensor: Tensor, grad: np.ndarray, owned: bool = False) -> None:
    """Add ``grad`` into ``tensor.grad``.

    The tape owns every ``.grad`` array it stores, so later contributions are
    added in place.  ``owned=True`` is the caller's promise that ``grad`` is a
    freshly computed array nothing else references (not the incoming
    gradient, not a view of it): the first contribution is then adopted
    instead of copied.
    """
    if type(grad) is not np.ndarray or grad.dtype != np.float64:
        grad = np.array(grad, dtype=np.float64)
        owned = True
    if grad.shape != tensor.data.shape:
        # Differing shapes mean unbroadcast sums, i.e. builds a fresh array.
        grad = unbroadcast(grad, tensor.data.shape)
        owned = True
    if tensor.grad is None:
        tensor.grad = grad if owned else grad.copy()
    else:
        tensor.grad += grad
