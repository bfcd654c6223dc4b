"""A small reverse-mode autograd engine over NumPy arrays.

The engine is define-by-run: every operation on a :class:`Tensor` records
its parents and a backward closure; :meth:`Tensor.backward` walks the
graph in reverse topological order accumulating gradients.  It supports
exactly the operations a GPT transformer needs, with NumPy-vectorized
forward and backward passes (no per-element Python loops) and
broadcasting-aware gradient reduction.

The engine is shared by the serial reference model (:mod:`repro.nn`) and
the 4D-parallel model (:mod:`repro.core`); the parallel implementation
splices collective communication into the graph via custom nodes, which
is how the test suite can prove end-to-end gradient equality between the
two.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "as_tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (like torch.no_grad)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _is_basic_index(idx) -> bool:
    """Whether ``idx`` is ints, slices, ``None`` and ``Ellipsis`` only —
    the indexes that cannot select one element twice."""
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(
        i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))
        for i in items
    )


def _scatter_add(like: np.ndarray, idx, g: np.ndarray) -> np.ndarray:
    """Backward of ``like[idx]``: zeros shaped like ``like`` with ``g``
    added at ``idx``.  Array, list and boolean indexes may repeat an
    element and need the unbuffered ``np.add.at``; a basic index cannot,
    so a plain assignment gives the same bits several times faster."""
    full = np.zeros_like(like)
    if _is_basic_index(idx):
        full[idx] = g
    else:
        np.add.at(full, idx, g)
    return full


class Tensor:
    """An array with an optional gradient and autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        name: str = "",
    ) -> None:
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self.name = name

    # -- construction helpers --------------------------------------------

    @staticmethod
    def zeros(shape, dtype=np.float64) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype))

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=np.float64) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad)

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
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
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The underlying array (a view; do not mutate mid-graph)."""
        return self.data

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph machinery ---------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        name: str = "",
    ) -> "Tensor":
        """Create a graph node if grad is enabled and any parent needs it.

        ``data`` is what an op just computed from float tensors, so its
        dtype is not validated again (``__init__`` does that for data
        coming from outside).
        """
        needs = False
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    needs = True
                    break
        out = Tensor.__new__(Tensor)
        # Full reductions and 1-d @ 1-d return NumPy scalars.
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        out.grad = None
        out.requires_grad = needs
        out._parents = tuple(parents) if needs else ()
        out._backward = backward if needs else None
        out.name = name
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, order="C")
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (scalar outputs usually pass nothing).
        Gradients accumulate into ``.grad`` of every reachable leaf with
        ``requires_grad=True``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)

        # Reverse topological order via iterative DFS.  Constants are
        # left out: no gradient ever flows to them.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=self.data.dtype)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node._accumulate(g)
                continue
            # Interior node: the backward closure maps the incoming
            # gradient to one gradient per parent (None for parents that
            # don't need one).
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if parent._backward is None:
                    parent._accumulate(pg)
                    continue
                pid = id(parent)
                acc = grads.get(pid)
                # Never ``acc += pg``: a closure may hand one array to
                # several parents (``__add__``) or return a view of ``g``.
                grads[pid] = (
                    np.asarray(pg, dtype=parent.data.dtype) if acc is None else acc + pg
                )

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic --------------------------------------------------------

    # A gradient is computed only for the operands that need one: the
    # other operand is usually a constant (a scale, a mask, an epsilon).

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        data = self.data + other.data

        def backward(g):
            return (
                _unbroadcast(g, self.shape) if self.requires_grad else None,
                _unbroadcast(g, other.shape) if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        data = self.data - other.data

        def backward(g):
            return (
                _unbroadcast(g, self.shape) if self.requires_grad else None,
                _unbroadcast(-g, other.shape) if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward, "sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, self.data.dtype) - self

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        data = self.data * other.data

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(g * self.data, other.shape)
                if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        data = self.data / other.data

        def backward(g):
            return (
                _unbroadcast(g / other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(-g * self.data / (other.data**2), other.shape)
                if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward, "div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, self.data.dtype) / self

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __pow__(self, p: float) -> "Tensor":
        data = self.data**p

        def backward(g):
            return (g * p * self.data ** (p - 1),)

        return Tensor._make(data, (self,), backward, "pow")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix multiply with batched broadcasting like ``np.matmul``."""
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                return (g * b, g * a)
            if a.ndim == 1:  # (k,) @ (..., k, n)
                ga = (g[..., None, :] @ np.swapaxes(b, -1, -2)).reshape(
                    (-1, a.shape[0])
                ).sum(axis=0)
                gb = a[..., :, None] @ g[..., None, :]
                return (ga, _unbroadcast(gb, b.shape))
            if b.ndim == 1:  # (..., m, k) @ (k,)
                ga = g[..., :, None] @ b[None, :]
                gb = (np.swapaxes(a, -1, -2) @ g[..., :, None])[..., 0]
                gb = gb.reshape(-1, b.shape[0]).sum(axis=0) if gb.ndim > 1 else gb
                return (_unbroadcast(ga, a.shape), gb)
            if b.ndim == 2 and a.ndim > 2:  # (..., m, k) @ (k, n)
                # Fold the leading axes into the rows: one GEMM each,
                # not a batched GEMM and a sum of ``gb`` over the batch.
                g2 = g.reshape(-1, b.shape[1])
                ga = (g2 @ b.T).reshape(a.shape)
                gb = a.reshape(-1, b.shape[0]).T @ g2
                return (ga, gb)
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor._make(data, (self, other), backward, "matmul")

    # -- shape ops ----------------------------------------------------------

    def t(self) -> "Tensor":
        """Transpose the last two dimensions."""
        data = np.swapaxes(self.data, -1, -2)

        def backward(g):
            return (np.swapaxes(g, -1, -2),)

        return Tensor._make(data, (self,), backward, "t")

    def transpose(self, axes: tuple[int, ...]) -> "Tensor":
        data = np.transpose(self.data, axes)
        inv = np.argsort(axes)

        def backward(g):
            return (np.transpose(g, inv),)

        return Tensor._make(data, (self,), backward, "transpose")

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        orig = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(orig),)

        return Tensor._make(data, (self,), backward, "reshape")

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]

        def backward(g):
            return (_scatter_add(self.data, idx, g),)

        return Tensor._make(data, (self,), backward, "getitem")

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        splits = np.cumsum(sizes)[:-1]

        def backward(g):
            return tuple(np.split(g, splits, axis=axis))

        return Tensor._make(data, tuple(tensors), backward, "concat")

    # -- reductions & elementwise --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = math.prod(self.shape[a] for a in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g):
            return (g * data,)

        return Tensor._make(data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g):
            return (g / self.data,)

        return Tensor._make(data, (self,), backward, "log")

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - data**2),)

        return Tensor._make(data, (self,), backward, "tanh")

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / data,)

        return Tensor._make(data, (self,), backward, "sqrt")

    def maximum(self, other) -> "Tensor":
        other = as_tensor(other, self.data.dtype)
        data = np.maximum(self.data, other.data)

        def backward(g):
            mask = self.data >= other.data
            return (
                _unbroadcast(g * mask, self.shape)
                if self.requires_grad else None,
                _unbroadcast(g * ~mask, other.shape)
                if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward, "maximum")


def as_tensor(x, dtype=None) -> Tensor:
    """Coerce scalars/arrays to a constant :class:`Tensor`.

    Python scalars, NumPy scalars and 0-d arrays are *weak*: they take
    ``dtype`` — the binary operators pass the tensor operand's — so that
    ``x * 0.5`` on a float32 ``x`` stays float32.  Without ``dtype`` they
    are float64.  Arrays of one or more dimensions keep a float32/float64
    dtype of their own.
    """
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (bool, int, float, np.generic)) or (
        isinstance(x, np.ndarray) and x.ndim == 0
    ):
        return Tensor(np.asarray(x, dtype=np.float64 if dtype is None else dtype))
    return Tensor(x)
