"""A small reverse-mode automatic differentiation engine on top of numpy.

The paper's models (PCNN+ATT, GRU+ATT, the implicit-mutual-relation and
entity-type heads) are implemented in the original work with PyTorch.  This
module provides the substrate those models need: a :class:`Tensor` wrapping a
numpy array that records the operations applied to it and can back-propagate
gradients through them.

Design notes
------------
* Define-by-run: every operation creates a new ``Tensor`` holding references
  to its parent tensors and a closure that accumulates gradients into them.
* Gradients are stored in ``Tensor.grad`` as plain numpy arrays of the same
  shape as ``Tensor.data``.
* Broadcasting is supported for elementwise arithmetic; gradients are summed
  back ("unbroadcast") onto the original shapes.
* :func:`no_grad` scopes a forward that needs values only (serving): inside
  it every operation returns a plain tensor with no parents and no closure,
  so no graph is kept alive.  The scope is per thread, so a serving thread
  never switches off gradients in a concurrently training one.
* Only operations needed by the relation-extraction models are implemented;
  the goal is a faithful, readable substrate rather than a general framework.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype: np.dtype) -> None:
    """Set the dtype used when converting python data into tensors.

    Only float dtypes are valid — integer or bool defaults would silently
    truncate every weight initialisation downstream.  Raises
    :class:`~repro.exceptions.ConfigurationError` otherwise.  Prefer the
    scoped :func:`default_dtype` context manager in tests, which restores
    the previous default on exit.
    """
    from ..exceptions import ConfigurationError

    resolved = np.dtype(dtype)
    if resolved.kind != "f":
        raise ConfigurationError(
            f"default dtype must be a float dtype, got {resolved}"
        )
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved


def get_default_dtype() -> np.dtype:
    """Return the dtype used when converting python data into tensors."""
    return np.dtype(_DEFAULT_DTYPE)


@contextlib.contextmanager
def default_dtype(dtype: np.dtype) -> Iterator[np.dtype]:
    """Scope a default-dtype change: restore the previous default on exit."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        yield get_default_dtype()
    finally:
        set_default_dtype(previous)


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Scope in which operations record no parents or backward closures.

    Values are unchanged; only the graph is skipped, so nothing inside the
    scope can be back-propagated.  The scope is thread-local and nests.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    if isinstance(data, np.ndarray):
        if data.dtype.kind in "fc":
            return data
        return data.astype(_DEFAULT_DTYPE)
    return np.asarray(data, dtype=_DEFAULT_DTYPE)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it has ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that supports reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
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
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing the same data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward=backward)
        # A leaf: built without __init__'s keyword handling, since every op
        # of a gradient-free forward lands here.
        out = Tensor.__new__(Tensor)
        out.data = data if type(data) is np.ndarray else _as_array(data)
        out.grad = None
        out.requires_grad = False
        out._parents = ()
        out._backward = None
        out.name = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=self.data.dtype)
        self.grad += grad

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate gradients from this tensor to all its ancestors."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        # Topological ordering of the graph rooted at ``self``.
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
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other_t._accumulate(_unbroadcast(-grad, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(_unbroadcast(grad * self.data, other_t.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                _unbroadcast(-grad * self.data / (other_t.data ** 2), other_t.shape)
            )

        return Tensor._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Matrix multiplication
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if a.ndim == 1 and b.ndim == 1:
                # dot product -> scalar grad
                self._accumulate(grad * b)
                other_t._accumulate(grad * a)
                return
            if a.ndim == 1:
                a2 = a.reshape(1, -1)
                grad2 = grad.reshape(1, -1) if grad.ndim == 1 else grad
                self._accumulate((grad2 @ b.swapaxes(-1, -2)).reshape(a.shape))
                other_t._accumulate(_unbroadcast(a2.swapaxes(-1, -2) @ grad2, b.shape))
                return
            if b.ndim == 1:
                b2 = b.reshape(-1, 1)
                grad2 = grad[..., None]
                self._accumulate(_unbroadcast(grad2 @ b2.T, a.shape))
                other_t._accumulate(_unbroadcast((a.swapaxes(-1, -2) @ grad2)[..., 0], b.shape))
                return
            grad_a = grad @ b.swapaxes(-1, -2)
            grad_b = a.swapaxes(-1, -2) @ grad
            self._accumulate(_unbroadcast(grad_a, a.shape))
            other_t._accumulate(_unbroadcast(grad_b, b.shape))

        return Tensor._make(out_data, (self, other_t), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------ #
    # Unary math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == self.data.max()).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate(mask * grad)
                return
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient equally between ties to keep the op deterministic.
            mask /= mask.sum(axis=axis, keepdims=True)
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple: Optional[Tuple[int, ...]]
        if not axes:
            axes_tuple = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes_tuple = tuple(axes[0])
        else:
            axes_tuple = tuple(axes)
        out_data = self.data.transpose(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if axes_tuple is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes_tuple)
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original_shape = self.shape
        out_data = np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Comparisons (no gradient; return numpy arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


# ---------------------------------------------------------------------- #
# Free functions on tensors
# ---------------------------------------------------------------------- #
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape: Union[int, Tuple[int, ...]], requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
        for t, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, end)
            t._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select with gradient support for both branches."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * cond, a.shape))
        b._accumulate(_unbroadcast(grad * (~cond), b.shape))

    return Tensor._make(out_data, (a, b), backward)
