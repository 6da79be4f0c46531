"""Reverse-mode automatic differentiation core.

This module provides :class:`Tensor`, a thin wrapper around ``numpy.ndarray``
that records the operations applied to it on a dynamic tape, plus the handful
of arithmetic/structural primitives that back the operator dunders. All other
differentiable operations (activations, softmax, embedding lookups, ...) live
in :mod:`repro.tensor.ops` and are built from the same machinery.

The design mirrors the usual define-by-run autograd pattern: each operation
produces a new :class:`Tensor` holding references to its parents and a closure
that propagates the output gradient to them. Calling :meth:`Tensor.backward`
performs a topological sort of the recorded graph and accumulates gradients.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ensure_tensor",
    "no_grad",
    "is_grad_enabled",
    "DEFAULT_DTYPE",
]

DEFAULT_DTYPE = np.float64

# Reentrancy: the three mode switches below (``_GRAD_ENABLED``,
# ``_PROFILES``, ``_ANOMALY``) are plain module-level state. That is safe
# because every consumer (the trainer, the decoding engines, the serving
# engine) runs tape code on one thread per process. Each is exception-safe
# and reentrant: entering pushes, exiting pops exactly that entry, so
# nested contexts, including reusing one ``no_grad`` instance, restore the
# previous state (it is kept per entry, not per instance). Forked workers
# (elastic training) inherit the state as it stood at fork time. Sharing
# one process between concurrent tape users would need thread-locals and
# is out of contract.

# Module-level switch flipped by the ``no_grad`` context manager. When False,
# newly created tensors never record parents, which makes inference cheap.
_GRAD_ENABLED = True

# Active TapeProfile instances (see repro.tensor.profiler). Normally empty,
# so the per-op overhead is one falsy check.
_PROFILES: list = []

# Active anomaly-detection states (see repro.tensor.anomaly). Normally empty;
# while a ``detect_anomaly()`` context is open, every op records provenance
# and checks its forward output, and every gradient write is checked.
_ANOMALY: list = []


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd tape."""
    return _GRAD_ENABLED


class no_grad:
    """Context manager / decorator that disables tape recording.

    Mirrors the familiar framework idiom::

        with no_grad():
            logits = model(batch)   # no graph is built

        @no_grad()
        def decode(batch): ...     # the whole function runs tape-free

    Saved state lives on a per-entry stack, so one instance can be nested
    inside itself (serving wraps the engines, which wrap their own step
    loops) and an exception anywhere in the block restores the previous
    mode correctly.
    """

    def __init__(self) -> None:
        self._saved: list[bool] = []

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._saved.append(_GRAD_ENABLED)
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._saved.pop()

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self:
                return fn(*args, **kwargs)

        return wrapper


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting.

    When a forward op broadcast an operand up to a larger shape, the gradient
    flowing back must be summed over the broadcast axes to recover the
    operand's own gradient.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Anything ``numpy.asarray`` accepts. Floating data is kept in
        ``DEFAULT_DTYPE`` unless an explicit float dtype is already set.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward_fn",
        "_parents",
        "name",
        "_provenance",
        "_takes_broadcast",
    )

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        array = np.asarray(data)
        if array.dtype.kind not in "fc":
            array = array.astype(DEFAULT_DTYPE)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward_fn: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        self._takes_broadcast = False

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
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
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Clear any accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create the output tensor of a differentiable operation.

        ``backward_fn`` receives the gradient with respect to the output and
        is responsible for calling ``parent._accumulate_grad`` on each parent
        that requires a gradient.
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            if _PROFILES:
                for profile in _PROFILES:
                    profile.record(out.data.size)
        if _ANOMALY:
            for state in _ANOMALY:
                state.on_op(out, tuple(parents), backward_fn)
        return out

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` (unbroadcast to this tensor's shape) into :attr:`grad`.

        Gradient ownership:

        - An interior node (one that still has a backward closure) borrows
          its first gradient as a read-only view instead of copying it,
          when the gradient has this node's dtype and C-ordered strides
          (see :func:`_is_dense`), which are the strides its copy would
          have. Its closure only reads the gradient, so a fresh product
          flows on without being written out twice. Any other layout (a
          broadcast, a transpose or a strided slice) is copied, so every
          consumer sees the bytes and strides it always saw.
        - A ``mul`` node (``_takes_broadcast``) also borrows a broadcast
          (what ``sum`` hands back) whose copy would be C-ordered; its
          backward computes the products in C order, as they were from
          that copy.
        - A second contribution to a borrowed gradient makes a new array
          in the copy's layout; an owned gradient is added in place. Both
          run the same ``add`` on the same operands as copy-then-``+=``.
        - In-place writers copy first (:meth:`_grad_buffer`).
        - Leaves and Parameters always own their gradient: clipping,
          loss-scale unscaling and embedding pad-row zeroing write into
          ``param.grad`` in place.
        """
        if not self.requires_grad:
            return
        # A full reduction in _unbroadcast (or a ufunc on 0-d operands)
        # gives a numpy scalar; the borrow below needs an array.
        grad = np.asarray(_unbroadcast(np.asarray(grad), self.data.shape))
        if _ANOMALY:
            for state in _ANOMALY:
                state.on_grad(self, grad)
        current = self.grad
        if current is None:
            if (
                self._backward_fn is not None
                and grad.dtype == self.data.dtype
                and (_is_dense(grad) or (self._takes_broadcast and np.empty_like(grad).flags.c_contiguous))
            ):
                borrowed = grad.view()
                borrowed.flags.writeable = False
                self.grad = borrowed
            else:
                self.grad = grad.astype(self.data.dtype, copy=True)
        elif current.flags.writeable:
            current += grad
        else:
            self.grad = np.add(current, grad, out=np.empty_like(current))

    def _grad_buffer(self) -> np.ndarray:
        """The gradient array, allocated (zeroed) on first use.

        Indexing-style ops (slicing, embedding gathers) accumulate into this
        buffer directly instead of materializing a dense zero gradient per
        backward call — the difference between O(slice) and O(tensor) work
        per recurrent timestep. Writers must go through
        :meth:`_scatter_grad` so anomaly detection still sees the write.

        The buffer is written in place, so it is always owned: a gradient
        borrowed read-only by :meth:`_accumulate_grad` is copied before the
        first write.
        """
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        elif not self.grad.flags.writeable:
            self.grad = self.grad.copy()
        return self.grad

    def _scatter_grad(self, key, grad: np.ndarray, basic: bool = False) -> None:
        """Indexed gradient accumulation through the anomaly-checked path.

        The sparse twin of :meth:`_accumulate_grad`: embedding gathers,
        ``gather_rows`` and slicing scatter into :meth:`_grad_buffer`
        instead of materializing dense gradients, but the write must not
        bypass :func:`~repro.tensor.anomaly.detect_anomaly` — both the
        incoming gradient and the updated buffer region are checked (the
        buffer check catches non-finites *minted by the accumulation
        itself*, e.g. two large finite updates at one index overflowing
        to inf). ``basic=True`` uses the fast non-aliasing ``+=`` path for
        basic (int/slice) indexing; otherwise ``np.add.at`` handles
        repeated indices.
        """
        if not self.requires_grad:
            return
        grad = np.asarray(grad)
        anomaly_states = _ANOMALY
        if anomaly_states:
            for state in anomaly_states:
                state.on_grad(self, grad)
        buffer = self._grad_buffer()
        if basic:
            buffer[key] += grad
        else:
            np.add.at(buffer, key, grad)
        if anomaly_states:
            written = buffer[key] if basic else buffer
            for state in anomaly_states:
                state.on_grad(self, written)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (i.e. ``d self / d self``); for scalar losses
            this is the conventional seed of 1.0.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        ordered = self._topological_order()
        self._accumulate_grad(grad)
        anomaly_states = tuple(_ANOMALY)
        for node in reversed(ordered):
            if node._backward_fn is not None and node.grad is not None:
                if anomaly_states:
                    # Attribute gradient writes made by this node's backward
                    # closure to this node's op (see repro.tensor.anomaly).
                    for state in anomaly_states:
                        state.enter_backward(node)
                    try:
                        node._backward_fn(node.grad)
                    finally:
                        for state in anomaly_states:
                            state.exit_backward()
                else:
                    node._backward_fn(node.grad)
                # Free the tape eagerly: interior activations are not needed
                # once their gradient has been propagated.
                if node is not self:
                    node._backward_fn = None
                    node._parents = ()

    def _topological_order(self) -> list["Tensor"]:
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # Arithmetic primitives
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad)
            other._accumulate_grad(grad)

        return Tensor._from_op(out_data, (self, other), backward)

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad)
            other._accumulate_grad(-grad)

        return Tensor._from_op(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return ensure_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            # An owned gradient keeps its layout. A borrowed one is C-ordered
            # or stands in for its C-ordered copy, so the products are too.
            order = "K" if grad.flags.writeable else "C"
            self._accumulate_grad(np.multiply(grad, other.data, order=order))
            other._accumulate_grad(np.multiply(grad, self.data, order=order))

        out = Tensor._from_op(out_data, (self, other), backward)
        out._takes_broadcast = True
        return out

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data / other.data  # numerics: ok — primitive __truediv__ — anomaly mode attributes the op

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad / other.data)  # numerics: ok — primitive div backward — mirrors forward denominator
            other._accumulate_grad(-grad * self.data / (other.data * other.data))  # numerics: ok — primitive div backward — mirrors forward denominator

        return Tensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                # Vector dot product: grad is a scalar.
                self._accumulate_grad(grad * b)
                other._accumulate_grad(grad * a)
                return
            # numpy treats a 1-D left operand as a row and a 1-D right operand
            # as a column, then drops that axis from the result. The N-D
            # cases put it back on ``grad``; _unbroadcast sums batch axes.
            if self.requires_grad:
                if b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): outer-product style gradient.
                    self._accumulate_grad(np.expand_dims(grad, -1) * b)
                elif a.ndim == 1 and b.ndim > 2:
                    # (n,) @ (..., n, k) -> (..., k)
                    self._accumulate_grad((np.expand_dims(grad, -2) @ np.swapaxes(b, -1, -2))[..., 0, :])
                else:
                    self._accumulate_grad(grad @ np.swapaxes(b, -1, -2))
            if other.requires_grad:
                if a.ndim == 1:
                    # (n,) @ (..., n, k) -> (..., k): an outer product per batch entry.
                    other._accumulate_grad(np.expand_dims(a, -1) * np.expand_dims(grad, -2))
                elif b.ndim == 1 and a.ndim > 2:
                    # (..., m, n) @ (n,) -> (..., m)
                    other._accumulate_grad((np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1))[..., 0])
                else:
                    other._accumulate_grad(np.swapaxes(a, -1, -2) @ grad)

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Structural primitives
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """View the tensor with a new shape (numpy reshape semantics)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad.reshape(original))

        return Tensor._from_op(out_data, (self,), backward)

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        """Permute axes (full reversal when ``axes`` is omitted)."""
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate_grad(grad.transpose(inverse))

        return Tensor._from_op(out_data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        basic = _is_basic_index(key)

        def backward(grad: np.ndarray) -> None:
            # Basic indexing never aliases, so += is safe and fast; either
            # way the write goes through the anomaly-checked scatter path.
            self._scatter_grad(key, grad, basic=basic)

        return Tensor._from_op(out_data, (self,), backward)

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over all elements or the given axis/axes."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis=axis)
            self._accumulate_grad(np.broadcast_to(expanded, self.data.shape))

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over all elements or the given axis/axes."""
        count = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)  # numerics: ok — empty-axis mean raises in sum()


def _is_dense(array: np.ndarray) -> bool:
    """True when ``array`` has C-ordered strides, which its copy would have.

    Borrowing such an array instead of copying it changes no consumer's
    layout, so no BLAS call or reduction can round differently. Broadcasts
    (stride 0), strided slices, transposes and C-contiguous arrays with an
    odd stride on a size-1 axis are not dense.
    """
    step = array.itemsize
    for size, stride in zip(reversed(array.shape), reversed(array.strides)):
        if stride != step:
            return False
        step *= size
    return True


def _is_basic_index(key) -> bool:
    """True when ``key`` uses only ints/slices/None/Ellipsis (no aliasing)."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(part, (int, np.integer, slice)) or part is None or part is Ellipsis
        for part in parts
    )


def _axis_size(shape: tuple[int, ...], axis: int | tuple[int, ...]) -> int:
    if isinstance(axis, int):
        return shape[axis]
    result = 1
    for ax in axis:
        result *= shape[ax]
    return result


def _raise_item(tensor: Tensor) -> float:
    raise ValueError(f"item() requires a single-element tensor, got shape {tensor.shape}")


def ensure_tensor(value) -> Tensor:
    """Coerce scalars / arrays / tensors into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def parameters_of(tensors: Iterable[Tensor]) -> list[Tensor]:
    """Filter an iterable down to tensors that require gradients."""
    return [t for t in tensors if t.requires_grad]
