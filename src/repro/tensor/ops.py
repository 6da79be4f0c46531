"""Differentiable operations built on the autograd core.

Every function takes and returns :class:`~repro.tensor.core.Tensor` objects
and registers the appropriate backward closure on the tape. The activations
and normalizations here are exactly the ones the ACNN paper's equations use:
``tanh`` (attention scores), ``sigmoid`` (the copy/generate switch gate),
``softmax`` (attention weights and output distributions).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.core import Tensor, ensure_tensor

__all__ = [
    "tanh",
    "sigmoid",
    "relu",
    "exp",
    "log",
    "sqrt",
    "clip",
    "abs_",
    "maximum",
    "minimum",
    "softmax",
    "log_softmax",
    "concat",
    "stack",
    "squeeze",
    "expand_dims",
    "max_",
    "dropout",
    "embedding_lookup",
    "masked_fill",
    "where",
    "gather_rows",
]


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * (1.0 - out_data * out_data))

    return Tensor._from_op(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic sigmoid, computed stably for large |x|."""
    data = x.data
    out_data = np.empty_like(data)
    positive = data >= 0
    out_data[positive] = 1.0 / (1.0 + np.exp(-data[positive]))  # numerics: ok — stable sigmoid: exp of negative values only
    exp_x = np.exp(data[~positive])  # numerics: ok — stable sigmoid: exp of negative values only
    out_data[~positive] = exp_x / (1.0 + exp_x)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * out_data * (1.0 - out_data))

    return Tensor._from_op(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise rectified linear unit."""
    out_data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * (x.data > 0))

    return Tensor._from_op(out_data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    out_data = np.exp(x.data)  # numerics: ok — primitive exp op — safe_exp is the guarded form

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * out_data)

    return Tensor._from_op(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural logarithm."""
    out_data = np.log(x.data)  # numerics: ok — primitive log op — safe_log is the guarded form

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad / x.data)  # numerics: ok — log backward: domain matches forward input

    return Tensor._from_op(out_data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    out_data = np.sqrt(x.data)  # numerics: ok — primitive sqrt op — safe_sqrt is the guarded form

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * 0.5 / out_data)  # numerics: ok — sqrt backward: domain matches forward input

    return Tensor._from_op(out_data, (x,), backward)


def clip(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values into ``[low, high]``; gradient is zero outside the range."""
    out_data = np.clip(x.data, low, high)

    def backward(grad: np.ndarray) -> None:
        inside = (x.data >= low) & (x.data <= high)
        x._accumulate_grad(grad * inside)

    return Tensor._from_op(out_data, (x,), backward)


def abs_(x: Tensor) -> Tensor:
    """Elementwise absolute value (subgradient 0 at the origin)."""
    out_data = np.abs(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * np.sign(x.data))

    return Tensor._from_op(out_data, (x,), backward)


def maximum(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first argument."""
    x, y = ensure_tensor(x), ensure_tensor(y)
    out_data = np.maximum(x.data, y.data)

    def backward(grad: np.ndarray) -> None:
        take_x = x.data >= y.data
        x._accumulate_grad(grad * take_x)
        y._accumulate_grad(grad * ~take_x)

    return Tensor._from_op(out_data, (x, y), backward)


def minimum(x: Tensor, y: Tensor) -> Tensor:
    """Elementwise minimum; ties send the gradient to the first argument."""
    x, y = ensure_tensor(x), ensure_tensor(y)
    out_data = np.minimum(x.data, y.data)

    def backward(grad: np.ndarray) -> None:
        take_x = x.data <= y.data
        x._accumulate_grad(grad * take_x)
        y._accumulate_grad(grad * ~take_x)

    return Tensor._from_op(out_data, (x, y), backward)


def _shift_max(data: np.ndarray, axis: int) -> np.ndarray:
    """Max along ``axis`` with ``-inf`` rows replaced by 0.

    The max-shift trick breaks on a row that is entirely ``-inf`` (a fully
    masked attention row): ``x - (-inf)`` is NaN. Substituting a finite
    shift keeps the row computable (``exp(-inf) = 0``); the denominators
    are guarded separately. NaN and ``+inf`` maxima are left alone on
    purpose — those indicate invalid inputs and must stay detectable (see
    :mod:`repro.tensor.anomaly`), not be silently laundered into numbers.
    """
    max_ = data.max(axis=axis, keepdims=True)
    neginf = np.isneginf(max_)
    if neginf.any():
        max_ = np.where(neginf, 0.0, max_)
    return max_


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Stabilized kernel: the classic max-shift handles arbitrarily large
    finite logits, and rows that are entirely ``-inf`` (fully masked)
    return all-zero rows instead of NaN. Well-conditioned inputs take the
    identical code path bit-for-bit.
    """
    if x.data.shape[axis] == 0:
        return _empty_like_op(x)
    shifted = x.data - _shift_max(x.data, axis)
    exp_x = np.exp(shifted)  # numerics: ok — max-shifted input <= 0 (or -inf rows)
    denom = exp_x.sum(axis=axis, keepdims=True)
    zero = denom == 0.0
    if zero.any():
        # Fully-masked rows: no mass anywhere; return zeros, not NaN.
        denom = np.where(zero, 1.0, denom)
    out_data = exp_x / denom  # numerics: ok — denominator guarded > 0

    def backward(grad: np.ndarray) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate_grad(out_data * (grad - inner))

    return Tensor._from_op(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``.

    Stabilized kernel: log-sum-exp with max-shift; fully ``-inf`` (masked)
    rows yield ``-inf`` log-probabilities (the honest value) rather than
    NaN. Well-conditioned inputs are byte-identical to the naive form.
    """
    if x.data.shape[axis] == 0:
        return _empty_like_op(x)
    shifted = x.data - _shift_max(x.data, axis)
    norm = np.exp(shifted).sum(axis=axis, keepdims=True)  # numerics: ok — max-shifted
    zero = norm == 0.0
    if zero.any():
        norm = np.where(zero, 1.0, norm)
    log_norm = np.log(norm)  # numerics: ok — norm guarded >= smallest exp term
    out_data = shifted - log_norm
    soft = np.exp(out_data)  # numerics: ok — log-probabilities are <= 0

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward)


def _empty_like_op(x: Tensor) -> Tensor:
    """Degenerate empty-axis reduction: identity op over zero elements."""

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad)

    return Tensor._from_op(x.data.copy(), (x,), backward)


def _identity(x: Tensor) -> Tensor:
    """A distinct identity node sharing ``x``'s data (gradient passes through)."""

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad)

    return Tensor._from_op(x.data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    boundaries = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, boundaries, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate_grad(piece)

    return Tensor._from_op(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate_grad(np.squeeze(piece, axis=axis))

    return Tensor._from_op(out_data, tuple(tensors), backward)


def squeeze(x: Tensor, axis: int) -> Tensor:
    """Remove a size-1 axis."""
    out_data = np.squeeze(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(np.expand_dims(grad, axis=axis))

    return Tensor._from_op(out_data, (x,), backward)


def expand_dims(x: Tensor, axis: int) -> Tensor:
    """Insert a new size-1 axis."""
    out_data = np.expand_dims(x.data, axis=axis)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(np.squeeze(grad, axis=axis))

    return Tensor._from_op(out_data, (x,), backward)


def max_(x: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Maximum along an axis; gradient flows to the (first) argmax entries."""
    out_data = x.data.max(axis=axis, keepdims=keepdims)

    def backward(grad: np.ndarray) -> None:
        expanded = grad if keepdims else np.expand_dims(grad, axis=axis)
        max_expanded = out_data if keepdims else np.expand_dims(out_data, axis=axis)
        mask = x.data == max_expanded
        # Split gradient evenly among ties so the sum of gradients is exact.
        counts = mask.sum(axis=axis, keepdims=True)
        x._accumulate_grad(expanded * mask / counts)  # numerics: ok — mean backward: counts >= 1 on non-empty axes

    return Tensor._from_op(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training.

    The surviving activations are scaled by ``1 / (1 - p)`` so the expected
    value is unchanged, matching Srivastava et al. (2014) as used in the paper
    (``p = 0.3``).

    The no-op cases (``p == 0.0`` or eval mode) return a proper *identity
    node* — a distinct tensor sharing the input's data — never the input
    object itself. Aliasing the input made
    :class:`~repro.tensor.profiler.TapeProfile` node counts differ between
    train (``p > 0``: one node) and eval / ``p == 0`` graphs (zero nodes)
    for the same model.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return _identity(x)
    keep = (rng.random(x.data.shape) >= p) / (1.0 - p)  # numerics: ok — dropout validates p < 1
    out_data = x.data * keep

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * keep)

    return Tensor._from_op(out_data, (x,), backward)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of an embedding matrix.

    Parameters
    ----------
    weight:
        ``(vocab_size, dim)`` embedding table.
    indices:
        Integer array of arbitrary shape; the result has shape
        ``indices.shape + (dim,)``.
    """
    indices = np.asarray(indices)
    if indices.dtype.kind not in "iu":
        raise TypeError(f"embedding indices must be integers, got {indices.dtype}")
    out_data = weight.data[indices]

    def backward(grad: np.ndarray) -> None:
        # Through the anomaly-checked scatter path: a non-finite embedding
        # gradient (or one minted by the accumulation itself) must trip
        # detect_anomaly() like any dense gradient write.
        weight._scatter_grad(
            indices.reshape(-1), grad.reshape(-1, weight.data.shape[1])
        )

    return Tensor._from_op(out_data, (weight,), backward)


def masked_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is True with ``value`` (no grad there).

    Used to exclude padding positions from attention softmaxes.
    """
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, value, x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * ~mask)

    return Tensor._from_op(out_data, (x,), backward)


def where(condition: np.ndarray, x: Tensor, y: Tensor) -> Tensor:
    """Differentiable selection between two tensors by a boolean array."""
    condition = np.asarray(condition, dtype=bool)
    x, y = ensure_tensor(x), ensure_tensor(y)
    out_data = np.where(condition, x.data, y.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate_grad(grad * condition)
        y._accumulate_grad(grad * ~condition)

    return Tensor._from_op(out_data, (x, y), backward)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one entry per row: ``out[i] = x[i, indices[i]]``.

    The workhorse of negative-log-likelihood losses, where ``indices`` holds
    the target class for each example in the batch.
    """
    indices = np.asarray(indices)
    rows = np.arange(x.data.shape[0])
    out_data = x.data[rows, indices]

    def backward(grad: np.ndarray) -> None:
        x._scatter_grad((rows, indices), grad)

    return Tensor._from_op(out_data, (x,), backward)
