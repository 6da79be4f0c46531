"""From-scratch reverse-mode autodiff engine (the repository's "framework").

The ACNN paper was built on Torch 7 / OpenNMT; this package is the
substitution for that substrate: a numpy tensor type with a dynamic tape,
the differentiable ops the paper's equations need, numerical gradient
checking, and checkpoint serialization.
"""

from repro.tensor.anomaly import (
    NumericalAnomaly,
    OpRecord,
    detect_anomaly,
    is_anomaly_enabled,
    provenance_of,
)
from repro.tensor.core import DEFAULT_DTYPE, Tensor, ensure_tensor, is_grad_enabled, no_grad
from repro.tensor.gradcheck import (
    GradientCheckError,
    check_finite_gradients,
    check_gradients,
    numerical_gradient,
)
from repro.tensor.ops import (
    abs_,
    clip,
    concat,
    dropout,
    embedding_lookup,
    exp,
    expand_dims,
    gather_rows,
    log,
    log_softmax,
    masked_fill,
    max_,
    maximum,
    minimum,
    relu,
    sigmoid,
    softmax,
    sqrt,
    squeeze,
    stack,
    tanh,
    where,
)
from repro.tensor.profiler import TapeProfile
from repro.tensor.serialization import load_arrays, save_arrays

__all__ = [
    "NumericalAnomaly",
    "OpRecord",
    "detect_anomaly",
    "is_anomaly_enabled",
    "provenance_of",
    "DEFAULT_DTYPE",
    "Tensor",
    "ensure_tensor",
    "is_grad_enabled",
    "no_grad",
    "GradientCheckError",
    "check_finite_gradients",
    "check_gradients",
    "numerical_gradient",
    "abs_",
    "clip",
    "concat",
    "dropout",
    "embedding_lookup",
    "exp",
    "expand_dims",
    "gather_rows",
    "log",
    "log_softmax",
    "masked_fill",
    "max_",
    "maximum",
    "minimum",
    "relu",
    "sigmoid",
    "softmax",
    "sqrt",
    "squeeze",
    "stack",
    "tanh",
    "where",
    "load_arrays",
    "save_arrays",
    "TapeProfile",
]
