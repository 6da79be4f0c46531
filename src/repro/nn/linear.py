"""Affine projection layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.core import Tensor

__all__ = ["Linear"]


class Linear(Module):
    """``y = x @ W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Generator used for weight init.
    bias:
        Whether to add the learned offset.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, off the tape (same operations)."""
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )
