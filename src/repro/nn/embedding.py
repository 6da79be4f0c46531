"""Token embedding layer with optional pre-trained initialization.

The paper initializes input embeddings from GloVe vectors (Pennington et al.,
2014); :meth:`Embedding.load_pretrained` accepts any ``(vocab, dim)`` matrix,
whether read from a real GloVe file or synthesized offline.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.core import Tensor
from repro.tensor.ops import embedding_lookup

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    Parameters
    ----------
    num_embeddings:
        Vocabulary size.
    embedding_dim:
        Vector dimensionality.
    rng:
        Generator for random init.
    padding_idx:
        If given, that row is zero-initialized and its gradient is discarded
        after each backward pass via :meth:`zero_padding_grad` (the trainer
        calls it), keeping pad vectors at exactly zero.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        padding_idx: int | None = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = Parameter(init.uniform((num_embeddings, embedding_dim), rng))
        if padding_idx is not None:
            self.weight.data[padding_idx] = 0.0

    def forward(self, indices: np.ndarray) -> Tensor:
        return embedding_lookup(self.weight, self._checked(indices))

    def forward_array(self, indices: np.ndarray) -> np.ndarray:
        """:meth:`forward` on arrays, off the tape: the gathered rows."""
        return self.weight.data[self._checked(indices)]

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"token id out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        return indices

    def load_pretrained(self, matrix: np.ndarray) -> None:
        """Overwrite the table with pre-trained vectors (GloVe-style init)."""
        matrix = np.asarray(matrix)
        if matrix.shape != self.weight.data.shape:
            raise ValueError(
                f"pretrained matrix shape {matrix.shape} does not match "
                f"embedding table {self.weight.data.shape}"
            )
        self.weight.data[...] = matrix
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0

    def zero_padding_grad(self) -> None:
        """Discard the gradient of the padding row (no-op without one)."""
        if self.padding_idx is not None and self.weight.grad is not None:
            self.weight.grad[self.padding_idx] = 0.0

    def __repr__(self) -> str:
        return (
            f"Embedding(vocab={self.num_embeddings}, dim={self.embedding_dim}, "
            f"padding_idx={self.padding_idx})"
        )
