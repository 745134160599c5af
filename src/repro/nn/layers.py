"""Core layers: Linear, Embedding, Conv1d, Dropout and activations.

These layers are the building blocks the paper's encoders and heads are
composed of.  They follow the conventions of :mod:`repro.nn.functional`
(sequences are ``(batch, length, channels)``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine transformation ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng=rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.xavier_uniform((num_embeddings, embedding_dim), rng=rng)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, indices: np.ndarray) -> Tensor:
        return F.embedding_lookup(self.weight, indices)

    def load_pretrained(self, vectors: np.ndarray, freeze: bool = False) -> None:
        """Overwrite the embedding table with pre-trained vectors."""
        vectors = np.asarray(vectors)
        if vectors.shape != (self.num_embeddings, self.embedding_dim):
            raise ValueError(
                f"pretrained vectors shape {vectors.shape} does not match "
                f"({self.num_embeddings}, {self.embedding_dim})"
            )
        self.weight.data = vectors.astype(self.weight.dtype, copy=True)
        if self.padding_idx is not None:
            self.weight.data[self.padding_idx] = 0.0
        self.weight.requires_grad = not freeze

    def __repr__(self) -> str:
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class Conv1d(Module):
    """1-D convolution over token sequences of shape ``(batch, length, in_channels)``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.padding = padding
        self.weight = Parameter(
            init.xavier_uniform((out_channels, kernel_size, in_channels), rng=rng)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(x, self.weight, self.bias, padding=self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv1d(in={self.in_channels}, out={self.out_channels}, "
            f"kernel={self.kernel_size}, padding={self.padding})"
        )


class Dropout(Module):
    """Inverted dropout layer; a no-op in evaluation mode."""

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class ReLU(Module):
    """Elementwise rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Elementwise logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_dim))
        self.beta = Parameter(np.zeros(normalized_dim))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / ((var + self.eps) ** 0.5)
        return normed * self.gamma + self.beta
