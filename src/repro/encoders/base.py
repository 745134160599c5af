"""Shared encoder building blocks.

Every sentence encoder in the paper consumes the same input representation:
each token is the concatenation of its word embedding and two relative
position embeddings (distance to the head and to the tail entity mention).
:class:`WordPositionEmbedder` produces that representation from an
:class:`repro.corpus.bags.EncodedBag`; :class:`SentenceEncoder` is the
interface every encoder (CNN, PCNN, GRU) implements.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..corpus.bags import EncodedBag
from ..nn import functional as F
from ..nn.tensor import Tensor


class WordPositionEmbedder(nn.Module):
    """Token representation: word embedding + head/tail position embeddings."""

    def __init__(
        self,
        vocab_size: int,
        word_dim: int = 50,
        position_dim: int = 5,
        num_position_ids: int = 121,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.word_dim = word_dim
        self.position_dim = position_dim
        self.word_embedding = nn.Embedding(vocab_size, word_dim, padding_idx=0, rng=rng)
        self.head_position_embedding = nn.Embedding(num_position_ids, position_dim, rng=rng)
        self.tail_position_embedding = nn.Embedding(num_position_ids, position_dim, rng=rng)

    @property
    def output_dim(self) -> int:
        return self.word_dim + 2 * self.position_dim

    def forward(self, bag: EncodedBag, keep: Optional[np.ndarray] = None) -> Tensor:
        """Embed every sentence of a bag: (num_sentences, max_len, output_dim).

        ``keep`` (num_sentences, max_len) optionally marks the token columns
        to embed; the others embed to zero with zero gradient.
        """
        return F.concat_embedding_lookup(
            [
                self.word_embedding.weight,
                self.head_position_embedding.weight,
                self.tail_position_embedding.weight,
            ],
            [bag.token_ids, bag.head_position_ids, bag.tail_position_ids],
            keep=keep,
        )


class SentenceEncoder(nn.Module):
    """Interface of sentence encoders: bag token embeddings -> sentence vectors.

    Implementations receive the embedded tokens of all sentences in a bag
    (``(num_sentences, max_len, input_dim)``) plus the bag's mask / segment
    arrays and return one vector per sentence
    (``(num_sentences, output_dim)``).
    """

    @property
    def output_dim(self) -> int:
        raise NotImplementedError

    def forward(self, embedded: Tensor, bag: EncodedBag) -> Tensor:
        raise NotImplementedError
