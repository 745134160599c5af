"""Merging many encoded bags into one padded "superbag".

The sentence encoders (:mod:`repro.encoders`) treat a bag's sentences as a
batch dimension, so the sentences of *many* bags can be concatenated into a
single :class:`~repro.corpus.bags.EncodedBag` and encoded in one vectorized
pass — the foundation of the one batched forward (:mod:`repro.batch.forward`)
that both training and serving run.  Padding is safe by construction:

* padding tokens use word id 0 (a zero word vector), position id 0 and
  segment id -1, exactly as in per-bag encoding, so convolution outputs at
  valid positions are unchanged;
* the boolean mask freezes GRU hidden states across padding steps, so
  recurrent encoders produce the same states regardless of padding length;
* piecewise/max pooling ignore positions whose segment id is -1 / mask is
  False.

:class:`MergedBagBatch` is columnar: beside the merged sentence arrays and
the per-bag sentence offsets it carries the bag-level columns the heads need
(labels, entity ids, ragged type ids), so no per-bag Python objects survive
into the forward pass.  Batches come from two constructors with identical
output:

* :func:`merge_encoded_bags` — from a list of :class:`EncodedBag` objects
  (the legacy path, one Python copy loop per bag);
* :func:`merge_store_batch` — from a :class:`~repro.corpus.store.CorpusStore`
  plus an index array, by slicing the store's offset indices (zero-copy
  gather plans, one vectorized scatter per column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..corpus.bags import EncodedBag
from ..corpus.store import CorpusStore, pad_token_columns
from ..encoders.cnn import _convolution_mask
from ..exceptions import DataError, ModelError
from ..utils.arrays import concat_ranges, gather_ragged, offsets_from_sizes

#: Anything the batched forwards accept as "a batch of bags".
BagBatchLike = Union["MergedBagBatch", CorpusStore, Sequence[EncodedBag]]


@dataclass
class MergedBagBatch:
    """A batch of bags merged along the sentence axis, with bag columns.

    ``merged`` is a synthetic :class:`EncodedBag` holding the concatenated,
    right-padded sentence arrays of every bag; its bag-level fields (label,
    entity ids, type ids) are placeholders and must not be consumed — the
    real per-bag metadata lives in the columnar fields below.  ``offsets``
    has length ``num_bags + 1``: bag ``i``'s sentences occupy rows
    ``offsets[i]:offsets[i + 1]`` of the merged arrays.
    """

    merged: EncodedBag
    offsets: np.ndarray
    widths: np.ndarray             # (num_bags,) each bag's own pad width
    labels: np.ndarray             # (num_bags,) training labels
    head_entity_ids: np.ndarray    # (num_bags,)
    tail_entity_ids: np.ndarray    # (num_bags,)
    head_type_ids: np.ndarray      # flat ragged type ids
    head_type_offsets: np.ndarray  # (num_bags + 1,)
    tail_type_ids: np.ndarray
    tail_type_offsets: np.ndarray

    @property
    def num_bags(self) -> int:
        return int(self.widths.size)

    def __len__(self) -> int:
        return self.num_bags

    @property
    def num_sentences(self) -> int:
        return int(self.offsets[-1])

    @property
    def sentence_counts(self) -> np.ndarray:
        """Number of sentences per bag, shape ``(num_bags,)``."""
        return self.offsets[1:] - self.offsets[:-1]

    @property
    def bag_widths(self) -> np.ndarray:
        """Each sentence row's own bag width, shape ``(num_sentences,)``.

        Columns at or beyond a row's bag width do not exist in the per-bag
        arrays; the batched forward zeroes them out.
        """
        return np.repeat(self.widths, self.sentence_counts)


def as_merged_batch(batch: BagBatchLike) -> MergedBagBatch:
    """Normalise any accepted batch form into a :class:`MergedBagBatch`.

    An already-merged batch is returned untouched.
    """
    if isinstance(batch, MergedBagBatch):
        return batch
    return merge_encoded_bags(batch)


def merge_encoded_bags(bags: Sequence[EncodedBag]) -> MergedBagBatch:
    """Concatenate the sentence arrays of many bags into one padded batch.

    Every sentence matrix is right-padded to the longest sentence length in
    the batch with the same padding values the :class:`BagEncoder` uses
    (token 0, position 0, segment -1, mask False), which preserves per-bag
    encoder outputs exactly (see the module docstring).
    """
    if isinstance(bags, CorpusStore):
        return merge_store_batch(bags, np.arange(len(bags), dtype=np.int64))
    if not bags:
        raise DataError("cannot merge an empty sequence of bags")

    counts = np.array([bag.num_sentences for bag in bags], dtype=np.int64)
    offsets = offsets_from_sizes(counts)
    total = int(offsets[-1])
    widths = np.array([bag.max_length for bag in bags], dtype=np.int64)
    max_len = int(widths.max())

    token_ids = np.zeros((total, max_len), dtype=np.int64)
    head_pos = np.zeros((total, max_len), dtype=np.int64)
    tail_pos = np.zeros((total, max_len), dtype=np.int64)
    segments = np.full((total, max_len), -1, dtype=np.int64)
    mask = np.zeros((total, max_len), dtype=bool)

    for i, bag in enumerate(bags):
        start, end = offsets[i], offsets[i + 1]
        length = bag.max_length
        token_ids[start:end, :length] = bag.token_ids
        head_pos[start:end, :length] = bag.head_position_ids
        tail_pos[start:end, :length] = bag.tail_position_ids
        segments[start:end, :length] = bag.segment_ids
        mask[start:end, :length] = bag.mask

    head_types = [np.asarray(bag.head_type_ids, dtype=np.int64) for bag in bags]
    tail_types = [np.asarray(bag.tail_type_ids, dtype=np.int64) for bag in bags]
    return MergedBagBatch(
        merged=_merged_bag(token_ids, head_pos, tail_pos, segments, mask),
        offsets=offsets,
        widths=widths,
        labels=np.array([bag.label for bag in bags], dtype=np.int64),
        head_entity_ids=np.array([bag.head_entity_id for bag in bags], dtype=np.int64),
        tail_entity_ids=np.array([bag.tail_entity_id for bag in bags], dtype=np.int64),
        head_type_ids=np.concatenate(head_types),
        head_type_offsets=_sizes_to_offsets(head_types),
        tail_type_ids=np.concatenate(tail_types),
        tail_type_offsets=_sizes_to_offsets(tail_types),
    )


def merge_store_batch(store: CorpusStore, indices: np.ndarray) -> MergedBagBatch:
    """Assemble a merged batch by slicing a :class:`CorpusStore`'s offsets.

    Equivalent to ``merge_encoded_bags([store.bag(i) for i in indices])`` —
    the parity suite proves the arrays equal — but with no per-bag objects:
    the flat token columns are scattered into the padded matrices through one
    gather plan per batch (``concat_ranges`` over the store's offset
    indices), which is what makes store-backed batch assembly a hot path
    (``benchmarks/test_bench_corpus.py``).

    Works unchanged against a memmapped store: every access here is a fancy
    gather, which both ``np.memmap`` and the stitched
    :class:`~repro.corpus.store.ShardedColumn` answer with a small in-RAM
    copy sized by the batch, never by the corpus.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise DataError("cannot merge an empty batch of bags")
    if indices.min() < 0 or indices.max() >= len(store):
        raise DataError("bag indices out of range for the corpus store")

    counts = store.bag_offsets[indices + 1] - store.bag_offsets[indices]
    offsets = offsets_from_sizes(counts)
    sentence_rows = concat_ranges(store.bag_offsets[indices], counts)
    lengths = (
        store.sentence_offsets[sentence_rows + 1]
        - store.sentence_offsets[sentence_rows]
    )
    token_rows = concat_ranges(store.sentence_offsets[sentence_rows], lengths)
    widths = store.bag_widths[indices]
    max_len = int(widths.max())

    token_ids, head_pos, tail_pos, segments, valid = pad_token_columns(
        store.token_ids[token_rows],
        store.head_position_ids[token_rows],
        store.tail_position_ids[token_rows],
        store.segment_ids[token_rows],
        lengths,
        max_len,
    )

    head_type_ids, head_type_offsets = gather_ragged(
        store.head_type_ids, store.head_type_offsets, indices
    )
    tail_type_ids, tail_type_offsets = gather_ragged(
        store.tail_type_ids, store.tail_type_offsets, indices
    )
    return MergedBagBatch(
        merged=_merged_bag(token_ids, head_pos, tail_pos, segments, valid),
        offsets=offsets,
        widths=widths,
        labels=store.labels[indices],
        head_entity_ids=store.head_entity_ids[indices],
        tail_entity_ids=store.tail_entity_ids[indices],
        head_type_ids=head_type_ids,
        head_type_offsets=head_type_offsets,
        tail_type_ids=tail_type_ids,
        tail_type_offsets=tail_type_offsets,
    )


def _merged_bag(token_ids, head_pos, tail_pos, segments, mask) -> EncodedBag:
    """The synthetic merged :class:`EncodedBag` (bag-level fields are placeholders)."""
    return EncodedBag(
        token_ids=token_ids,
        head_position_ids=head_pos,
        tail_position_ids=tail_pos,
        segment_ids=segments,
        mask=mask,
        label=-1,
        relation_ids=(0,),
        head_entity_id=-1,
        tail_entity_id=-1,
        head_type_ids=np.array([0], dtype=np.int64),
        tail_type_ids=np.array([0], dtype=np.int64),
    )


def _sizes_to_offsets(parts) -> np.ndarray:
    return offsets_from_sizes([part.size for part in parts])


def padded_slot_plan(batch: MergedBagBatch):
    """Coordinates scattering the flat sentence axis into padded (bag, slot) arrays.

    Returns ``(bag_of_row, slot_of_row, slot_mask)``: flat sentence row ``j``
    lands at ``[bag_of_row[j], slot_of_row[j]]`` of a
    ``(num_bags, max_sentences)`` padded array, and ``slot_mask`` marks the
    real slots.  The training and the prediction-time attention both derive
    their padded layout from this one plan so they can never disagree.
    """
    counts = batch.sentence_counts
    bag_of_row = np.repeat(np.arange(batch.num_bags), counts)
    slot_of_row = np.arange(batch.num_sentences) - np.repeat(batch.offsets[:-1], counts)
    slot_mask = np.arange(int(counts.max()))[None, :] < counts[:, None]
    return bag_of_row, slot_of_row, slot_mask


def cnn_pooling_mask(
    batch: MergedBagBatch,
    widths: np.ndarray,
    out_length: int,
    window_size: int,
    padding: int,
) -> np.ndarray:
    """Valid plain-CNN pooling positions per merged sentence row.

    Marks convolution outputs whose window overlaps a real token, restricted
    to each row's own bag's convolution-output length: the wider merged batch
    introduces positions that do not exist in the per-bag path and must not
    win the max pooling.
    """
    mask = _convolution_mask(batch.merged.mask, out_length, window_size, padding)
    per_bag_out = widths + (out_length - batch.merged.max_length)
    mask &= np.arange(out_length)[None, :] < per_bag_out[:, None]
    return mask


def mutual_relation_matrix(mr_head, batch: MergedBagBatch) -> np.ndarray:
    """``MR = U_tail - U_head`` rows for a batch of bags: ``(num_bags, dim)``.

    Entity id -1 marks an entity unknown to the knowledge base; such entities
    use a zero vector, matching the per-bag head's fallback.  A pure function
    of the batch's entity columns and the head's *frozen* entity table (no
    gradients flow here).
    """
    table = mr_head._entity_vectors
    heads = batch.head_entity_ids
    tails = batch.tail_entity_ids
    if heads.max() >= len(table) or tails.max() >= len(table):
        raise ModelError("entity id out of range for the mutual-relation table")
    if heads.min() < -1 or tails.min() < -1:
        raise ModelError("entity ids must be >= -1 (-1 marks an unknown entity)")
    head_vectors = np.where((heads >= 0)[:, None], table[heads], 0.0)
    tail_vectors = np.where((tails >= 0)[:, None], table[tails], 0.0)
    return tail_vectors - head_vectors
