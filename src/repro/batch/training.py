"""Autograd-capable vectorized training forward over a padded batch of bags.

The per-bag training path builds one small ``nn.Tensor`` graph per bag
(``model(bag, bag.label)``) and pays numpy call overhead on tiny arrays for
every one of them — the same overhead the batched *inference* path
(:mod:`repro.batch.inference`) eliminates for serving.  This module builds
ONE graph for a whole mini-batch: the bags are merged along the sentence axis
(:mod:`repro.batch.merging`), the embedder/encoder run once over all
sentences, and the bag-level stages (gold-label selective attention,
entity-type head, mutual-relation head, confidence combination) are evaluated
with padded batched ops whose values *and* gradients match the per-bag graph
to float64 round-off.

Parity is by construction (enforced by ``tests/test_batch_training.py``):

* padding slots carry exactly zero activations and exactly zero gradients,
  so padded sums equal the ragged per-bag sums and scatter-adds into shared
  parameters only ever add exact zeros for padding;
* embedded columns at or beyond each bag's own width are zeroed through the
  graph (per-bag arrays end at the bag's width, so there the convolution sees
  true zeros), mirroring the inference-path correction;
* the dropout mask for the merged ``(total_sentences, dim)`` representation
  matrix is drawn in one call, which consumes the module's RNG stream exactly
  like the sequential per-bag draws it replaces (numpy ``Generator.random``
  fills any requested shape from the bit stream in order), so batched and
  per-bag training agree even with dropout enabled.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .. import nn
from ..core.model import NeuralREModel
from ..encoders.attention import AverageBagAggregator, SelectiveAttentionAggregator
from ..encoders.cnn import CNNEncoder
from ..encoders.gru import GRUEncoder
from ..encoders.pcnn import PCNNEncoder
from ..exceptions import ModelError
from ..nn import functional as F
from ..nn.tensor import Tensor
from .merging import (
    BagBatchLike,
    MergedBagBatch,
    as_merged_batch,
    cnn_pooling_mask,
    mutual_relation_matrix,
    padded_slot_plan,
)


def supports_batched_training(model: object) -> bool:
    """Whether :func:`batched_train_logits` can train ``model``.

    The batched forward understands :class:`NeuralREModel` with any of the
    stock encoders (CNN, PCNN, GRU — with or without word attention) and
    aggregators (selective attention, average pooling).  Anything else —
    e.g. a custom per-bag model handed to :class:`repro.training.Trainer` —
    falls back to the per-bag loop.
    """
    return (
        isinstance(model, NeuralREModel)
        and isinstance(model.base_model.encoder, (CNNEncoder, PCNNEncoder, GRUEncoder))
        and isinstance(
            model.base_model.aggregator,
            (AverageBagAggregator, SelectiveAttentionAggregator),
        )
    )


def batched_train_logits(
    model: NeuralREModel,
    bags: BagBatchLike,
) -> Tensor:
    """Combined training logits of shape ``(num_bags, num_relations)``.

    ``bags`` may be a sequence of :class:`EncodedBag` objects, a columnar
    :class:`~repro.corpus.store.CorpusStore` (or sub-store), or an already
    assembled :class:`MergedBagBatch`.  Equivalent to
    ``nn.stack([model(bag, bag.label) for bag in bags])`` — same values and
    same parameter gradients up to float64 round-off — but computed as one
    vectorized graph, which is what makes training a hot path instead of a
    python loop (see ``benchmarks/test_bench_train.py``).  The graph runs at
    the dtype of the model's parameters; choosing it is the
    :class:`~repro.training.Trainer`'s job, not this function's.
    """
    if len(bags) == 0:
        raise ModelError("batched training forward needs at least one bag")
    if not supports_batched_training(model):
        raise ModelError(
            f"model {type(model).__name__} is not supported by the batched "
            "training forward; train it with the per-bag loop"
        )
    batch = as_merged_batch(bags)
    representations = _training_sentence_representations(model, batch)
    re_logits = _aggregator_train_logits(
        model.base_model.aggregator, representations, batch, batch.labels
    )
    type_logits = (
        _type_head_logits(model.type_head, batch)
        if model.type_head is not None
        else None
    )
    mr_logits = (
        model.mutual_relation_head.classifier(
            nn.tensor(mutual_relation_matrix(model.mutual_relation_head, batch))
        )
        if model.mutual_relation_head is not None
        else None
    )
    return model.combiner(re_logits, type_logits=type_logits, mr_logits=mr_logits)


# ---------------------------------------------------------------------- #
# Sentence encoding
# ---------------------------------------------------------------------- #
def _training_sentence_representations(
    model: NeuralREModel, batch: MergedBagBatch
) -> Tensor:
    """Encoded (and dropout-masked) sentence vectors: ``(total_sentences, dim)``."""
    base = model.base_model
    embedded = base.embedder(batch.merged)
    widths = batch.bag_widths
    within_width = np.arange(embedded.shape[1])[None, :] < widths[:, None]
    # Columns beyond a bag's own width hold embedded pad tokens whose position
    # embeddings are non-zero; the per-bag arrays end at the bag's width, so
    # those columns must be true zeros with zero gradient.
    embedded = embedded * Tensor(within_width[..., None].astype(embedded.dtype))
    encoder = base.encoder
    if isinstance(encoder, CNNEncoder):
        representations = _cnn_training_representations(encoder, embedded, batch, widths)
    else:
        # The merged bag's segment ids (PCNN) and mask (GRU) already exclude
        # everything at or beyond each bag's own width, so the per-bag encoder
        # modules run unchanged with the merged sentence axis as their batch.
        representations = encoder(embedded, batch.merged)
    return base.dropout(representations)


def _cnn_training_representations(
    encoder: CNNEncoder,
    embedded: Tensor,
    batch: MergedBagBatch,
    widths: np.ndarray,
) -> Tensor:
    """CNN encoder forward restricted to each bag's own output length.

    The plain CNN pools over every convolution position whose window overlaps
    a real token; per bag that output is only ``bag_width`` positions long, so
    the merged pass must exclude the extra positions the wider batch
    introduces (they do not exist in the per-bag path).
    """
    convolved = encoder.conv(embedded)
    mask = cnn_pooling_mask(
        batch, widths, convolved.shape[1], encoder.window_size, encoder.conv.padding
    )
    return F.max_pool_sequence(convolved, mask=mask).tanh()


# ---------------------------------------------------------------------- #
# Bag aggregation (training path: gold relation guides the attention)
# ---------------------------------------------------------------------- #
def _padded_slot_index(batch: MergedBagBatch) -> Tuple[np.ndarray, np.ndarray]:
    """Gather plan for the flat sentence axis: ``(gather, slot_mask)``.

    ``gather`` is a ``(num_bags, max_sentences)`` int array mapping each
    (bag, slot) to its flat sentence row; ``slot_mask`` marks real slots.
    Padding slots point at row 0 and are excluded everywhere by the mask, so
    their gradients are exactly zero before the scatter-add back to row 0.
    """
    bag_of_row, slot_of_row, slot_mask = padded_slot_plan(batch)
    gather = np.zeros(slot_mask.shape, dtype=np.int64)
    gather[bag_of_row, slot_of_row] = np.arange(batch.num_sentences)
    return gather, slot_mask


def _aggregator_train_logits(
    aggregator,
    representations: Tensor,
    batch: MergedBagBatch,
    labels: np.ndarray,
) -> Tensor:
    """Training logits ``(num_bags, num_relations)`` for either aggregator."""
    gather, slot_mask = _padded_slot_index(batch)
    if isinstance(aggregator, SelectiveAttentionAggregator):
        # Every sentence is scored against its own bag's gold-relation query:
        # q_j = (x_j * diag) . r_{label(bag(j))}, then a per-bag softmax over
        # the sentence axis weighs the sentence vectors into one bag vector.
        sentence_labels = np.repeat(labels, batch.sentence_counts)
        queries = F.gather_rows(aggregator.relation_queries, sentence_labels)
        scores = (representations * aggregator.attention_diag * queries).sum(axis=1)
        padded_scores = F.gather_rows(scores, gather)
        alphas = F.masked_softmax(padded_scores, slot_mask, axis=-1)
        padded_reprs = F.gather_rows(representations, gather)
        bag_vectors = (padded_reprs * alphas.expand_dims(2)).sum(axis=1)
        return aggregator.classifier(bag_vectors)
    if isinstance(aggregator, AverageBagAggregator):
        mask_f = slot_mask[..., None].astype(representations.dtype)
        padded_reprs = F.gather_rows(representations, gather) * Tensor(mask_f)
        # `astype(..., copy=False)` is the identity for a float64 graph and
        # keeps a float32 graph from being upcast by this float64 1/count
        # constant.
        inv_counts = (1.0 / batch.sentence_counts)[:, None].astype(
            representations.dtype, copy=False
        )
        means = padded_reprs.sum(axis=1) * inv_counts
        return aggregator.classifier(means)
    raise ModelError(
        f"batched training does not support aggregator {type(aggregator).__name__}"
    )


# ---------------------------------------------------------------------- #
# Entity-type head
# ---------------------------------------------------------------------- #
def _type_head_logits(type_head, batch: MergedBagBatch) -> Tensor:
    """Vectorized :class:`EntityTypeHead` training forward: ``(num_bags, R)``."""
    head_vectors = _mean_type_embeddings(
        type_head.type_embedding, batch.head_type_ids, batch.head_type_offsets
    )
    tail_vectors = _mean_type_embeddings(
        type_head.type_embedding, batch.tail_type_ids, batch.tail_type_offsets
    )
    return type_head.classifier(nn.concatenate([head_vectors, tail_vectors], axis=1))


def _mean_type_embeddings(
    embedding, flat_ids: np.ndarray, offsets: np.ndarray
) -> Tensor:
    """Per-bag mean of type-embedding rows with gradients: ``(num_bags, kt)``.

    The ragged id column arrives flat with offsets; padding slots use id 0
    and are masked to exact zeros, so gradients scattered into row 0 are
    exact zeros too.
    """
    counts = np.diff(offsets)
    max_types = int(counts.max())
    mask = np.arange(max_types)[None, :] < counts[:, None]
    padded_ids = np.zeros((counts.size, max_types), dtype=np.int64)
    padded_ids[mask] = flat_ids
    embedded = embedding(padded_ids)
    embedded = embedded * Tensor(mask[..., None].astype(embedded.dtype))
    inv_counts = (1.0 / counts)[:, None].astype(embedded.dtype, copy=False)
    return embedded.sum(axis=1) * inv_counts
