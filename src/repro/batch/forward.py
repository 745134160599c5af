"""The one batched forward over a padded batch of bags, for training and serving.

The per-bag model (``model(bag, label)``, ``model.predict_probabilities``)
builds one small ``nn.Tensor`` graph per bag and pays numpy call overhead on
tiny arrays for every one of them.  This module runs the same model ONCE
over a whole batch: the bags are merged along the sentence axis
(:mod:`repro.batch.merging`), the embedder/encoder run once over all
sentences, and the bag-level stages (selective attention or average pooling,
entity-type head, mutual-relation head, confidence combination) are evaluated
with padded batched ops.

* :func:`batched_train_logits` is the training forward: the gold label of
  each bag selects its attention query, and the autograd graph is recorded.
* :func:`batched_predict_probabilities` is the same forward in eval mode
  under :func:`repro.nn.no_grad`.  It differs in one explicit branch: at
  prediction time selective attention scores every relation query, each
  relation attending over the bag with its own query.  The final softmax
  runs in float64 whatever the model's dtype.

Parity with the per-bag model — the executable spec — is by construction
(enforced by ``tests/test_batch_training.py``, ``tests/test_serve.py`` and
the whole-model gradient table in ``tests/test_model_gradients.py``):

* padding slots carry exactly zero activations and exactly zero gradients,
  so padded sums equal the ragged per-bag sums and scatter-adds into shared
  parameters only ever add exact zeros for padding;
* embedded columns at or beyond each bag's own width are zeroed through the
  graph (per-bag arrays end at the bag's width, so there the convolution sees
  true zeros);
* the dropout mask for the merged ``(total_sentences, dim)`` representation
  matrix is drawn in one call, which consumes the module's RNG stream exactly
  like the sequential per-bag draws it replaces (numpy ``Generator.random``
  fills any requested shape from the bit stream in order), so batched and
  per-bag training agree even with dropout enabled.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import nn
from ..core.model import NeuralREModel
from ..encoders.attention import AverageBagAggregator, SelectiveAttentionAggregator
from ..encoders.cnn import CNNEncoder
from ..encoders.gru import GRUEncoder
from ..encoders.pcnn import PCNNEncoder
from ..exceptions import ModelError
from ..nn import functional as F
from ..nn.tensor import Tensor, no_grad
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
    _check_supported(model)
    batch = as_merged_batch(bags)
    return _combined_logits(model, batch, batch.labels)


def batched_predict_probabilities(
    model: NeuralREModel,
    bags: BagBatchLike,
) -> np.ndarray:
    """Relation probability distributions for many bags in one pass.

    Accepts the same batch forms as :func:`batched_train_logits`.  Returns a
    float64 array of shape ``(num_bags, num_relations)`` equal (up to
    floating-point round-off) to stacking ``model.predict_probabilities(bag)``
    over ``bags``.  The forward runs in eval mode under
    :func:`~repro.nn.no_grad` at the dtype of the model's parameters; the
    final softmax runs in float64, which keeps a float32-cast model within
    ``1e-5`` of the float64 one with identical argmax labels.
    """
    if len(bags) == 0:
        return np.zeros((0, model.num_relations))
    _check_supported(model)
    was_training = model.training
    if was_training:
        model.eval()
    try:
        with no_grad():
            logits = _combined_logits(model, as_merged_batch(bags), labels=None)
            return F.softmax_array(logits.data.astype(np.float64, copy=False))
    finally:
        if was_training:
            model.train(True)


def _check_supported(model: object) -> None:
    if not supports_batched_training(model):
        raise ModelError(
            f"model {type(model).__name__} is not supported by the batched "
            "forward; run it bag by bag"
        )


def _combined_logits(
    model: NeuralREModel, batch: MergedBagBatch, labels: Optional[np.ndarray]
) -> Tensor:
    """The model's combined logits ``(num_bags, num_relations)``.

    ``labels`` are the gold relations that guide selective attention in
    training; ``None`` selects the prediction-time attention.
    """
    representations = _sentence_representations(model, batch)
    re_logits = _aggregator_logits(
        model.base_model.aggregator, representations, batch, labels
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
def _sentence_representations(model: NeuralREModel, batch: MergedBagBatch) -> Tensor:
    """Encoded (and dropout-masked) sentence vectors: ``(total_sentences, dim)``."""
    base = model.base_model
    widths = batch.bag_widths
    # Columns beyond a bag's own width hold pad tokens whose position
    # embeddings are non-zero; the per-bag arrays end at the bag's width, so
    # those columns must embed to true zeros with zero gradient.  A batch
    # whose bags share one width (a single bag, a width-sorted serving chunk)
    # has no such columns.
    max_width = batch.merged.max_length
    within_width = (
        np.arange(max_width)[None, :] < widths[:, None]
        if widths.min() < max_width
        else None
    )
    embedded = base.embedder(batch.merged, keep=within_width)
    encoder = base.encoder
    if isinstance(encoder, CNNEncoder):
        representations = _cnn_representations(encoder, embedded, batch, widths)
    else:
        # The merged bag's segment ids (PCNN) and mask (GRU) already exclude
        # everything at or beyond each bag's own width, so the per-bag encoder
        # modules run unchanged with the merged sentence axis as their batch.
        representations = encoder(embedded, batch.merged)
    return base.dropout(representations)


def _cnn_representations(
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
# Bag aggregation
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


def _aggregator_logits(
    aggregator,
    representations: Tensor,
    batch: MergedBagBatch,
    labels: Optional[np.ndarray],
) -> Tensor:
    """Bag logits ``(num_bags, num_relations)`` for either aggregator."""
    if isinstance(aggregator, SelectiveAttentionAggregator):
        if labels is None:
            return _selective_attention_eval_logits(aggregator, representations.data, batch)
        gather, slot_mask = _padded_slot_index(batch)
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
        gather, slot_mask = _padded_slot_index(batch)
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
        f"the batched forward does not support aggregator {type(aggregator).__name__}"
    )


def _selective_attention_eval_logits(
    aggregator: SelectiveAttentionAggregator,
    reprs: np.ndarray,
    batch: MergedBagBatch,
) -> Tensor:
    """Prediction-time selective attention: the eval branch, gradient-free.

    The vectorized form of ``SelectiveAttentionAggregator.predict_logits``:
    every relation attends over its bag's sentences with its own query, and
    relation ``r`` is scored against its own attended representation.  Padded
    sentence slots get a score of ``-inf`` so they drop out of the per-bag
    softmax.  It reads the parameters' ``.data`` and records no graph, so it
    only runs under :func:`~repro.nn.no_grad`.
    """
    queries = aggregator.relation_queries.data          # (R, d)
    diag = aggregator.attention_diag.data               # (d,)
    weight = aggregator.classifier.weight.data          # (R, d)
    bias = aggregator.classifier.bias

    num_relations = queries.shape[0]
    dim = reprs.shape[1]
    scores = np.matmul(reprs * diag, queries.T)         # (N, R)

    # Scatter the flat sentence axis into (bag, slot) padded arrays.
    bag_of_row, slot_of_row, slot_mask = padded_slot_plan(batch)
    num_bags, max_sentences = slot_mask.shape
    padded_scores = np.full(
        (num_bags, max_sentences, num_relations), -np.inf, dtype=reprs.dtype
    )
    padded_reprs = np.zeros((num_bags, max_sentences, dim), dtype=reprs.dtype)
    padded_scores[bag_of_row, slot_of_row] = scores
    padded_reprs[bag_of_row, slot_of_row] = reprs

    # Per-bag softmax over the sentence axis (empty slots contribute
    # exp(-inf) = 0).
    alphas = F.softmax_array(padded_scores, axis=1)              # (B, S, R)
    bag_per_relation = np.matmul(alphas.transpose(0, 2, 1), padded_reprs)  # (B, R, d)
    # Only the diagonal of the full (R, R) classifier product is needed.
    logits = np.einsum("brd,rd->br", bag_per_relation, weight)
    if bias is not None:
        logits = logits + bias.data[None, :]
    return Tensor(logits)


# ---------------------------------------------------------------------- #
# Entity-type head
# ---------------------------------------------------------------------- #
def _type_head_logits(type_head, batch: MergedBagBatch) -> Tensor:
    """Vectorized :class:`EntityTypeHead` forward: ``(num_bags, R)``.

    Each entity's type vector is the mean of its ragged type-embedding rows
    (every entity has at least one type), as the per-bag head's ``mean``.
    """
    embedding = type_head.type_embedding
    head_vectors = F.segment_mean(embedding(batch.head_type_ids), batch.head_type_offsets)
    tail_vectors = F.segment_mean(embedding(batch.tail_type_ids), batch.tail_type_offsets)
    return type_head.classifier(nn.concatenate([head_vectors, tail_vectors], axis=1))
