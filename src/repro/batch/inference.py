"""Vectorized inference over many bags at once.

For serving we only need forward values, so this module runs the expensive
sentence encoding once over a merged batch and then evaluates the cheap
bag-level stages — selective attention, entity-type head, mutual-relation
head, confidence combination — with plain numpy on the model's parameters.
The autograd-capable sibling used by training lives in
:mod:`repro.batch.training`.

Every op runs at the dtype of the model's parameters.  Whatever that dtype,
the *final* reduction — the softmax over the combined logits — always runs
in float64 and the returned probabilities are float64, which keeps a
float32-cast model within ``1e-5`` of the float64 one with identical argmax
labels (proven per variant by ``tests/test_serve.py``).

Numerical parity with ``model.predict_probabilities`` per bag is guaranteed
by construction (same ops, same dtype as the model's parameters) and
enforced by ``tests/test_serve.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.model import NeuralREModel
from ..encoders.attention import AverageBagAggregator, SelectiveAttentionAggregator
from ..encoders.cnn import CNNEncoder
from ..encoders.pcnn import NUM_SEGMENTS, PCNNEncoder, _align_segments
from ..exceptions import ModelError
from ..nn.tensor import Tensor
from .merging import (
    BagBatchLike,
    MergedBagBatch,
    as_merged_batch,
    cnn_pooling_mask,
    mutual_relation_matrix,
    padded_slot_plan,
)


def batched_predict_probabilities(
    model: NeuralREModel,
    bags: BagBatchLike,
) -> np.ndarray:
    """Relation probability distributions for many bags in one pass.

    ``bags`` may be a sequence of :class:`EncodedBag` objects, a columnar
    :class:`~repro.corpus.store.CorpusStore` (or sub-store), or an already
    assembled :class:`MergedBagBatch`.  Returns a float64 array of shape
    ``(num_bags, num_relations)`` equal (up to floating-point round-off) to
    stacking ``model.predict_probabilities(bag)`` over ``bags``.  The
    compute dtype follows the model's parameters.
    """
    if len(bags) == 0:
        return np.zeros((0, model.num_relations))
    was_training = model.training
    if was_training:
        model.eval()
    try:
        batch = as_merged_batch(bags)
        reprs = _merged_sentence_representations(model, batch)
        re_logits = _batched_aggregator_logits(model.base_model.aggregator, reprs, batch)
        type_logits = (
            _batched_type_logits(model.type_head, batch)
            if model.type_head is not None
            else None
        )
        mr_logits = (
            _batched_mutual_relation_logits(model.mutual_relation_head, batch)
            if model.mutual_relation_head is not None
            else None
        )
        combined = _batched_combined_logits(model, re_logits, type_logits, mr_logits)
        return _final_probabilities(combined)
    finally:
        if was_training:
            model.train(True)


def _final_probabilities(combined: np.ndarray) -> np.ndarray:
    """Float64 final reduction: softmax the combined logits at full precision.

    A no-op cast for a float64 model; on the float32 path this is where
    precision is restored before the one reduction that decides the
    returned probabilities.
    """
    combined = np.asarray(combined, dtype=np.float64)
    return _softmax(combined)


def _merged_sentence_representations(
    model: NeuralREModel, batch: MergedBagBatch
) -> np.ndarray:
    """Encode every sentence of the merged batch: ``(total_sentences, dim)``.

    The embedding gather and the CNN/PCNN convolutions run as gradient-free
    numpy; recurrent encoders fall back to the autograd modules
    (their step loop is not a batched kernel), which preserve the compute
    dtype.  One correction keeps the outputs bitwise-faithful to per-bag
    encoding: a bag's arrays are only as wide as its own longest sentence,
    so positions beyond that width are *true zeros* there (the convolution's
    zero padding), while the merged batch fills them with embedded pad
    tokens whose position embeddings are non-zero.  Zeroing the embedded
    columns beyond each bag's own width restores per-bag semantics.
    """
    base = model.base_model
    embedded = _embed_merged(base.embedder, batch)
    widths = batch.bag_widths
    beyond_bag_width = np.arange(embedded.shape[1])[None, :] >= widths[:, None]
    embedded[beyond_bag_width] = 0.0
    if isinstance(base.encoder, PCNNEncoder):
        return _pcnn_representations(base.encoder, embedded, batch)
    if isinstance(base.encoder, CNNEncoder):
        return _cnn_representations(base.encoder, embedded, batch, widths)
    return base.encoder(Tensor(embedded), batch.merged).data


def _embed_merged(embedder, batch: MergedBagBatch) -> np.ndarray:
    """Word + head/tail position embeddings of every merged sentence row.

    Writes the three gathers directly into the slices of one output buffer —
    the same values :class:`WordPositionEmbedder`'s concatenate produces,
    without the intermediate per-table arrays surviving the call.
    """
    merged = batch.merged
    word_table = embedder.word_embedding.weight.data
    head_table = embedder.head_position_embedding.weight.data
    tail_table = embedder.tail_position_embedding.weight.data
    rows, length = merged.token_ids.shape
    word_dim = embedder.word_dim
    position_dim = embedder.position_dim
    out = np.empty((rows, length, word_dim + 2 * position_dim), dtype=word_table.dtype)
    out[:, :, :word_dim] = word_table[merged.token_ids]
    out[:, :, word_dim:word_dim + position_dim] = head_table[merged.head_position_ids]
    out[:, :, word_dim + position_dim:] = tail_table[merged.tail_position_ids]
    return out


def _conv_window_gather(padded: np.ndarray, window: int) -> np.ndarray:
    """im2col: ``(batch, length, ch)`` -> ``(batch, length - window + 1, window * ch)``.

    Column layout matches :func:`repro.nn.functional.conv1d` so a matmul
    against the flattened filter bank reproduces its output bit-for-bit.
    """
    batch, padded_length, channels = padded.shape
    out_length = padded_length - window + 1
    out = np.empty((batch, out_length, window * channels), dtype=padded.dtype)
    for offset in range(window):
        out[:, :, offset * channels:(offset + 1) * channels] = (
            padded[:, offset:offset + out_length, :]
        )
    return out


def _segment_max(x: np.ndarray, segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Per-segment masked max pooling (the PCNN pooling stage).

    ``x`` is ``(rows, length, channels)``; ``segment_ids`` is
    ``(rows, length)`` with negatives marking padding.  Returns
    ``(rows, num_segments * channels)``: each segment max-pooled over its
    own positions, zero where a segment has no valid position.
    """
    rows, _, channels = x.shape
    out = np.empty((rows, num_segments * channels), dtype=x.dtype)
    for seg in range(num_segments):
        seg_mask = segment_ids == seg
        segment_slice = out[:, seg * channels:(seg + 1) * channels]
        # Masked reduction: same values as `np.where(mask, x, -inf)
        # .max(axis=1)` (max is exact) without materialising the masked
        # copy.  Empty segments reduce to the -inf initial, then zero.
        np.max(x, axis=1, where=seg_mask[:, :, None], initial=-np.inf, out=segment_slice)
        segment_slice[~seg_mask.any(axis=1)] = 0.0
    return out


def _conv_forward(conv, x: np.ndarray) -> np.ndarray:
    """Gradient-free :class:`~repro.nn.layers.Conv1d` forward.

    Replicates :func:`repro.nn.functional.conv1d` op for op (zero-padded
    buffer, im2col gather, one matmul against the flattened filters, bias
    add) so the values are bit-identical.
    """
    weight = conv.weight.data
    out_channels, window, in_channels = weight.shape
    rows, length, _ = x.shape
    padding = conv.padding
    if padding > 0:
        padded = np.empty((rows, length + 2 * padding, in_channels), dtype=x.dtype)
        # Only the border columns need zeroing; the interior is overwritten
        # by the copy, so skip the full-buffer fill.
        padded[:, :padding, :] = 0.0
        padded[:, padding + length:, :] = 0.0
        padded[:, padding:padding + length, :] = x
    else:
        padded = x
    col = _conv_window_gather(padded, window)
    w_mat = weight.reshape(out_channels, window * in_channels)
    out = np.matmul(col, w_mat.T)
    if conv.bias is not None:
        out += conv.bias.data
    return out


def _pcnn_representations(
    encoder: PCNNEncoder, embedded: np.ndarray, batch: MergedBagBatch
) -> np.ndarray:
    """PCNN forward with gradient-free piecewise pooling.

    The segment masks already exclude everything beyond each bag's own width
    (padding segments are -1), so only the pooling is reimplemented — as
    :func:`_segment_max`, which equals the autograd op's argmax/gather
    for any segment with at least one valid position and 0 otherwise.
    """
    convolved = _conv_forward(encoder.conv, embedded)
    out_length = convolved.shape[1]
    segments = _align_segments(batch.merged.segment_ids, out_length, encoder.conv.padding)
    pooled = _segment_max(convolved, segments, NUM_SEGMENTS)
    return np.tanh(pooled, out=pooled)


def _cnn_representations(
    encoder: CNNEncoder,
    embedded: np.ndarray,
    batch: MergedBagBatch,
    widths: np.ndarray,
) -> np.ndarray:
    """CNN encoder forward restricted to each bag's own output length.

    The plain CNN pools over every convolution position whose window overlaps
    a real token; per bag that output is only ``bag_width`` positions long,
    so the merged pass must exclude the extra positions the wider batch
    introduces (they do not exist in the per-bag path).
    """
    convolved = _conv_forward(encoder.conv, embedded)
    mask = cnn_pooling_mask(
        batch, widths, convolved.shape[1], encoder.window_size, encoder.conv.padding
    )
    # The convolution output is a temporary, so mask it in place: invalid
    # positions become -inf and can never win the max.
    convolved[~mask] = -np.inf
    pooled = convolved.max(axis=1)
    pooled = np.where(mask.any(axis=1)[:, None], pooled, 0.0)
    return np.tanh(pooled, out=pooled)


def _batched_aggregator_logits(
    aggregator, reprs: np.ndarray, batch: MergedBagBatch
) -> np.ndarray:
    if isinstance(aggregator, SelectiveAttentionAggregator):
        return _selective_attention_logits(aggregator, reprs, batch)
    if isinstance(aggregator, AverageBagAggregator):
        return _average_pool_logits(aggregator, reprs, batch)
    raise ModelError(
        f"batched inference does not support aggregator {type(aggregator).__name__}"
    )


def _selective_attention_logits(
    aggregator: SelectiveAttentionAggregator,
    reprs: np.ndarray,
    batch: MergedBagBatch,
) -> np.ndarray:
    """Vectorized form of ``SelectiveAttentionAggregator.predict_logits``.

    At prediction time every relation attends over the bag's sentences with
    its own query; padded sentence slots get a score of ``-inf`` so they drop
    out of the per-bag softmax.
    """
    queries = aggregator.relation_queries.data          # (R, d)
    diag = aggregator.attention_diag.data               # (d,)
    weight = aggregator.classifier.weight.data          # (R, d)
    bias = aggregator.classifier.bias.data if aggregator.classifier.bias is not None else 0.0

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
    # exp(-inf)=0).
    alphas = _softmax(padded_scores, axis=1)            # (B, S, R)

    bag_per_relation = np.matmul(alphas.transpose(0, 2, 1), padded_reprs)  # (B, R, d)
    # Relation r is scored against its own attended representation, so only
    # the diagonal of the full (R, R) classifier product is needed.
    logits = np.einsum("brd,rd->br", bag_per_relation, weight)
    return logits + (bias if np.isscalar(bias) else bias[None, :])


def _average_pool_logits(
    aggregator: AverageBagAggregator, reprs: np.ndarray, batch: MergedBagBatch
) -> np.ndarray:
    """Vectorized average pooling + classification."""
    sums = np.add.reduceat(reprs, batch.offsets[:-1], axis=0)
    # Counts cast to the compute dtype: identical values in float64, and the
    # float32 path must not be promoted back to float64 by an int divisor.
    means = sums / batch.sentence_counts.astype(reprs.dtype)[:, None]
    weight = aggregator.classifier.weight.data
    bias = aggregator.classifier.bias.data if aggregator.classifier.bias is not None else 0.0
    return means @ weight.T + bias


def _batched_type_logits(type_head, batch: MergedBagBatch) -> np.ndarray:
    """Vectorized :class:`EntityTypeHead` forward over a batch of bags."""
    table = type_head.type_embedding.weight.data
    pair = np.concatenate(
        [
            _mean_type_vectors(table, batch.head_type_ids, batch.head_type_offsets),
            _mean_type_vectors(table, batch.tail_type_ids, batch.tail_type_offsets),
        ],
        axis=1,
    )
    weight = type_head.classifier.weight.data
    bias = type_head.classifier.bias.data if type_head.classifier.bias is not None else 0.0
    return pair @ weight.T + bias


def _mean_type_vectors(
    table: np.ndarray, flat_ids: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-bag mean of type-embedding rows over a ragged flat id column."""
    counts = np.diff(offsets)
    sums = np.add.reduceat(table[flat_ids], offsets[:-1], axis=0)
    return sums / counts.astype(table.dtype)[:, None]


def _batched_mutual_relation_logits(mr_head, batch: MergedBagBatch) -> np.ndarray:
    """Vectorized :class:`MutualRelationHead` forward over a batch of bags.

    Entity id -1 marks an entity unknown to the knowledge base; such entities
    use a zero vector, matching the per-bag head's fallback.
    """
    mr = mutual_relation_matrix(mr_head, batch)
    weight = mr_head.classifier.weight.data
    bias = mr_head.classifier.bias.data if mr_head.classifier.bias is not None else 0.0
    return mr @ weight.T + bias


def _batched_combined_logits(
    model: NeuralREModel,
    re_logits: np.ndarray,
    type_logits: Optional[np.ndarray],
    mr_logits: Optional[np.ndarray],
) -> np.ndarray:
    """Vectorized :class:`ConfidenceCombiner` forward (rows are bags)."""
    combiner = model.combiner
    if not combiner.use_types and not combiner.use_mutual_relations:
        return re_logits
    combined = _softmax(re_logits) * combiner.gamma.data
    if combiner.use_types:
        combined = combined + _softmax(type_logits) * combiner.beta.data
    if combiner.use_mutual_relations:
        combined = combined + _softmax(mr_logits) * combiner.alpha.data
    return combined * combiner.scale.data + combiner.bias.data


def _softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax: shift by the axis max, exponentiate, normalise."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)
