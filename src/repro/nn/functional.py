"""Neural-network operations used by the relation-extraction models.

These free functions build on :class:`repro.nn.tensor.Tensor` and provide the
specific operations the paper's architecture needs: softmax heads, selective
attention over sentence bags, 1-D convolutions over token sequences, and the
piecewise max pooling of PCNN (Zeng et al., 2015).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, _unbroadcast


# ---------------------------------------------------------------------- #
# Softmax family
# ---------------------------------------------------------------------- #
def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax of a plain array (the values of :func:`softmax`)."""
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out_data = softmax_array(x.data, axis)

    def backward(grad: np.ndarray) -> None:
        # dL/dx = s * (grad - sum(grad * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def weighted_softmax_sum(
    logits: Sequence[Tensor], weights: Sequence[Tensor], axis: int = -1
) -> Tensor:
    """``softmax(logits[0]) * weights[0] + softmax(logits[1]) * weights[1] + ...``

    One op with the values and gradients of that composition (summed left
    to right); each weight broadcasts against its softmax.
    """
    probs = [softmax_array(x.data, axis) for x in logits]
    out_data = probs[0] * weights[0].data
    for p, weight in zip(probs[1:], weights[1:]):
        out_data = out_data + p * weight.data

    def backward(grad: np.ndarray) -> None:
        for x, weight, p in zip(logits, weights, probs):
            weight._accumulate(_unbroadcast(grad * p, weight.shape))
            grad_p = _unbroadcast(grad * weight.data, p.shape)
            dot = (grad_p * p).sum(axis=axis, keepdims=True)
            x._accumulate(p * (grad_p - dot))

    return Tensor._make(out_data, tuple(logits) + tuple(weights), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    probs = np.exp(out_data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    Used by selective attention when bags are padded to a common size.
    """
    mask = np.asarray(mask, dtype=bool)
    neg_inf = np.full_like(x.data, -1e30)
    masked_data = np.where(mask, x.data, neg_inf)
    shifted = masked_data - masked_data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted) * mask
    denom = exp.sum(axis=axis, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    out_data = exp / denom

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Losses
# ---------------------------------------------------------------------- #
def cross_entropy(logits: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    ``weight`` optionally re-weights each class (length C); this mirrors the
    class-weighting used to counter the dominance of the NA relation.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits (batch, classes)")
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs.data[np.arange(n), targets]
    if weight is None:
        sample_weight = np.ones(n, dtype=logits.dtype)
    else:
        weight = np.asarray(weight, dtype=logits.dtype)
        sample_weight = weight[targets]
    total_weight = sample_weight.sum()
    # A batch whose samples all carry zero weight (e.g. only NA bags with the
    # NA class weighted to zero) must produce a zero loss with zero gradients
    # that still participates in the graph — dividing by the zero total would
    # poison the loss and every parameter gradient with NaN.
    denom = total_weight if total_weight > 0 else 1.0
    loss_value = -(picked * sample_weight).sum() / denom if total_weight > 0 else 0.0

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(log_probs.data)
        g[np.arange(n), targets] = -sample_weight / denom
        log_probs._accumulate(g * grad)

    return Tensor._make(np.asarray(loss_value), (log_probs,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``log_probs``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = log_probs.shape[0]
    picked = log_probs.data[np.arange(n), targets]
    loss_value = -picked.mean()

    def backward(grad: np.ndarray) -> None:
        g = np.zeros_like(log_probs.data)
        g[np.arange(n), targets] = -1.0 / n
        log_probs._accumulate(g * grad)

    return Tensor._make(np.asarray(loss_value), (log_probs,), backward)


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy on raw logits (used by the LINE objective)."""
    targets = np.asarray(targets, dtype=logits.dtype)
    x = logits.data
    # log(1 + exp(-|x|)) + max(x, 0) - x * t   (stable formulation)
    loss = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    loss_value = loss.mean()
    sig = 1.0 / (1.0 + np.exp(-x))

    def backward(grad: np.ndarray) -> None:
        logits._accumulate(grad * (sig - targets) / x.size)

    return Tensor._make(np.asarray(loss_value), (logits,), backward)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=pred.dtype)
    diff = pred - Tensor(target)
    return (diff * diff).mean()


# ---------------------------------------------------------------------- #
# Affine map
# ---------------------------------------------------------------------- #
def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``x @ weight.T + bias`` over the last axis of ``x``.

    One op with the values and gradients of ``x.matmul(weight.T) + bias``.
    """
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data = out_data + bias.data
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        if x.ndim == 1:
            row = grad.reshape(1, -1)
            x._accumulate((row @ weight.data).reshape(x.shape))
            weight._accumulate((x.data.reshape(1, -1).T @ row).T)
        else:
            x._accumulate(grad @ weight.data)
            weight_t = x.data.swapaxes(-1, -2) @ grad
            weight._accumulate(_unbroadcast(weight_t, weight.shape[::-1]).T)
        if bias is not None:
            bias._accumulate(_unbroadcast(grad, bias.shape))

    return Tensor._make(out_data, parents, backward)


# ---------------------------------------------------------------------- #
# Embedding lookup
# ---------------------------------------------------------------------- #
def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (V, D) for integer ``indices`` of any shape."""
    return gather_rows(weight, indices)


def concat_embedding_lookup(
    weights: Sequence[Tensor],
    indices: Sequence[np.ndarray],
    keep: Optional[np.ndarray] = None,
) -> Tensor:
    """Look up ``indices[i]`` in ``weights[i]`` and concatenate along the last axis.

    The values of ``concatenate([embedding_lookup(w, i) ...], axis=-1)``,
    written into one output.  ``keep`` (a bool array of the index arrays'
    shape) optionally marks the positions to embed: the others are zero,
    with zero gradient.
    """
    indices = [np.asarray(index, dtype=np.int64) for index in indices]
    columns = []  # (weight, index, first output column, width)
    total = 0
    for weight, index in zip(weights, indices):
        columns.append((weight, index, total, weight.shape[-1]))
        total += weight.shape[-1]
    out_data = np.empty(indices[0].shape + (total,), dtype=weights[0].dtype)
    for weight, index, start, width in columns:
        out_data[..., start:start + width] = weight.data[index]
    if keep is not None:
        out_data[~keep] = 0.0

    def backward(grad: np.ndarray) -> None:
        if keep is not None:
            grad = grad * keep[..., None]
        for weight, index, start, width in columns:
            full = np.zeros_like(weight.data)
            np.add.at(full, index.reshape(-1), grad[..., start:start + width].reshape(-1, width))
            weight._accumulate(full)

    return Tensor._make(out_data, tuple(weights), backward)


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``x`` along axis 0 for an integer index array of any shape.

    The padded-batch layer (:mod:`repro.batch`) uses this to scatter a flat
    ragged axis (all sentences of all bags) into ``(bag, slot)`` padded
    arrays, and to expand per-bag values to per-sentence rows.  Unlike
    :func:`embedding_lookup` the source may have any rank (including 1-D
    score vectors); duplicate indices accumulate their gradients.
    """
    indices = np.asarray(indices, dtype=np.int64)
    out_data = x.data[indices]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        np.add.at(full, indices.reshape(-1), grad.reshape((indices.size,) + x.shape[1:]))
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def segment_mean(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Mean of consecutive runs of rows: rows ``offsets[i]:offsets[i + 1]`` -> row ``i``.

    The ragged reduction of a flat column stored with CSR-style ``offsets``
    (length ``num_segments + 1``).  Every segment must hold at least one
    row.  Rows are added in order and the sum is scaled by the reciprocal
    count, so a segment's mean equals ``x[start:end].mean(axis=0)``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = offsets[1:] - offsets[:-1]
    inv_counts = (1.0 / counts)[:, None].astype(x.dtype, copy=False)
    out_data = np.add.reduceat(x.data, offsets[:-1], axis=0) * inv_counts

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.repeat(grad * inv_counts, counts, axis=0))

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Dropout
# ---------------------------------------------------------------------- #
def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-p) during training."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    # One float64 uniform draw regardless of compute precision: the kept/
    # dropped *pattern* must be a pure function of the generator stream so a
    # float32 (fast-training) forward drops exactly the same units as the
    # float64 reference run it is parity-checked against.  Only the mask is
    # cast down, so the scaled multiply still runs in the input's precision.
    uniform = rng.random(x.shape)
    mask = (uniform >= p).astype(x.dtype) / (1.0 - p)
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Convolution over token sequences
# ---------------------------------------------------------------------- #
def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, padding: int = 0) -> Tensor:
    """1-D convolution over a sequence.

    Parameters
    ----------
    x:
        Input of shape ``(batch, length, in_channels)``.
    weight:
        Filters of shape ``(out_channels, window, in_channels)``.
    bias:
        Optional bias of shape ``(out_channels,)``.
    padding:
        Zero padding added to both ends of the sequence.

    Returns
    -------
    Tensor of shape ``(batch, out_length, out_channels)`` where
    ``out_length = length + 2 * padding - window + 1``.
    """
    if x.ndim != 3:
        raise ValueError("conv1d expects (batch, length, in_channels) input")
    batch, length, in_channels = x.shape
    out_channels, window, w_in = weight.shape
    if w_in != in_channels:
        raise ValueError(
            f"weight in_channels {w_in} does not match input in_channels {in_channels}"
        )

    if padding > 0:
        padded = np.empty((batch, length + 2 * padding, in_channels), dtype=x.dtype)
        # The interior is overwritten by the copy; only the borders are zeroed.
        padded[:, :padding, :] = 0.0
        padded[:, padding + length:, :] = 0.0
        padded[:, padding:padding + length, :] = x.data
    else:
        padded = x.data
    padded_length = padded.shape[1]
    out_length = padded_length - window + 1
    if out_length <= 0:
        raise ValueError(
            f"sequence of length {length} (padding={padding}) too short for window {window}"
        )

    # im2col: (batch, out_length, window * in_channels)
    col = np.empty((batch, out_length, window * in_channels), dtype=padded.dtype)
    for offset in range(window):
        col[:, :, offset * in_channels:(offset + 1) * in_channels] = (
            padded[:, offset:offset + out_length, :]
        )
    w_mat = weight.data.reshape(out_channels, window * in_channels)
    out_data = col @ w_mat.T
    if bias is not None:
        out_data += bias.data

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray) -> None:
        # grad: (batch, out_length, out_channels)
        grad_w_mat = np.einsum("blo,blk->ok", grad, col)
        weight._accumulate(grad_w_mat.reshape(weight.shape))
        if bias is not None:
            bias._accumulate(grad.sum(axis=(0, 1)))
        grad_col = grad @ w_mat  # (batch, out_length, window*in_channels)
        grad_padded = np.zeros_like(padded)
        for offset in range(window):
            grad_padded[:, offset:offset + out_length, :] += (
                grad_col[:, :, offset * in_channels:(offset + 1) * in_channels]
            )
        if padding > 0:
            grad_x = grad_padded[:, padding:padding + length, :]
        else:
            grad_x = grad_padded
        x._accumulate(grad_x)

    return Tensor._make(out_data, tuple(parents), backward)


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #
def _masked_max(
    data: np.ndarray, mask: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Max over axis 1 of ``(batch, length, channels)`` where ``mask`` holds.

    Rows with no valid position pool to zero.  A masked reduction, so no
    masked copy of ``data`` is made; max is exact, so the values equal
    gathering at :func:`_masked_argmax`.
    """
    out = np.max(data, axis=1, where=mask[:, :, None], initial=-np.inf, out=out)
    out[~mask.any(axis=1)] = 0.0
    return out


def _masked_argmax(data: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Position of the first maximum over axis 1 among the valid positions."""
    return np.where(mask[:, :, None], data, -1e30).argmax(axis=1)


def max_pool_sequence(x: Tensor, mask: np.ndarray) -> Tensor:
    """Max-pool a sequence representation over the time axis.

    ``x`` has shape ``(batch, length, channels)``; the result has shape
    ``(batch, channels)``.  ``mask`` (batch, length) marks valid positions;
    a row with none pools to zero.  The argmax the gradient needs is taken
    in the backward pass, so a gradient-free forward never computes it.
    """
    batch, _, channels = x.shape
    mask = np.asarray(mask, dtype=bool)
    out_data = _masked_max(x.data, mask)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        argmax = _masked_argmax(x.data, mask)
        g = grad * mask.any(axis=1)[:, None]
        np.add.at(full, (np.arange(batch)[:, None], argmax, np.arange(channels)[None, :]), g)
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


def piecewise_max_pool(x: Tensor, segment_ids: np.ndarray, num_segments: int = 3) -> Tensor:
    """Piecewise max pooling used by PCNN (Zeng et al., 2015).

    Each token position is assigned to a segment (before the head entity,
    between the entities, after the tail entity); the sequence representation
    is max-pooled inside each segment and the per-segment vectors are
    concatenated.  A segment with no position pools to zero.

    Parameters
    ----------
    x:
        Tensor of shape ``(batch, length, channels)``.
    segment_ids:
        Integer array of shape ``(batch, length)`` with values in
        ``[0, num_segments)``; negative values mark padding positions.

    Returns
    -------
    Tensor of shape ``(batch, num_segments * channels)``.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    batch, length, channels = x.shape
    if segment_ids.shape != (batch, length):
        raise ValueError("segment_ids must have shape (batch, length)")
    out_data = np.empty((batch, num_segments * channels), dtype=x.dtype)
    for seg in range(num_segments):
        _masked_max(
            x.data, segment_ids == seg, out=out_data[:, seg * channels:(seg + 1) * channels]
        )

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        batch_idx = np.arange(batch)[:, None]
        chan_idx = np.arange(channels)[None, :]
        for seg in range(num_segments):
            seg_mask = segment_ids == seg
            g = grad[:, seg * channels:(seg + 1) * channels] * seg_mask.any(axis=1)[:, None]
            argmax = _masked_argmax(x.data, seg_mask)
            np.add.at(full, (batch_idx, argmax, chan_idx), g)
        x._accumulate(full)

    return Tensor._make(out_data, (x,), backward)


# ---------------------------------------------------------------------- #
# Selective attention over a bag of sentence encodings
# ---------------------------------------------------------------------- #
def selective_attention_scores(
    sentence_reprs: Tensor,
    relation_query: Tensor,
    attention_diag: Tensor,
) -> Tensor:
    """Bilinear attention scores ``q_j = x_j A r`` for each sentence in a bag.

    Parameters
    ----------
    sentence_reprs:
        Tensor of shape ``(num_sentences, dim)``.
    relation_query:
        Query vector for the candidate relation, shape ``(dim,)``.
    attention_diag:
        Diagonal of the weighted bilinear matrix ``A``, shape ``(dim,)``.
    """
    weighted = sentence_reprs * attention_diag
    return weighted.matmul(relation_query)


def bag_attention_pool(sentence_reprs: Tensor, scores: Tensor) -> Tensor:
    """Weighted sum of sentence representations with softmax-normalised scores."""
    alphas = softmax(scores, axis=-1)
    return alphas.expand_dims(1).transpose(1, 0).matmul(sentence_reprs).squeeze()


def average_pool(sentence_reprs: Tensor) -> Tensor:
    """Average pooling across a bag — used when attention is disabled."""
    return sentence_reprs.mean(axis=0)


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise vectors to unit L2 norm along ``axis``."""
    norm = (x * x).sum(axis=axis, keepdims=True) ** 0.5
    return x / (norm + eps)
