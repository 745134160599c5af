"""Shared padded-batch layer: one vectorized forward for training *and* serving.

Per-bag execution (``model(bag, label)`` in a loop during training,
``model.predict_probabilities`` in a loop at serving time) spends most of its
time in per-call numpy overhead on tiny arrays.  This package merges many
bags into one padded "superbag" and runs the expensive sentence encoding once
over all sentences, then evaluates the bag-level stages vectorized:

* :mod:`repro.batch.merging` — merge encoded bags into one padded batch;
* :mod:`repro.batch.forward` — the one batched forward.  In training
  (:func:`batched_train_logits`) it records the autograd graph, and
  :class:`repro.training.Trainer` runs one forward/backward per mini-batch
  with per-bag-identical losses and gradients.  For serving
  (:func:`batched_predict_probabilities`) the same forward runs in eval mode
  under :func:`repro.nn.no_grad`, with selective attention scoring every
  relation query, and :class:`repro.serve.PredictionService` calls it.

The per-bag model stays the executable spec both entry points are tested
against.
"""

from .forward import (
    batched_predict_probabilities,
    batched_train_logits,
    supports_batched_training,
)
from .merging import (
    MergedBagBatch,
    as_merged_batch,
    merge_encoded_bags,
    merge_store_batch,
)

__all__ = [
    "MergedBagBatch",
    "as_merged_batch",
    "merge_encoded_bags",
    "merge_store_batch",
    "batched_predict_probabilities",
    "batched_train_logits",
    "supports_batched_training",
]
