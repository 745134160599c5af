"""Batch inference subsystem: serve a trained model behind a batching API.

Per-bag prediction (``model.predict_probabilities`` in a loop) spends most of
its time in per-call numpy overhead on tiny arrays.  This package merges many
bags into one padded batch, runs the sentence encoder once over all sentences
and evaluates the bag-level heads vectorized, which multiplies serving
throughput (see ``benchmarks/test_bench_serve.py``) while returning the exact
same distributions as the per-bag path.

The padded-batch machinery itself lives in the shared layer :mod:`repro.batch`:
serving runs the same batched forward as training, in eval mode under
:func:`repro.nn.no_grad`.  This package re-exports its serving entry points
and adds the request/response API:

* :mod:`repro.batch.merging` — merge encoded bags into one "superbag";
* :mod:`repro.batch.forward` — the one batched forward
  (:func:`batched_predict_probabilities` for serving);
* :mod:`repro.serve.service` — :class:`PredictionService`, the user-facing
  request/response API.

For long-lived concurrent serving the package also hosts the online daemon
(see ``docs/daemon.md``):

* :mod:`repro.serve.coalescer` — pure deadline-driven micro-batch formation
  (:class:`BatchCoalescer`), deterministic-testable with a fake clock;
* :mod:`repro.serve.daemon` — :class:`ServingDaemon`, the asyncio request
  loop with bounded-queue backpressure, multi-worker dispatch and hot
  checkpoint reload;
* :mod:`repro.serve.metrics` — :class:`DaemonMetrics`, the observability
  surface (counters, batch-occupancy histogram, latency quantiles).
"""

from ..batch import MergedBagBatch, batched_predict_probabilities, merge_encoded_bags
from .coalescer import BatchCoalescer, PendingRequest
from .daemon import ServingDaemon
from .metrics import DaemonMetrics
from .service import (
    PredictionRequest,
    PredictionResult,
    PredictionService,
    RelationPrediction,
    ServiceStats,
)

__all__ = [
    "PredictionService",
    "PredictionRequest",
    "PredictionResult",
    "RelationPrediction",
    "ServiceStats",
    "ServingDaemon",
    "BatchCoalescer",
    "PendingRequest",
    "DaemonMetrics",
    "merge_encoded_bags",
    "MergedBagBatch",
    "batched_predict_probabilities",
]
