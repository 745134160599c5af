"""Observability surface of the online serving daemon.

:class:`DaemonMetrics` aggregates everything the daemon reports about
itself: monotonic request/batch/error counters, a batch-occupancy histogram
(how full the coalesced batches actually are — the "adaptive" in adaptive
micro-batching is visible here), and a bounded-window latency reservoir with
p50/p95/p99 quantile estimates.  All recording methods are thread-safe (the
daemon's workers, submitting threads and callers of
:meth:`DaemonMetrics.snapshot` run on different threads), and :meth:`DaemonMetrics.snapshot` returns plain
copied data — never a live view — so a snapshot taken before more traffic
arrives stays frozen.

The quantile math intentionally mirrors ``numpy``'s default linear
interpolation (``np.quantile(samples, q)``) so the unit tests can check it
against the numpy reference directly; see ``tests/test_daemon.py``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Sequence

__all__ = ["DaemonMetrics", "LatencyWindow", "OccupancyHistogram", "linear_quantile"]


def linear_quantile(sorted_samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ascending ``sorted_samples``, numpy-style.

    Implements the "linear" interpolation method (numpy's default): with
    ``n`` samples the quantile sits at fractional rank ``h = (n - 1) * q``
    and is interpolated between the neighbouring order statistics.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("cannot take a quantile of zero samples")
    h = (n - 1) * q
    low = math.floor(h)
    high = math.ceil(h)
    frac = h - low
    return sorted_samples[low] + (sorted_samples[high] - sorted_samples[low]) * frac


class LatencyWindow:
    """Bounded reservoir of latency samples with quantile summaries.

    Keeps the most recent ``window`` observations in a ring buffer: lifetime
    services would otherwise accumulate samples without bound, and recent
    latency is what an operator watches anyway.  ``total`` still counts every
    observation ever made.
    """

    def __init__(self, window: int = 4096) -> None:
        if window <= 0:
            raise ValueError("latency window must be positive")
        self.window = window
        self._samples: List[float] = []
        self._cursor = 0
        self.total = 0

    def observe(self, seconds: float) -> None:
        if len(self._samples) < self.window:
            self._samples.append(seconds)
        else:
            self._samples[self._cursor] = seconds
            self._cursor = (self._cursor + 1) % self.window
        self.total += 1

    def __len__(self) -> int:
        return len(self._samples)

    def quantile(self, q: float) -> float:
        """Numpy-linear quantile over the retained window."""
        return linear_quantile(sorted(self._samples), q)

    def summary(self) -> Dict[str, float]:
        """Copied summary dict: count/mean/max plus p50/p95/p99 (seconds)."""
        if not self._samples:
            return {"count": 0, "mean": 0.0, "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        ordered = sorted(self._samples)
        return {
            "count": self.total,
            "mean": sum(ordered) / len(ordered),
            "max": ordered[-1],
            "p50": linear_quantile(ordered, 0.50),
            "p95": linear_quantile(ordered, 0.95),
            "p99": linear_quantile(ordered, 0.99),
        }


class OccupancyHistogram:
    """Exact histogram of batch occupancies (requests per dispatched batch)."""

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._total_requests = 0
        self._total_batches = 0

    def observe(self, occupancy: int) -> None:
        if occupancy <= 0:
            raise ValueError("batch occupancy must be positive")
        self._counts[occupancy] = self._counts.get(occupancy, 0) + 1
        self._total_requests += occupancy
        self._total_batches += 1

    @property
    def mean(self) -> float:
        """Mean requests per batch (0.0 before any batch was dispatched)."""
        if self._total_batches == 0:
            return 0.0
        return self._total_requests / self._total_batches

    @property
    def max(self) -> int:
        return max(self._counts) if self._counts else 0

    def summary(self) -> Dict[str, object]:
        """Copied summary: batches, mean/max occupancy, {occupancy: count}."""
        return {
            "batches": self._total_batches,
            "mean": self.mean,
            "max": self.max,
            "counts": dict(sorted(self._counts.items())),
        }


class DaemonMetrics:
    """Thread-safe counters + histograms of one :class:`ServingDaemon`.

    Counters
    --------
    ``submitted``
        Requests accepted into the queue.
    ``completed``
        Requests whose future resolved with a result.
    ``failed``
        Requests whose future resolved with an exception (a worker error
        fails exactly the requests of its batch).
    ``rejected``
        Requests refused by queue-full backpressure (these never count as
        submitted).
    ``batches`` / ``batches_failed``
        Dispatched batches, and the subset that raised in the worker.
    ``reloads``
        Successful hot checkpoint reloads.
    """

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected = 0
        self.batches = 0
        self.batches_failed = 0
        self.reloads = 0
        self.latency = LatencyWindow(latency_window)
        self.occupancy = OccupancyHistogram()

    # ------------------------------------------------------------------ #
    # Recording (called from submit paths, workers and reload)
    # ------------------------------------------------------------------ #
    def record_submitted(self, count: int = 1) -> None:
        with self._lock:
            self.submitted += count

    def record_rejected(self, count: int = 1) -> None:
        with self._lock:
            self.rejected += count

    def record_reload(self) -> None:
        with self._lock:
            self.reloads += 1

    def record_batch(self, occupancy: int, latencies: Sequence[float]) -> None:
        """One successfully completed batch and its per-request latencies."""
        with self._lock:
            self.batches += 1
            self.completed += occupancy
            self.occupancy.observe(occupancy)
            for seconds in latencies:
                self.latency.observe(seconds)

    def record_batch_failure(self, occupancy: int) -> None:
        """One batch whose worker raised; all its requests failed."""
        with self._lock:
            self.batches += 1
            self.batches_failed += 1
            self.failed += occupancy

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """A frozen copy of every counter and histogram summary.

        The returned dict shares no mutable state with the live metrics:
        recording more traffic after the call never changes an already-taken
        snapshot (asserted by the unit tests).
        """
        with self._lock:
            return {
                "requests": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "rejected": self.rejected,
                },
                "batches": {
                    "dispatched": self.batches,
                    "failed": self.batches_failed,
                },
                "reloads": self.reloads,
                "batch_occupancy": self.occupancy.summary(),
                "latency_seconds": self.latency.summary(),
            }

    def latency_quantile(self, q: float) -> Optional[float]:
        """Numpy-linear latency quantile, or ``None`` with no samples yet."""
        with self._lock:
            if len(self.latency) == 0:
                return None
            return self.latency.quantile(q)
