"""Request coalescing for the online serving daemon.

:class:`BatchCoalescer` is the pure decision core of adaptive
micro-batching.  Requests go in one at a time with :meth:`~BatchCoalescer.add`;
a free worker asks :meth:`~BatchCoalescer.take` for the oldest
``max_batch_size`` of them, which it gets once

* ``max_batch_size`` requests are waiting, or
* the **oldest** waiting request has waited ``max_wait_seconds``, or
* the daemon is draining for shutdown.

With ``max_wait_seconds=0`` the second rule always holds, so a free worker
takes whatever is waiting, up to the cap: requests coalesce only while every
worker is busy.

The class owns no clock, no thread and no lock — :meth:`~BatchCoalescer.take`
takes ``now`` explicitly, which is what makes batch formation testable with a
fake clock (``tests/test_daemon.py``).  The daemon (:mod:`repro.serve.daemon`)
guards it with one condition variable and a real monotonic clock.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..exceptions import ConfigurationError

__all__ = ["BatchCoalescer", "PendingRequest"]


@dataclass
class PendingRequest:
    """One queued request travelling through the daemon.

    Carries the already-encoded bag (encoding happens at submit time, on the
    caller's thread), the original request for result formatting, the
    ``top_k`` the caller asked for, the future the answer is routed back
    through, and the enqueue timestamp that anchors the coalescing deadline
    and the latency metrics.
    """

    request: Any
    bag: Any
    top_k: int
    future: "Future[Any]" = field(default_factory=Future)
    enqueued_at: float = 0.0


class BatchCoalescer:
    """FIFO of pending requests that hands out deadline-bounded batches.

    Parameters
    ----------
    max_batch_size:
        Batch-size cap; a full batch is ready at once.
    max_wait_seconds:
        How long the oldest waiting request may wait before a partial batch
        is ready.  ``0`` makes whatever is waiting ready at once.
    """

    def __init__(self, max_batch_size: int, max_wait_seconds: float) -> None:
        if max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if max_wait_seconds < 0:
            raise ConfigurationError("max_wait_seconds must be >= 0")
        self.max_batch_size = max_batch_size
        self.max_wait_seconds = max_wait_seconds
        self._pending: List[PendingRequest] = []

    def __len__(self) -> int:
        return len(self._pending)

    def next_deadline(self) -> Optional[float]:
        """When the current partial batch is due; ``None`` if empty.

        The deadline tracks the *oldest* waiting request, so a stream of
        trickling arrivals cannot postpone dispatch indefinitely.
        """
        if not self._pending:
            return None
        return self._pending[0].enqueued_at + self.max_wait_seconds

    def add(self, item: PendingRequest) -> None:
        """Queue one request behind those already waiting."""
        self._pending.append(item)

    def take(self, now: float, draining: bool = False) -> Optional[List[PendingRequest]]:
        """The oldest ``max_batch_size`` requests if a batch is ready, else ``None``.

        A batch is ready when the cap is reached, the oldest request's
        deadline is at or before ``now``, or ``draining`` is set.  The rest
        stay queued in arrival order.
        """
        deadline = self.next_deadline()
        if deadline is None:
            return None
        if len(self._pending) < self.max_batch_size and now < deadline and not draining:
            return None
        batch = self._pending[: self.max_batch_size]
        del self._pending[: self.max_batch_size]
        return batch
