"""Long-lived online serving daemon with adaptive micro-batching.

:class:`ServingDaemon` promotes the one-shot :class:`PredictionService` into
a concurrent server:

* callers :meth:`~ServingDaemon.submit` single ``(head, tail, sentences)``
  requests from any thread and get a future back;
* ``num_workers`` worker threads pull batches from one
  :class:`~repro.serve.coalescer.BatchCoalescer` guarded by a condition
  variable.  A free worker takes up to ``max_batch_size`` of the oldest
  requests once the queue holds a full batch, the oldest request has waited
  ``max_wait_ms``, or the daemon is closing (see
  :class:`repro.config.DaemonConfig`).  With the default ``max_wait_ms=0``
  a free worker takes whatever is waiting, so requests coalesce only while
  every worker is computing;
* the worker runs its batch through the vectorized forward
  (:meth:`PredictionService.predict_encoded`, the shared padded-batch layer)
  and routes each row back through its request's future;
* :meth:`~ServingDaemon.reload` hot-swaps the model: a fresh
  :meth:`PredictionService.from_checkpoint` is built on the calling thread,
  then a single reference assignment switches traffic over — batches a
  worker already took finish on the old model, batches taken after the swap
  use the new one;
* :meth:`~ServingDaemon.watch` follows a streaming-ingest artifact version
  store (:mod:`repro.ingest`): each newly published version triggers the
  same reload swap, and the active version id is reported in
  :meth:`~ServingDaemon.stats`;
* :meth:`~ServingDaemon.close` drains: no new requests are accepted, every
  queued request still gets its answer, then the workers exit.

Failure semantics: a full queue rejects the submit with a typed
:class:`~repro.exceptions.ServiceError` instead of queueing unbounded work;
an exception inside a batch fails exactly the requests of that batch (their
futures re-raise it) and the worker keeps serving.

Everything observable lives in :class:`~repro.serve.metrics.DaemonMetrics`
(:meth:`~ServingDaemon.stats` returns a frozen snapshot).  Numerical
contract: a response is bit-equal to ``service.predict_encoded`` over the
same coalesced batch — the daemon adds zero numerical perturbation — and
therefore equal to the direct single-request ``service.predict`` path to
float64 round-off (bit-equal when the batch holds one request, which
``max_batch_size=1`` guarantees; the batched forward's results vary by
~1e-16 with batch composition, exactly like ``PredictionService``'s own
chunking).  See ``docs/daemon.md``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..config import DaemonConfig
from ..exceptions import ServiceError
from ..utils.logging import get_logger
from .coalescer import BatchCoalescer, PendingRequest
from .metrics import DaemonMetrics
from .service import PredictionRequest, PredictionResult, PredictionService

logger = get_logger("serve.daemon")

__all__ = ["ServingDaemon", "BatchRunner"]

#: A batch executor: (service, encoded bags) -> (num_bags, num_relations)
#: probabilities.  Injectable so the concurrency tests can gate/fail batches
#: deterministically; the default runs the service's vectorized forward.
BatchRunner = Callable[[PredictionService, Sequence], np.ndarray]


def _default_batch_runner(service: PredictionService, bags: Sequence) -> np.ndarray:
    """Run one coalesced batch through the service's padded-batch forward."""
    return service.predict_encoded(bags)


class ServingDaemon:
    """Concurrent request loop over a (hot-swappable) :class:`PredictionService`.

    Parameters
    ----------
    service:
        The initial model/encoder/schema bundle; replaceable at runtime via
        :meth:`reload`.
    config:
        Batching/backpressure knobs; defaults to :class:`DaemonConfig`'s
        defaults (32-request batches, dispatch as soon as a worker is free,
        one worker).
    batch_runner:
        Override of the batch executor (tests gate or fail batches through
        this seam).  Must return one probability row per bag, in order.

    Use as a context manager (``with ServingDaemon(service) as daemon:``) or
    call :meth:`start` / :meth:`close` explicitly.
    """

    def __init__(
        self,
        service: PredictionService,
        config: Optional[DaemonConfig] = None,
        batch_runner: Optional[BatchRunner] = None,
    ) -> None:
        self.config = config or DaemonConfig()
        self.config.validate()
        self._service = service
        self._batch_runner = batch_runner or _default_batch_runner
        self.metrics = DaemonMetrics(latency_window=self.config.latency_window)

        # One condition guards the coalescer, the pending count and the
        # running flag: submitters notify it, idle workers wait on it.
        self._coalescer = BatchCoalescer(
            self.config.max_batch_size, self.config.max_wait_seconds
        )
        self._ready = threading.Condition()
        self._pending_count = 0          # queued + in a worker, not yet resolved
        self._running = False
        self._workers: List[threading.Thread] = []

        # Version-store watching (repro.ingest integration).  The store is
        # duck-typed — anything whose current() returns None or an object
        # with `.version` and `.checkpoint_path` — so the serving layer never
        # imports the ingest package.
        self._version_store = None
        self._active_version: Optional[int] = None
        self._reload_lock = threading.Lock()
        self._watch_stop: Optional[threading.Event] = None
        self._watch_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> PredictionService:
        """The service currently answering new batches (changes on reload)."""
        return self._service

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "ServingDaemon":
        """Start the worker threads; starting a running daemon is an error."""
        with self._ready:
            if self._running:
                raise ServiceError("daemon is already running")
            self._running = True
        self._workers = [
            threading.Thread(target=self._work, name=f"repro-serve-{index}", daemon=True)
            for index in range(self.config.num_workers)
        ]
        for worker in self._workers:
            worker.start()
        logger.info(
            "serving daemon started: %s, max_batch_size=%d, max_wait_ms=%.3g, "
            "queue_limit=%d, workers=%d",
            self._service.model.describe(),
            self.config.max_batch_size,
            self.config.max_wait_ms,
            self.config.queue_limit,
            self.config.num_workers,
        )
        return self

    def __enter__(self) -> "ServingDaemon":
        if not self._running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: stop intake, drain the queue, join the workers.

        Every request accepted before the call still resolves (with a result
        or its batch's exception): the workers take what is queued without
        waiting for deadlines and exit once the queue is empty.  Raises
        :class:`ServiceError` if the drain exceeds ``timeout`` seconds;
        ``timeout=None`` waits forever.
        """
        self._stop_watcher()
        with self._ready:
            if not self._running:
                return
            self._running = False
            self._ready.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        for worker in self._workers:
            worker.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
            if worker.is_alive():
                raise ServiceError(
                    f"shutdown drain timed out with {self._pending_count} "
                    "requests still in flight"
                )
        self._workers = []
        logger.info("serving daemon stopped: %s", self.metrics.snapshot()["requests"])

    # ------------------------------------------------------------------ #
    # Request intake (caller threads)
    # ------------------------------------------------------------------ #
    def submit(
        self, request: PredictionRequest, top_k: int = 3
    ) -> "Future[PredictionResult]":
        """Queue one request; returns a future resolving to its result.

        Thread-safe.  Encoding happens synchronously on the caller's thread
        (so malformed requests raise :class:`~repro.exceptions.DataError`
        here, not inside a shared batch); the encoded bag then joins the
        queue and one idle worker is woken.  Raises :class:`ServiceError`
        when the daemon is not running or the bounded queue is full
        (backpressure — retry later rather than queueing unbounded work).
        """
        bag = self._service.encode_request(request)
        item = PendingRequest(
            request=request,
            bag=bag,
            top_k=top_k,
            future=Future(),
            enqueued_at=time.monotonic(),
        )
        with self._ready:
            if not self._running:
                raise ServiceError("daemon is not running; call start() first")
            if self._pending_count >= self.config.queue_limit:
                self.metrics.record_rejected()
                raise ServiceError(
                    f"request queue is full ({self.config.queue_limit} requests "
                    "queued or in flight); retry after the backlog drains"
                )
            self._pending_count += 1
            self.metrics.record_submitted()
            self._coalescer.add(item)
            self._ready.notify()
        return item.future

    def predict(
        self,
        request: PredictionRequest,
        top_k: int = 3,
        timeout: Optional[float] = None,
    ) -> PredictionResult:
        """Blocking convenience wrapper: submit and wait for the answer."""
        return self.submit(request, top_k=top_k).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Batch execution (worker threads)
    # ------------------------------------------------------------------ #
    def _work(self) -> None:
        """Take ready batches and run them until closed and drained."""
        while True:
            with self._ready:
                while True:
                    now = time.monotonic()
                    batch = self._coalescer.take(now, draining=not self._running)
                    if batch is not None:
                        break
                    if not self._running:
                        return
                    deadline = self._coalescer.next_deadline()
                    self._ready.wait(None if deadline is None else deadline - now)
                if len(self._coalescer):
                    # Leave what remains to another idle worker.
                    self._ready.notify()
                # Captured with the batch: a reload never splits a batch
                # across models, and batches taken before the swap complete
                # on the old one.
                service = self._service
            self._run_batch(service, batch)

    def _run_batch(self, service: PredictionService, batch: List[PendingRequest]) -> None:
        try:
            probabilities = self._batch_runner(service, [item.bag for item in batch])
            if len(probabilities) != len(batch):
                raise ServiceError(
                    f"batch runner returned {len(probabilities)} rows "
                    f"for {len(batch)} requests"
                )
            results = [
                service.build_result(item.request, row, item.top_k)
                for item, row in zip(batch, probabilities)
            ]
        except Exception as error:  # noqa: BLE001 - routed to the batch's futures
            self.metrics.record_batch_failure(len(batch))
            for item in batch:
                if not item.future.set_running_or_notify_cancel():
                    continue
                item.future.set_exception(error)
            self._resolve(len(batch))
            logger.warning("batch of %d requests failed: %s", len(batch), error)
            return
        now = time.monotonic()
        for item, result in zip(batch, results):
            if item.future.set_running_or_notify_cancel():
                item.future.set_result(result)
        self.metrics.record_batch(len(batch), [now - item.enqueued_at for item in batch])
        self._resolve(len(batch))

    def _resolve(self, count: int) -> None:
        """Mark ``count`` requests as no longer pending (done or failed)."""
        with self._ready:
            self._pending_count -= count

    # ------------------------------------------------------------------ #
    # Hot reload + observability
    # ------------------------------------------------------------------ #
    def reload(self, checkpoint_path: Union[str, Path]) -> PredictionService:
        """Atomically swap in a fresh service from a checkpoint directory.

        The new :class:`PredictionService` is built on the calling thread —
        the workers keep serving while the checkpoint loads (cold start is
        ~tens of ms, see ``benchmarks/results/serve_cold_start.txt``) — and
        installed with one reference assignment.  Batches a worker already
        took finish on the old model; batches taken afterwards (including
        requests already queued) use the new one.  A failed load leaves the old
        service untouched.
        """
        new_service = PredictionService.from_checkpoint(
            checkpoint_path,
            batch_size=self._service.batch_size,
            dtype=self._service.dtype,
        )
        self._service = new_service
        self.metrics.record_reload()
        logger.info(
            "hot-reloaded checkpoint %s: %s",
            checkpoint_path,
            new_service.model.describe(),
        )
        return new_service

    # ------------------------------------------------------------------ #
    # Version-store watching (streaming ingest pickup)
    # ------------------------------------------------------------------ #
    def watch(self, version_store, poll_interval: Optional[float] = 0.05) -> "ServingDaemon":
        """Follow an artifact version store, hot-reloading on new versions.

        ``version_store`` is duck-typed (an
        :class:`repro.ingest.versions.ArtifactVersionStore` or anything whose
        ``current()`` returns ``None`` or an object with ``.version`` and
        ``.checkpoint_path``).  The store's *current* version at watch time
        is adopted as the already-served baseline without reloading — the
        daemon's initial service is assumed to be that version — and only
        strictly newer versions trigger :meth:`reload`.

        With a ``poll_interval`` (seconds) a background thread polls the
        store; ``poll_interval=None`` registers the store without a thread so
        callers drive :meth:`check_for_update` themselves (what the
        deterministic tests do).  Watching stops at :meth:`close`.
        """
        if self._watch_thread is not None:
            raise ServiceError("daemon is already watching a version store")
        self._version_store = version_store
        info = version_store.current()
        self._active_version = info.version if info is not None else None
        if poll_interval is None:
            return self
        if poll_interval <= 0:
            raise ServiceError("poll_interval must be positive (or None for manual polling)")
        self._watch_stop = threading.Event()

        def poll() -> None:
            assert self._watch_stop is not None
            while not self._watch_stop.wait(poll_interval):
                try:
                    self.check_for_update()
                except Exception as error:  # noqa: BLE001 - keep polling
                    logger.warning("version-store poll failed: %s", error)

        self._watch_thread = threading.Thread(
            target=poll, name="repro-serve-watch", daemon=True
        )
        self._watch_thread.start()
        logger.info("watching version store (poll every %.3gs)", poll_interval)
        return self

    def check_for_update(self) -> Optional[int]:
        """Poll the watched store once; reload if a newer version is current.

        Returns the newly adopted version id, or ``None`` when the store has
        nothing newer.  Thread-safe (the poller thread and manual callers
        serialise on a lock); batches a worker already took finish on the old
        service exactly as with a direct :meth:`reload`.
        """
        if self._version_store is None:
            raise ServiceError("no version store is being watched; call watch() first")
        with self._reload_lock:
            info = self._version_store.current()
            if info is None:
                return None
            if self._active_version is not None and info.version <= self._active_version:
                return None
            self.reload(info.checkpoint_path)
            self._active_version = info.version
            logger.info("picked up version %d", info.version)
            return info.version

    def _stop_watcher(self) -> None:
        if self._watch_stop is not None:
            self._watch_stop.set()
        if self._watch_thread is not None:
            self._watch_thread.join()
        self._watch_thread = None
        self._watch_stop = None

    def stats(self) -> Dict[str, object]:
        """Frozen observability snapshot: metrics plus live queue depth."""
        snapshot = self.metrics.snapshot()
        with self._ready:
            snapshot["queue"] = {
                "pending": self._pending_count,
                "limit": self.config.queue_limit,
            }
            snapshot["running"] = self._running
        snapshot["model"] = self._service.model.describe()
        snapshot["version"] = self._active_version
        snapshot["dtype"] = self._service.dtype
        return snapshot
