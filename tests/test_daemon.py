"""Deterministic concurrency tests for the online serving daemon.

Three layers, in increasing integration depth:

* :class:`TestBatchCoalescer` drives the pure coalescer with a **fake
  clock** — no sleeps, no threads — proving which batch a free worker takes
  under the ``max_batch_size`` / ``max_wait`` rule exactly;
* the metrics tests check the quantile math against the numpy reference and
  that snapshots are frozen copies;
* the daemon tests run the real worker threads but stay deterministic
  through two seams: a *gated* batch runner (batches block on events the
  test releases in a chosen order — dispatch while idle, coalescing behind
  a busy worker, out-of-order completion, hot reload mid-stream, fault
  injection) and per-request parity assertions that do not depend on how
  requests happened to coalesce.  The soak and crash cases keep load on a
  daemon across version swaps and a publisher killed mid-publish.

Parity contract (see ``docs/daemon.md``): a daemon response is bit-equal to
the padded-batch forward over its own coalesced batch, bit-equal to the
direct ``PredictionService.predict`` path when the batch holds one request
(``max_batch_size=1`` guarantees it), and equal to the direct path to
float64 round-off (1e-12 here, ~1e-16 observed) under concurrent
multi-request coalescing — the same composition-dependence the service's
own chunking has.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import DaemonConfig, IngestConfig
from repro.exceptions import ConfigurationError, DataError, ServiceError
from repro.experiments.pipeline import train_and_evaluate
from repro.serve import (
    BatchCoalescer,
    DaemonMetrics,
    PendingRequest,
    PredictionRequest,
    PredictionService,
    ServingDaemon,
)
from repro.serve.metrics import LatencyWindow, OccupancyHistogram, linear_quantile


def make_item(payload: object = None, enqueued_at: float = 0.0) -> PendingRequest:
    return PendingRequest(
        request=payload, bag=payload, top_k=3, future=Future(), enqueued_at=enqueued_at
    )


# --------------------------------------------------------------------- #
# Coalescer: fake clock, manual drive, no sleeps
# --------------------------------------------------------------------- #
class TestBatchCoalescer:
    def test_full_batch_emits_immediately(self):
        coalescer = BatchCoalescer(max_batch_size=3, max_wait_seconds=10.0)
        coalescer.add(make_item("a", enqueued_at=0.0))
        coalescer.add(make_item("b", enqueued_at=0.1))
        assert coalescer.take(now=0.1) is None
        coalescer.add(make_item("c", enqueued_at=0.2))
        batch = coalescer.take(now=0.2)
        assert [item.request for item in batch] == ["a", "b", "c"]
        assert len(coalescer) == 0
        assert coalescer.next_deadline() is None
        assert coalescer.take(now=0.2) is None

    def test_partial_batch_waits_for_deadline(self):
        coalescer = BatchCoalescer(max_batch_size=8, max_wait_seconds=5.0)
        coalescer.add(make_item("a", enqueued_at=100.0))
        assert coalescer.next_deadline() == 105.0
        # Not due strictly before the deadline...
        assert coalescer.take(now=104.999) is None
        assert len(coalescer) == 1
        # ... due exactly at it.
        batch = coalescer.take(now=105.0)
        assert [item.request for item in batch] == ["a"]
        assert coalescer.next_deadline() is None

    def test_deadline_anchored_to_oldest_request(self):
        """Trickling arrivals must not postpone dispatch indefinitely."""
        coalescer = BatchCoalescer(max_batch_size=100, max_wait_seconds=5.0)
        coalescer.add(make_item("old", enqueued_at=0.0))
        for t in (1.0, 2.0, 3.0, 4.0):
            coalescer.add(make_item(f"t{t}", enqueued_at=t))
            assert coalescer.take(now=t) is None
        assert coalescer.next_deadline() == 5.0  # anchored to the first arrival
        batch = coalescer.take(now=5.0)
        assert len(batch) == 5 and batch[0].request == "old"

    def test_zero_wait_takes_everything_waiting_up_to_the_cap(self):
        coalescer = BatchCoalescer(max_batch_size=3, max_wait_seconds=0.0)
        for i in range(5):
            coalescer.add(make_item(i, enqueued_at=7.0))
        assert [item.request for item in coalescer.take(now=7.0)] == [0, 1, 2]
        assert [item.request for item in coalescer.take(now=7.0)] == [3, 4]
        assert coalescer.take(now=7.0) is None
        coalescer.add(make_item("solo", enqueued_at=8.0))
        assert [item.request for item in coalescer.take(now=8.0)] == ["solo"]

    def test_deadline_emission_preserves_fifo_order(self):
        coalescer = BatchCoalescer(max_batch_size=4, max_wait_seconds=1.0)
        for i in range(3):
            coalescer.add(make_item(i, enqueued_at=float(i) * 0.1))
        batch = coalescer.take(now=1.0)
        assert [item.request for item in batch] == [0, 1, 2]

    def test_flush_drains_everything_in_chunks(self):
        coalescer = BatchCoalescer(max_batch_size=2, max_wait_seconds=60.0)
        for i in range(5):
            coalescer.add(make_item(i, enqueued_at=float(i)))
        taken = [coalescer.take(now=4.0), coalescer.take(now=4.0)]
        assert [[item.request for item in b] for b in taken] == [[0, 1], [2, 3]]
        # The leftover partial batch is not due yet, unless draining.
        assert coalescer.take(now=4.0) is None
        assert [item.request for item in coalescer.take(now=4.0, draining=True)] == [4]
        assert coalescer.take(now=4.0, draining=True) is None
        assert len(coalescer) == 0 and coalescer.next_deadline() is None

    def test_consecutive_full_batches(self):
        coalescer = BatchCoalescer(max_batch_size=2, max_wait_seconds=60.0)
        for i in range(6):
            coalescer.add(make_item(i, enqueued_at=0.0))
        batches = [coalescer.take(now=0.0) for _ in range(3)]
        assert [[item.request for item in b] for b in batches] == [[0, 1], [2, 3], [4, 5]]
        assert coalescer.take(now=0.0) is None

    def test_deadline_resets_after_emission(self):
        coalescer = BatchCoalescer(max_batch_size=8, max_wait_seconds=5.0)
        coalescer.add(make_item("a", enqueued_at=0.0))
        coalescer.take(now=5.0)
        # A fresh arrival starts a fresh deadline window.
        coalescer.add(make_item("b", enqueued_at=30.0))
        assert coalescer.next_deadline() == 35.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchCoalescer(max_batch_size=0, max_wait_seconds=1.0)
        with pytest.raises(ConfigurationError):
            BatchCoalescer(max_batch_size=4, max_wait_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            DaemonConfig(max_batch_size=-1).validate()
        with pytest.raises(ConfigurationError):
            DaemonConfig(queue_limit=0).validate()
        with pytest.raises(ConfigurationError):
            DaemonConfig(num_workers=0).validate()


# --------------------------------------------------------------------- #
# Metrics: quantile math vs numpy, snapshot isolation
# --------------------------------------------------------------------- #
class TestMetrics:
    @pytest.mark.parametrize(
        "samples",
        [
            list(range(1, 101)),                          # uniform integers
            [0.5],                                        # single sample
            [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],     # small, with ties
            np.random.default_rng(7).lognormal(0, 1, 500).tolist(),  # skewed
        ],
    )
    def test_quantiles_match_numpy_reference(self, samples):
        window = LatencyWindow(window=len(samples) + 10)
        for sample in samples:
            window.observe(sample)
        for q in (0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
            np.testing.assert_allclose(
                window.quantile(q), np.quantile(samples, q), rtol=1e-12, atol=0
            )
        summary = window.summary()
        np.testing.assert_allclose(summary["p50"], np.quantile(samples, 0.50), rtol=1e-12)
        np.testing.assert_allclose(summary["p95"], np.quantile(samples, 0.95), rtol=1e-12)
        np.testing.assert_allclose(summary["p99"], np.quantile(samples, 0.99), rtol=1e-12)
        np.testing.assert_allclose(summary["mean"], np.mean(samples), rtol=1e-12)
        assert summary["max"] == max(samples)

    def test_quantile_input_validation(self):
        window = LatencyWindow(window=4)
        with pytest.raises(ValueError):
            window.quantile(0.5)  # no samples yet
        window.observe(1.0)
        with pytest.raises(ValueError):
            window.quantile(1.5)
        with pytest.raises(ValueError):
            linear_quantile([], 0.5)
        with pytest.raises(ValueError):
            LatencyWindow(window=0)

    def test_window_keeps_recent_samples_only(self):
        window = LatencyWindow(window=100)
        for value in range(1000):
            window.observe(float(value))
        assert len(window) == 100
        assert window.total == 1000
        # Only recent samples survive, so the minimum is far above 0.
        assert window.quantile(0.0) >= 900.0

    def test_occupancy_histogram(self):
        histogram = OccupancyHistogram()
        for occupancy in (1, 4, 4, 8):
            histogram.observe(occupancy)
        assert histogram.mean == pytest.approx((1 + 4 + 4 + 8) / 4)
        assert histogram.max == 8
        assert histogram.summary()["counts"] == {1: 1, 4: 2, 8: 1}
        with pytest.raises(ValueError):
            histogram.observe(0)

    def test_snapshot_is_a_frozen_copy_not_a_live_view(self):
        metrics = DaemonMetrics(latency_window=16)
        metrics.record_submitted(3)
        metrics.record_batch(3, [0.010, 0.020, 0.030])
        before = metrics.snapshot()
        # Keep an independent copy of the nested values we will re-check.
        requests_before = dict(before["requests"])
        occupancy_before = dict(before["batch_occupancy"]["counts"])
        p99_before = before["latency_seconds"]["p99"]

        # More traffic, a failure and a reload after the snapshot...
        metrics.record_submitted(10)
        metrics.record_batch(10, [0.5] * 10)
        metrics.record_batch_failure(2)
        metrics.record_rejected()
        metrics.record_reload()

        # ... must leave the earlier snapshot untouched.
        assert before["requests"] == requests_before == {
            "submitted": 3, "completed": 3, "failed": 0, "rejected": 0,
        }
        assert before["batch_occupancy"]["counts"] == occupancy_before == {3: 1}
        assert before["latency_seconds"]["p99"] == p99_before
        assert before["reloads"] == 0

        after = metrics.snapshot()
        assert after["requests"] == {
            "submitted": 13, "completed": 13, "failed": 2, "rejected": 1,
        }
        assert after["batches"] == {"dispatched": 3, "failed": 1}
        assert after["reloads"] == 1

    def test_mutating_a_snapshot_does_not_touch_the_metrics(self):
        metrics = DaemonMetrics()
        metrics.record_batch(2, [0.1, 0.2])
        snapshot = metrics.snapshot()
        snapshot["requests"]["completed"] = 10_000
        snapshot["batch_occupancy"]["counts"][2] = 10_000
        assert metrics.snapshot()["requests"]["completed"] == 2
        assert metrics.snapshot()["batch_occupancy"]["counts"] == {2: 1}


# --------------------------------------------------------------------- #
# Daemon integration helpers
# --------------------------------------------------------------------- #
def requests_from_context(context, count: int):
    """Real (head, tail, sentences) requests built from the test bundle."""
    bags = context.bundle.test.bags
    return [
        PredictionRequest(
            head=bag.head_name, tail=bag.tail_name, sentences=list(bag.sentences)
        )
        for bag in (bags[i % len(bags)] for i in range(count))
    ]


class GatedRunner:
    """Batch runner whose every batch blocks until the test releases it.

    Batches signal arrival through per-index events (``wait_for_batch``),
    then wait on their gate; once released they compute the real vectorized
    forward with the service reference the daemon captured at dispatch time.
    Releasing gates in a chosen order simulates out-of-order completion
    deterministically — no sleeps, just event handshakes.
    """

    def __init__(self, fail_batches=()):
        self._lock = threading.Lock()
        self.batches = []            # (service, bags) per dispatched batch
        self._arrived = []
        self._gates = []
        self.fail_batches = set(fail_batches)

    def _slot(self, index):
        with self._lock:
            while len(self._arrived) <= index:
                self._arrived.append(threading.Event())
                self._gates.append(threading.Event())
            return self._arrived[index], self._gates[index]

    def __call__(self, service, bags):
        with self._lock:
            index = len(self.batches)
            self.batches.append((service, list(bags)))
        arrived, gate = self._slot(index)
        arrived.set()
        assert gate.wait(timeout=30.0), f"batch {index} was never released"
        if index in self.fail_batches:
            raise RuntimeError(f"injected failure for batch {index}")
        return service.predict_encoded(bags)

    def wait_for_batch(self, index, timeout=30.0):
        arrived, _ = self._slot(index)
        assert arrived.wait(timeout=timeout), f"batch {index} never dispatched"

    def release(self, index):
        _, gate = self._slot(index)
        gate.set()

    def release_all(self):
        with self._lock:
            known = len(self._gates)
        for index in range(max(known, 64)):
            self.release(index)


# Every aggregation/encoder/head combination the factories can build
# (mirrors tests/test_serve.py).
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]


@pytest.fixture(scope="module")
def services(nyt_context):
    """One PredictionService per model variant (training is context-cached)."""

    def build(method_name: str) -> PredictionService:
        method, _ = train_and_evaluate(nyt_context, method_name)
        return PredictionService.from_context(nyt_context, method.model)

    return build


@pytest.fixture()
def publishers(nyt_context, tmp_path):
    """A version store plus a closure publishing servable checkpoints."""
    from repro.ingest import ArtifactVersionStore
    from repro.ingest.versions import CHECKPOINT_MEMBER

    store = ArtifactVersionStore(tmp_path / "versions")

    def publish(method_name: str):
        method, _ = train_and_evaluate(nyt_context, method_name)

        def write(stage):
            method.model.save(
                stage / CHECKPOINT_MEMBER,
                encoder=nyt_context.bag_encoder,
                schema=nyt_context.bundle.schema,
                kb=nyt_context.bundle.kb,
            )

        return store.publish(write, metadata={"method": method_name})

    return store, publish


# --------------------------------------------------------------------- #
# Daemon: parity under concurrent load, for every model variant
# --------------------------------------------------------------------- #
class TestDaemonParity:
    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_concurrent_load_matches_direct_predict(
        self, services, nyt_context, method_name
    ):
        """Responses under multi-threaded load equal the one-shot path."""
        service = services(method_name)
        requests = requests_from_context(nyt_context, 24)
        direct = [service.predict(request) for request in requests]

        config = DaemonConfig(max_batch_size=8, max_wait_ms=5.0, num_workers=2)
        futures = [None] * len(requests)
        with ServingDaemon(service, config=config) as daemon:

            def client(indices):
                for i in indices:
                    futures[i] = daemon.submit(requests[i])

            threads = [
                threading.Thread(target=client, args=(range(k, len(requests), 4),))
                for k in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=30.0) for future in futures]
            stats = daemon.stats()

        for request, result, expected in zip(requests, direct, results):
            assert result.head == expected.head and result.tail == expected.tail
            np.testing.assert_allclose(
                result.probabilities, expected.probabilities, atol=1e-12
            )
            assert [p.relation_id for p in result.predictions] == [
                p.relation_id for p in expected.predictions
            ]
        assert stats["requests"]["completed"] == len(requests)
        assert stats["requests"]["failed"] == 0

    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_single_occupancy_is_bit_equal_to_direct_predict(
        self, services, nyt_context, method_name
    ):
        """With occupancy-1 batches the daemon reproduces predict() exactly."""
        service = services(method_name)
        requests = requests_from_context(nyt_context, 6)
        config = DaemonConfig(max_batch_size=1, max_wait_ms=0.0)
        with ServingDaemon(service, config=config) as daemon:
            results = [daemon.predict(request, timeout=30.0) for request in requests]
        for request, result in zip(requests, results):
            expected = service.predict(request)
            np.testing.assert_array_equal(result.probabilities, expected.probabilities)

    def test_coalesced_responses_bit_equal_to_batched_forward(
        self, services, nyt_context
    ):
        """Future routing adds zero numerical perturbation.

        With one worker, dispatch order equals submission order, so the
        concatenated batch outputs (recomputed independently over the exact
        captured compositions) must equal the futures' rows bit-for-bit.
        """
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 17)  # deliberately ragged
        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=4, max_wait_ms=50.0, num_workers=1)
        with ServingDaemon(service, config=config, batch_runner=runner) as daemon:
            futures = [daemon.submit(request) for request in requests]
            runner.release_all()
            rows = np.stack([f.result(timeout=30.0).probabilities for f in futures])

        recomputed = np.concatenate(
            [service.predict_encoded(bags) for _, bags in runner.batches]
        )
        np.testing.assert_array_equal(rows, recomputed)
        # Sanity: coalescing actually happened (first batches are full).
        assert len(runner.batches[0][1]) == 4

    def test_out_of_order_completion_routes_futures_correctly(
        self, services, nyt_context
    ):
        """Batch 1 finishing before batch 0 must not cross-wire answers."""
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 4)
        direct = [service.predict(request) for request in requests]
        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=2, max_wait_ms=10_000.0, num_workers=2)
        with ServingDaemon(service, config=config, batch_runner=runner) as daemon:
            futures = [daemon.submit(request) for request in requests]
            runner.wait_for_batch(0)
            runner.wait_for_batch(1)
            # Complete the *second* batch first.
            runner.release(1)
            late = [futures[2].result(timeout=30.0), futures[3].result(timeout=30.0)]
            assert not futures[0].done() and not futures[1].done()
            runner.release(0)
            early = [futures[0].result(timeout=30.0), futures[1].result(timeout=30.0)]

        for result, expected in zip(early + late, direct):
            assert (result.head, result.tail) == (expected.head, expected.tail)
            np.testing.assert_allclose(
                result.probabilities, expected.probabilities, atol=1e-12
            )


# --------------------------------------------------------------------- #
# Daemon: the dispatch rule (a free worker takes whatever is waiting)
# --------------------------------------------------------------------- #
class TestDispatchRule:
    def test_zero_wait_dispatches_a_lone_request_while_idle(self, services, nyt_context):
        """No deadline to wait out: an idle worker runs a batch of one at once."""
        service = services("pa_tmr")
        [request] = requests_from_context(nyt_context, 1)
        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=32, max_wait_ms=0.0, num_workers=1)
        with ServingDaemon(service, config=config, batch_runner=runner) as daemon:
            future = daemon.submit(request)
            runner.wait_for_batch(0)
            assert len(runner.batches[0][1]) == 1
            runner.release(0)
            result = future.result(timeout=30.0)
        np.testing.assert_array_equal(
            result.probabilities, service.predict(request).probabilities
        )

    def test_requests_behind_a_busy_worker_form_the_next_batch(
        self, services, nyt_context
    ):
        """Arrivals during a computing batch coalesce, capped at max_batch_size."""
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 7)
        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=4, max_wait_ms=0.0, num_workers=1)
        with ServingDaemon(service, config=config, batch_runner=runner) as daemon:
            first = daemon.submit(requests[0])
            runner.wait_for_batch(0)          # the only worker is now held
            queued = [daemon.submit(request) for request in requests[1:]]
            assert daemon.stats()["queue"]["pending"] == 7
            runner.release_all()
            results = [first.result(timeout=30.0)] + [
                future.result(timeout=30.0) for future in queued
            ]
            stats = daemon.stats()

        assert [len(bags) for _, bags in runner.batches] == [1, 4, 2]
        assert stats["batch_occupancy"]["counts"] == {1: 1, 4: 1, 2: 1}
        for request, result in zip(requests, results):
            assert (result.head, result.tail) == (request.head, request.tail)
            np.testing.assert_allclose(
                result.probabilities, service.predict(request).probabilities, atol=1e-12
            )

    def test_batch_size_one_is_bit_equal_under_concurrent_submits(
        self, services, nyt_context
    ):
        """max_batch_size=1 keeps every answer occupancy-1, even with a backlog."""
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 12)
        config = DaemonConfig(max_batch_size=1, num_workers=2)
        with ServingDaemon(service, config=config) as daemon:
            futures = [daemon.submit(request) for request in requests]
            results = [future.result(timeout=30.0) for future in futures]
            stats = daemon.stats()
        assert stats["batch_occupancy"]["counts"] == {1: len(requests)}
        for request, result in zip(requests, results):
            np.testing.assert_array_equal(
                result.probabilities, service.predict(request).probabilities
            )


# --------------------------------------------------------------------- #
# Daemon: hot checkpoint reload
# --------------------------------------------------------------------- #
class TestHotReload:
    @pytest.fixture()
    def checkpoints(self, nyt_context, tmp_path):
        """Two servable checkpoints with genuinely different weights."""
        paths = {}
        for method_name in ("pa_tmr", "pcnn_att"):
            method, _ = train_and_evaluate(nyt_context, method_name)
            paths[method_name] = method.model.save(
                tmp_path / method_name,
                encoder=nyt_context.bag_encoder,
                schema=nyt_context.bundle.schema,
                kb=nyt_context.bundle.kb,
            )
        return paths

    def test_reload_mid_stream(self, nyt_context, checkpoints):
        """Old-model batches complete on the old model; new requests hit the new."""
        service_a = PredictionService.from_checkpoint(checkpoints["pa_tmr"])
        service_b = PredictionService.from_checkpoint(checkpoints["pcnn_att"])
        requests = requests_from_context(nyt_context, 4)
        expected_a = [service_a.predict(r) for r in requests[:2]]
        expected_b = [service_b.predict(r) for r in requests[2:]]
        # The two models must disagree, or this test could not tell them apart.
        assert any(
            not np.allclose(a.probabilities, b.probabilities)
            for a, b in zip(expected_a, [service_b.predict(r) for r in requests[:2]])
        )

        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=2, max_wait_ms=10_000.0, num_workers=2)
        daemon = ServingDaemon(
            PredictionService.from_checkpoint(checkpoints["pa_tmr"]),
            config=config,
            batch_runner=runner,
        )
        with daemon:
            old_futures = [daemon.submit(r) for r in requests[:2]]
            runner.wait_for_batch(0)          # old-model batch is in flight

            daemon.reload(checkpoints["pcnn_att"])
            new_futures = [daemon.submit(r) for r in requests[2:]]
            runner.wait_for_batch(1)

            # Finish the *new* batch first, then the old one: completion
            # order must not matter for which model served which batch.
            runner.release(1)
            new_results = [f.result(timeout=30.0) for f in new_futures]
            runner.release(0)
            old_results = [f.result(timeout=30.0) for f in old_futures]
            stats = daemon.stats()

        for result, expected in zip(old_results, expected_a):
            np.testing.assert_allclose(
                result.probabilities, expected.probabilities, atol=1e-12
            )
        for result, expected in zip(new_results, expected_b):
            np.testing.assert_allclose(
                result.probabilities, expected.probabilities, atol=1e-12
            )
        assert stats["reloads"] == 1
        # The swap captured different service objects per batch.
        assert runner.batches[0][0] is not runner.batches[1][0]

    def test_float32_daemon_stays_float32_after_reload(self, nyt_context, checkpoints):
        """``reload`` rebuilds the service at the daemon's serving dtype."""
        requests = requests_from_context(nyt_context, 3)
        expected = PredictionService.from_checkpoint(
            checkpoints["pcnn_att"], dtype="float32"
        ).predict_batch(requests)
        service = PredictionService.from_checkpoint(checkpoints["pa_tmr"], dtype="float32")
        config = DaemonConfig(max_batch_size=1, max_wait_ms=0.0)
        with ServingDaemon(service, config=config) as daemon:
            assert daemon.stats()["dtype"] == "float32"
            daemon.reload(checkpoints["pcnn_att"])
            assert daemon.service.dtype == "float32"
            assert daemon.service.model.parameter_dtype() == np.float32
            assert daemon.stats()["dtype"] == "float32"
            results = [daemon.predict(r, timeout=30.0) for r in requests]
        for result, want in zip(results, expected):
            np.testing.assert_array_equal(result.probabilities, want.probabilities)

    def test_failed_reload_keeps_old_service(self, services, tmp_path):
        service = services("pa_tmr")
        with ServingDaemon(service, config=DaemonConfig(max_wait_ms=0.0)) as daemon:
            from repro.exceptions import CheckpointError

            with pytest.raises(CheckpointError):
                daemon.reload(tmp_path / "no-such-checkpoint")
            assert daemon.service is service
            assert daemon.stats()["reloads"] == 0


# --------------------------------------------------------------------- #
# Daemon: version-store watching (streaming ingest pickup)
# --------------------------------------------------------------------- #
class TestVersionWatch:
    def test_version_pickup_mid_stream(self, nyt_context, publishers):
        """A published version is adopted without restart or dropped requests.

        Deterministic replay of the streaming handoff: the daemon watches in
        manual-poll mode (``poll_interval=None`` — the poller thread's body is
        exactly ``check_for_update``, called here from the test instead of a
        timer), an old-model batch is held in flight across the version flip,
        and completion order is inverted. Requests submitted before the flip
        must answer from the old version, requests after it from the new one.
        """
        store, publish = publishers
        first = publish("pa_tmr")
        service_a = PredictionService.from_checkpoint(first.checkpoint_path)
        requests = requests_from_context(nyt_context, 4)
        expected_a = [service_a.predict(r) for r in requests[:2]]

        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=2, max_wait_ms=10_000.0, num_workers=2)
        daemon = ServingDaemon(
            PredictionService.from_checkpoint(first.checkpoint_path),
            config=config,
            batch_runner=runner,
        )
        with daemon:
            daemon.watch(store, poll_interval=None)
            # The store's current version is adopted as the baseline served
            # version — no reload, and polling again is a no-op.
            assert daemon.stats()["version"] == first.version
            assert daemon.check_for_update() is None
            assert daemon.stats()["reloads"] == 0

            old_futures = [daemon.submit(r) for r in requests[:2]]
            runner.wait_for_batch(0)          # old-version batch is in flight

            second = publish("pcnn_att")      # the ingestor ships a new round
            assert daemon.check_for_update() == second.version
            service_b = PredictionService.from_checkpoint(second.checkpoint_path)
            expected_b = [service_b.predict(r) for r in requests[2:]]
            new_futures = [daemon.submit(r) for r in requests[2:]]
            runner.wait_for_batch(1)

            # New batch completes first; the old one must still answer from
            # the old version's weights.
            runner.release(1)
            new_results = [f.result(timeout=30.0) for f in new_futures]
            runner.release(0)
            old_results = [f.result(timeout=30.0) for f in old_futures]
            stats = daemon.stats()

        for result, expected in zip(old_results, expected_a):
            np.testing.assert_allclose(
                result.probabilities, expected.probabilities, atol=1e-12
            )
        for result, expected in zip(new_results, expected_b):
            np.testing.assert_allclose(
                result.probabilities, expected.probabilities, atol=1e-12
            )
        assert stats["version"] == second.version
        assert stats["reloads"] == 1
        assert stats["requests"]["completed"] == 4
        assert stats["requests"]["failed"] == 0
        # The flip captured distinct service objects per batch.
        assert runner.batches[0][0] is not runner.batches[1][0]

    def test_threaded_watch_picks_up_version(self, services, publishers):
        """The background poller adopts new versions without manual polling."""
        store, publish = publishers
        publish("pa_tmr")
        with ServingDaemon(services("pa_tmr"), config=DaemonConfig(max_wait_ms=0.0)) as daemon:
            daemon.watch(store, poll_interval=0.01)
            with pytest.raises(ServiceError, match="already watching"):
                daemon.watch(store, poll_interval=0.01)
            second = publish("pcnn_att")
            deadline = 30.0
            while daemon.stats()["version"] != second.version and deadline > 0:
                import time

                time.sleep(0.02)
                deadline -= 0.02
            assert daemon.stats()["version"] == second.version
            assert daemon.stats()["reloads"] == 1
        # close() joined the poller thread.
        assert daemon._watch_thread is None

    def test_watch_error_paths(self, services, publishers):
        store, _ = publishers
        with ServingDaemon(services("pa_tmr"), config=DaemonConfig(max_wait_ms=0.0)) as daemon:
            with pytest.raises(ServiceError, match="call watch"):
                daemon.check_for_update()
            with pytest.raises(ServiceError, match="positive"):
                daemon.watch(store, poll_interval=0.0)
            # An empty store watches cleanly: no baseline, nothing to adopt.
            assert daemon.stats()["version"] is None
            assert daemon.check_for_update() is None


# --------------------------------------------------------------------- #
# Daemon: fault paths
# --------------------------------------------------------------------- #
class TestFaultPaths:
    def test_queue_full_raises_typed_backpressure_error(self, services, nyt_context):
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 5)
        runner = GatedRunner()
        config = DaemonConfig(
            max_batch_size=1, max_wait_ms=0.0, queue_limit=4, num_workers=1
        )
        with ServingDaemon(service, config=config, batch_runner=runner) as daemon:
            futures = [daemon.submit(request) for request in requests[:4]]
            # The queue (queued + in-flight) is at its bound: reject, not hang.
            with pytest.raises(ServiceError, match="queue is full"):
                daemon.submit(requests[4])
            assert daemon.stats()["requests"]["rejected"] == 1
            runner.release_all()
            for future in futures:
                future.result(timeout=30.0)
            # Once drained, the daemon accepts work again.
            runner.release_all()
            daemon.submit(requests[4]).result(timeout=30.0)

    def test_worker_exception_fails_only_its_batch(self, services, nyt_context):
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 4)
        runner = GatedRunner(fail_batches={0})
        config = DaemonConfig(max_batch_size=2, max_wait_ms=10_000.0, num_workers=1)
        with ServingDaemon(service, config=config, batch_runner=runner) as daemon:
            doomed = [daemon.submit(r) for r in requests[:2]]
            healthy = [daemon.submit(r) for r in requests[2:]]
            runner.release_all()
            for future in doomed:
                with pytest.raises(RuntimeError, match="injected failure"):
                    future.result(timeout=30.0)
            for future, request in zip(healthy, requests[2:]):
                result = future.result(timeout=30.0)
                np.testing.assert_allclose(
                    result.probabilities,
                    service.predict(request).probabilities,
                    atol=1e-12,
                )
            stats = daemon.stats()
        assert stats["requests"]["failed"] == 2
        assert stats["requests"]["completed"] == 2
        assert stats["batches"] == {"dispatched": 2, "failed": 1}

    def test_malformed_request_fails_at_submit_not_in_a_batch(self, services):
        service = services("pa_tmr")
        with ServingDaemon(service, config=DaemonConfig(max_wait_ms=0.0)) as daemon:
            with pytest.raises(DataError):
                daemon.submit(PredictionRequest(head="a", tail="b", sentences=[]))
            stats = daemon.stats()
            # The slot was returned: nothing pending, nothing submitted.
            assert stats["queue"]["pending"] == 0
            assert stats["requests"]["submitted"] == 0

    def test_close_drains_in_flight_requests(self, services, nyt_context):
        """Shutdown with queued + in-flight work drains rather than drops."""
        service = services("pa_tmr")
        requests = requests_from_context(nyt_context, 3)
        runner = GatedRunner()
        config = DaemonConfig(max_batch_size=1, max_wait_ms=0.0, num_workers=1)
        daemon = ServingDaemon(service, config=config, batch_runner=runner).start()
        futures = [daemon.submit(request) for request in requests]
        runner.wait_for_batch(0)   # batch 0 in flight, 1 and 2 queued behind it

        closer = threading.Thread(target=daemon.close)
        closer.start()
        runner.release_all()
        closer.join(timeout=30.0)
        assert not closer.is_alive(), "close() failed to drain"
        assert not daemon.running
        for future, request in zip(futures, requests):
            result = future.result(timeout=0)  # already resolved by the drain
            np.testing.assert_allclose(
                result.probabilities, service.predict(request).probabilities, atol=1e-12
            )

    def test_submit_after_close_raises(self, services, nyt_context):
        service = services("pa_tmr")
        daemon = ServingDaemon(service, config=DaemonConfig(max_wait_ms=0.0)).start()
        daemon.close()
        with pytest.raises(ServiceError, match="not running"):
            daemon.submit(requests_from_context(nyt_context, 1)[0])

    def test_close_is_idempotent_and_start_twice_rejected(self, services):
        service = services("pa_tmr")
        daemon = ServingDaemon(service, config=DaemonConfig(max_wait_ms=0.0))
        daemon.start()
        with pytest.raises(ServiceError, match="already running"):
            daemon.start()
        daemon.close()
        daemon.close()  # no-op, not an error


# --------------------------------------------------------------------- #
# Daemon: soak across version swaps, and a publisher killed mid-publish
# --------------------------------------------------------------------- #
_KILLED_PUBLISHER = textwrap.dedent(
    """
    import os, signal, sys

    from repro.ingest import ArtifactVersionStore


    def write(stage):
        (stage / "checkpoint").mkdir()
        (stage / "checkpoint" / "weights.bin").write_bytes(b"half a checkpoint")
        os.kill(os.getpid(), signal.SIGKILL)  # staged, never renamed


    ArtifactVersionStore(sys.argv[1]).publish(write)
    """
)


class TestSoakAndCrash:
    SWAPS = 6
    REQUESTS_PER_SWAP = 20

    def test_load_across_version_swaps_with_pruning(self, nyt_context, publishers):
        """Every accepted request resolves while versions swap and get pruned.

        More workers than cores and a short thread switch interval make the
        workers interleave on the shared queue as often as possible; a lost
        update to it would leave a future unresolved or the counts unequal.
        """
        store, publish = publishers
        keep_versions = IngestConfig().keep_versions
        first = publish("pa_tmr")
        requests = requests_from_context(nyt_context, 16)
        config = DaemonConfig(
            max_batch_size=8, queue_limit=32, num_workers=(os.cpu_count() or 1) + 1
        )
        accepted = []
        progress = threading.Condition()
        stop = threading.Event()

        def submitter():
            index = 0
            while not stop.is_set():
                try:
                    future = daemon.submit(requests[index % len(requests)])
                except ServiceError:
                    # Backpressure: let the backlog drain, then go on.
                    accepted[-1].result(timeout=30.0)
                    continue
                with progress:
                    accepted.append(future)
                    progress.notify_all()
                index += 1

        def wait_for_accepted(count):
            with progress:
                assert progress.wait_for(lambda: len(accepted) >= count, timeout=30.0)

        daemon = ServingDaemon(
            PredictionService.from_checkpoint(first.checkpoint_path), config=config
        )
        versions = []
        switch_interval = sys.getswitchinterval()
        with daemon:
            daemon.watch(store, poll_interval=None)
            thread = threading.Thread(target=submitter)
            thread.start()
            try:
                sys.setswitchinterval(1e-5)
                for swap in range(self.SWAPS):
                    wait_for_accepted((swap + 1) * self.REQUESTS_PER_SWAP)
                    info = publish(("pcnn_att", "pa_tmr")[swap % 2])
                    store.prune(keep_versions)
                    assert daemon.check_for_update() == info.version
                    versions.append(info.version)
                wait_for_accepted((self.SWAPS + 1) * self.REQUESTS_PER_SWAP)
            finally:
                stop.set()
                thread.join(timeout=30.0)
                sys.setswitchinterval(switch_interval)
            assert not thread.is_alive()
            for index, future in enumerate(accepted):
                result = future.result(timeout=30.0)
                request = requests[index % len(requests)]
                assert (result.head, result.tail) == (request.head, request.tail)
        stats = daemon.stats()

        assert stats["reloads"] == self.SWAPS
        assert stats["version"] == versions[-1]
        assert stats["requests"]["failed"] == 0
        assert stats["requests"]["submitted"] == stats["requests"]["completed"] == len(accepted)
        assert stats["queue"]["pending"] == 0
        assert [info.version for info in store.list_versions()] == versions[-keep_versions:]

    def test_publisher_killed_before_rename_keeps_the_old_version(
        self, nyt_context, publishers
    ):
        """A SIGKILL between staging and rename leaves CURRENT and the daemon alone."""
        store, publish = publishers
        first = publish("pa_tmr")
        service = PredictionService.from_checkpoint(first.checkpoint_path)
        [request] = requests_from_context(nyt_context, 1)
        expected = service.predict(request).probabilities
        with ServingDaemon(service) as daemon:
            daemon.watch(store, poll_interval=None)
            np.testing.assert_array_equal(
                daemon.predict(request, timeout=30.0).probabilities, expected
            )

            src = str(Path(repro.__file__).resolve().parents[1])
            child = subprocess.Popen(
                [sys.executable, "-c", _KILLED_PUBLISHER, str(store.root)],
                env={**os.environ, "PYTHONPATH": src},
            )
            assert child.wait(timeout=60.0) == -signal.SIGKILL
            staged = store.root / f".staging-v{first.version + 1:06d}-{child.pid}"
            assert (staged / "checkpoint" / "weights.bin").exists()

            assert store.current().version == first.version
            assert daemon.check_for_update() is None
            np.testing.assert_array_equal(
                daemon.predict(request, timeout=30.0).probabilities, expected
            )
            assert daemon.stats()["reloads"] == 0

        assert store.prune(keep_last=1) == 0
        assert not staged.exists()
        assert [info.version for info in store.list_versions()] == [first.version]


# --------------------------------------------------------------------- #
# Session facade integration
# --------------------------------------------------------------------- #
class TestSessionDaemon:
    def test_session_daemon_roundtrip(self, nyt_context, trained_pa_tmr):
        import repro

        session = repro.Session(profile="tiny", seed=0)
        session._contexts["nyt"] = nyt_context  # reuse the prepared fixture
        request = requests_from_context(nyt_context, 1)[0]
        # By name: trains through the context's per-method cache (already
        # populated by the trained_pa_tmr fixture, so no retraining here).
        with session.daemon("pa_tmr") as daemon:
            result = daemon.predict(request, timeout=30.0)
            assert daemon.stats()["batch_occupancy"]["batches"] >= 1
        expected = session.service(trained_pa_tmr[0]).predict(request)
        np.testing.assert_allclose(
            result.probabilities, expected.probabilities, atol=1e-12
        )
