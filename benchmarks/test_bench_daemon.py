"""Benchmark for the online serving daemon (:mod:`repro.serve.daemon`).

The claim under test: with concurrent clients, adaptive micro-batching
recovers the vectorized-forward advantage that the one-request-at-a-time
path gives up.  A closed-loop load generator (each client waits for its
answer before sending the next request) drives the daemon, and its
throughput must be at least the sequential single-request path's — with the
batch-occupancy histogram proving the speedup really comes from coalescing
(mean occupancy > 1), not from measurement noise.

Writes ``latest/serve_daemon.txt``: throughput of both paths, the
occupancy distribution and the end-to-end latency quantiles under load.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.config import DaemonConfig
from repro.experiments.pipeline import train_and_evaluate
from repro.serve import PredictionRequest, PredictionService, ServingDaemon
from repro.utils.tables import format_table

from conftest import write_report

NUM_CLIENTS = 8
REQUESTS_PER_CLIENT = 40
TIMING_REPEATS = 3


def _requests(nyt_ctx, count):
    bags = nyt_ctx.bundle.test.bags
    return [
        PredictionRequest(
            head=bag.head_name, tail=bag.tail_name, sentences=list(bag.sentences)
        )
        for bag in (bags[i % len(bags)] for i in range(count))
    ]


def _best_seconds(fn, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_daemon_closed_loop_throughput(nyt_ctx):
    method, _ = train_and_evaluate(nyt_ctx, "pa_tmr")
    service = PredictionService.from_context(nyt_ctx, method.model)
    total_requests = NUM_CLIENTS * REQUESTS_PER_CLIENT
    requests = _requests(nyt_ctx, total_requests)

    # Baseline: the sequential single-request path (encode + batch-of-one
    # forward per call), exactly what a caller without the daemon would do.
    shard = requests[:total_requests // 2]
    sequential_seconds = _best_seconds(
        lambda: [service.predict(request) for request in shard]
    ) * (total_requests / len(shard))
    sequential_rate = total_requests / sequential_seconds

    # Daemon: NUM_CLIENTS closed-loop clients, each blocking on its answer
    # before issuing the next request, so batches form from genuine
    # concurrency rather than a pre-staged bulk submit.
    config = DaemonConfig(
        max_batch_size=NUM_CLIENTS,
        max_wait_ms=5.0,
        queue_limit=4 * NUM_CLIENTS,
        num_workers=1,
    )

    def closed_loop(daemon):
        def client(shard):
            for request in shard:
                daemon.predict(request, timeout=60.0)

        threads = [
            threading.Thread(target=client, args=(requests[k::NUM_CLIENTS],))
            for k in range(NUM_CLIENTS)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start

    daemon_seconds = float("inf")
    with ServingDaemon(service, config=config) as daemon:
        # Parity spot-check before timing: the daemon must answer like the
        # direct path (float64 round-off; see docs/daemon.md).
        sample = requests[0]
        np.testing.assert_allclose(
            daemon.predict(sample, timeout=60.0).probabilities,
            service.predict(sample).probabilities,
            atol=1e-12,
        )
        for _ in range(TIMING_REPEATS):
            daemon_seconds = min(daemon_seconds, closed_loop(daemon))
        stats = daemon.stats()

    daemon_rate = total_requests / daemon_seconds
    speedup = sequential_seconds / daemon_seconds
    occupancy = stats["batch_occupancy"]
    latency = stats["latency_seconds"]

    # Same closed-loop load against a float32 daemon: answers must agree
    # with the float64 daemon to 1e-5 / identical top-1, and the recorded
    # rate shows what float32 buys under concurrency.
    fast_service = PredictionService.from_context(
        nyt_ctx, method.model, dtype="float32"
    )
    fast_seconds = float("inf")
    with ServingDaemon(fast_service, config=config) as fast_daemon:
        fast_result = fast_daemon.predict(requests[0], timeout=60.0)
        reference_result = service.predict(requests[0])
        np.testing.assert_allclose(
            fast_result.probabilities, reference_result.probabilities, atol=1e-5
        )
        assert (
            fast_result.top.relation_id == reference_result.top.relation_id
        )
        assert fast_daemon.stats()["dtype"] == "float32"
        for _ in range(TIMING_REPEATS):
            fast_seconds = min(fast_seconds, closed_loop(fast_daemon))
    fast_rate = total_requests / fast_seconds

    report = format_table(
        ["path", "requests/sec", "seconds/pass", "speedup"],
        [
            ["sequential predict()", sequential_rate, sequential_seconds, 1.0],
            [
                f"daemon ({NUM_CLIENTS} closed-loop clients)",
                daemon_rate,
                daemon_seconds,
                speedup,
            ],
            [
                f"daemon, float32 ({NUM_CLIENTS} clients)",
                fast_rate,
                fast_seconds,
                sequential_seconds / fast_seconds,
            ],
        ],
        title=f"Online daemon throughput, {total_requests} requests of "
        f"{nyt_ctx.dataset_name} (max_batch_size={config.max_batch_size}, "
        f"max_wait_ms={config.max_wait_ms:g}, workers={config.num_workers}, "
        f"cpus={os.cpu_count()})",
    ) + "\n" + format_table(
        ["metric", "value"],
        [
            ["batches dispatched", occupancy["batches"]],
            ["mean batch occupancy", occupancy["mean"]],
            ["max batch occupancy", occupancy["max"]],
            ["p50 latency (ms)", latency["p50"] * 1e3],
            ["p95 latency (ms)", latency["p95"] * 1e3],
            ["p99 latency (ms)", latency["p99"] * 1e3],
        ],
        title="Coalescing + latency under load (last timing pass included)",
    )
    write_report("serve_daemon", report)

    # The speedup must come from coalescing, not noise: batches genuinely
    # held more than one request on average...
    assert occupancy["mean"] > 1.0, (
        f"daemon never coalesced (mean occupancy {occupancy['mean']:.2f}); "
        "micro-batching is not engaging"
    )
    # ... and the daemon at least matches the single-request path.
    assert daemon_rate >= sequential_rate, (
        f"daemon throughput {daemon_rate:.0f} req/s fell below the "
        f"sequential path's {sequential_rate:.0f} req/s"
    )
