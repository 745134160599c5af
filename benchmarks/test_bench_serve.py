"""Benchmarks for the batch inference subsystem (:mod:`repro.serve`).

Three claims are measured:

1. **Batched serving throughput** — the :class:`PredictionService` merges
   request bags into padded batches and runs one vectorized forward pass per
   chunk; on the synthetic NYT bundle this must reach at least 5x the
   throughput (bags/second) of the naive per-bag prediction loop.
2. **Artifact reuse** — preparing a second experiment context against a warm
   :class:`ArtifactCache` must hit the cache for all four expensive artifacts
   (proximity graph, LINE embeddings, encoded train/test corpora) instead of
   recomputing them.
3. **Checkpoint cold start** — ``PredictionService.from_checkpoint`` must
   rebuild the exact training-time service (bit-equal predictions) from a
   saved checkpoint directory, and the save/load/first-batch timings are
   recorded in ``latest/serve_cold_start.txt``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.experiments.pipeline import prepare_context, train_and_evaluate
from repro.serve import PredictionService
from repro.utils.artifacts import ArtifactCache
from repro.utils.tables import format_table

from conftest import SEED, write_report

MIN_SPEEDUP = 5.0
TIMING_REPEATS = 7


def _best_seconds(fn, repeats: int = TIMING_REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_serve_batched_vs_per_bag_throughput(benchmark, nyt_ctx):
    method, _ = train_and_evaluate(nyt_ctx, "pa_tmr")
    model = method.model
    # A serving-sized workload: every bag of the bundle, tiled.  Materialised
    # as per-bag objects because the per-bag loop below consumes them; the
    # batched path accepts the same list.
    workload = (
        nyt_ctx.train_encoded.to_encoded_bags()
        + nyt_ctx.test_encoded.to_encoded_bags()
    ) * 4
    service = PredictionService.from_context(nyt_ctx, model)

    # Identical answers first — speed without parity would be meaningless.
    sample = workload[: min(64, len(workload))]
    per_bag_sample = np.stack([model.predict_probabilities(bag) for bag in sample])
    np.testing.assert_allclose(service.predict_encoded(sample), per_bag_sample, atol=1e-10)

    per_bag_seconds = _best_seconds(
        lambda: [model.predict_probabilities(bag) for bag in workload]
    )
    batched_seconds = _best_seconds(lambda: service.predict_encoded(workload))

    num_bags = len(workload)
    per_bag_rate = num_bags / per_bag_seconds
    batched_rate = num_bags / batched_seconds
    speedup = per_bag_seconds / batched_seconds

    # A float32 service against the same workload: parity to 1e-5 with
    # identical top-1 labels first, then throughput.  The float32 path must
    # never lose to the float64 path; its speedup comes from sgemm and half
    # the memory traffic.
    fast_service = PredictionService.from_context(nyt_ctx, model, dtype="float32")
    reference_sample = service.predict_encoded(sample)
    fast_sample = fast_service.predict_encoded(sample)
    np.testing.assert_allclose(fast_sample, reference_sample, atol=1e-5)
    assert np.array_equal(
        fast_sample.argmax(axis=1), reference_sample.argmax(axis=1)
    )
    fast_seconds = _best_seconds(lambda: fast_service.predict_encoded(workload))
    fast_rate = num_bags / fast_seconds
    fast_speedup = batched_seconds / fast_seconds

    report = format_table(
        ["path", "bags/sec", "seconds/pass", "speedup"],
        [
            ["per-bag loop", per_bag_rate, per_bag_seconds, 1.0],
            ["PredictionService (batched, float64)", batched_rate, batched_seconds, speedup],
            [
                "PredictionService (batched, float32)",
                fast_rate,
                fast_seconds,
                per_bag_seconds / fast_seconds,
            ],
        ],
        title=f"Serving throughput, {num_bags} bags of {nyt_ctx.dataset_name} "
        f"(batch_size={service.batch_size}, cpus={os.cpu_count()}); "
        f"float32/float64 = {fast_speedup:.2f}x",
    )
    write_report("serve_throughput", report)

    assert speedup >= MIN_SPEEDUP, (
        f"batched serving reached only {speedup:.1f}x the per-bag loop "
        f"({batched_rate:.0f} vs {per_bag_rate:.0f} bags/s); required {MIN_SPEEDUP}x"
    )
    assert fast_seconds <= batched_seconds, (
        f"float32 serving was slower than float64: {fast_rate:.0f} vs "
        f"{batched_rate:.0f} bags/s"
    )

    # Timed kernel for the benchmark harness: one batched pass.
    benchmark(service.predict_encoded, workload)


def test_serve_artifact_cache_reuse(bench_profile, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("artifact-cache")

    cold = ArtifactCache(cache_dir)
    cold_start = time.perf_counter()
    first = prepare_context("nyt", profile=bench_profile, seed=SEED, cache=cold)
    cold_seconds = time.perf_counter() - cold_start
    assert cold.stats.hits == 0 and cold.stats.misses == 4

    warm = ArtifactCache(cache_dir)
    warm_start = time.perf_counter()
    second = prepare_context("nyt", profile=bench_profile, seed=SEED, cache=warm)
    warm_seconds = time.perf_counter() - warm_start
    # The second run reuses every expensive artifact instead of retraining.
    assert warm.stats.hits == 4 and warm.stats.misses == 0

    np.testing.assert_allclose(
        first.entity_embeddings.vectors, second.entity_embeddings.vectors
    )
    assert first.proximity_graph.num_edges == second.proximity_graph.num_edges

    report = format_table(
        ["run", "seconds", "cache hits", "cache misses"],
        [
            ["cold (build + persist)", cold_seconds, cold.stats.hits, cold.stats.misses],
            ["warm (cache reuse)", warm_seconds, warm.stats.hits, warm.stats.misses],
        ],
        title=f"prepare_context('nyt', profile={bench_profile.name}) artifact reuse",
    )
    write_report("serve_artifact_cache", report)


def test_serve_checkpoint_cold_start(nyt_ctx, tmp_path_factory):
    """Train -> checkpoint -> fresh service; parity plus cold-start timings."""
    method, _ = train_and_evaluate(nyt_ctx, "pa_tmr")
    model = method.model
    checkpoint_dir = tmp_path_factory.mktemp("checkpoint") / "pa_tmr"

    save_start = time.perf_counter()
    model.save(
        checkpoint_dir,
        encoder=nyt_ctx.bag_encoder,
        schema=nyt_ctx.bundle.schema,
        kb=nyt_ctx.bundle.kb,
    )
    save_seconds = time.perf_counter() - save_start

    load_start = time.perf_counter()
    cold_service = PredictionService.from_checkpoint(checkpoint_dir)
    load_seconds = time.perf_counter() - load_start

    workload = nyt_ctx.test_encoded
    first_batch_start = time.perf_counter()
    cold_probabilities = cold_service.predict_encoded(workload)
    first_batch_seconds = time.perf_counter() - first_batch_start

    # The resurrected service must be indistinguishable from the in-process
    # one: same encoder configuration, bit-equal predictions.
    warm_service = PredictionService.from_context(nyt_ctx, model)
    np.testing.assert_array_equal(
        cold_probabilities, warm_service.predict_encoded(workload)
    )

    total = save_seconds + load_seconds + first_batch_seconds
    report = format_table(
        ["stage", "seconds"],
        [
            ["save checkpoint (weights + encoder + schema/KB)", save_seconds],
            ["load checkpoint -> PredictionService", load_seconds],
            [f"first batch ({len(workload)} bags)", first_batch_seconds],
            ["total cold start", total],
        ],
        title=f"Checkpoint cold start, pa_tmr on {nyt_ctx.dataset_name} "
        f"(profile={nyt_ctx.profile.name})",
    )
    write_report("serve_cold_start", report)
