"""Benchmark for the batched training engine (:mod:`repro.batch.forward`).

Two claims measured:

* Training the paper's main model (PA-TMR) with one vectorized
  forward/backward per padded mini-batch must reach at least 3x the
  per-epoch throughput (bags/second) of the legacy per-bag loop on the
  synthetic NYT bundle, while producing the same batch losses to float64
  round-off.
* Running the batched path at ``dtype="float32"`` (float32 graph, float64
  master weights) must not be slower than the float64 batched path and
  targets >= 1.3x its throughput; the measured ratio is recorded honestly
  alongside the machine's cpu count either way, and the float32 losses must
  match the float64 ones within the documented tolerance
  (``docs/architecture.md``).

Models are built fresh for every timed pass (training mutates parameters and
optimizer state), so the session-shared context fixtures are never mutated.

Memory note: the per-bag baseline materialises the whole store as
`EncodedBag` objects up front (see `Trainer.fit`); the batched paths slice
the columnar store per mini-batch.  The report footer's peak RSS is the pytest process's
*lifetime* high-water mark — run this file standalone for a figure
attributable to this benchmark alone.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

import numpy as np

from repro.baselines.registry import build_method
from repro.training.trainer import Trainer
from repro.utils.tables import format_table

from conftest import SEED, write_report

MIN_SPEEDUP = 3.0
# Target for float32 over the float64 batched path; the measured ratio is
# recorded either way, but a float32 path slower than float64 would be a
# regression.
TARGET_FAST_SPEEDUP = 1.3
MIN_FAST_SPEEDUP = 0.95
TIMING_REPEATS = 3


def _fresh_trainer(ctx, batched: bool, dtype: str = "float64") -> Trainer:
    """A newly initialised PA-TMR model wired into a one-epoch trainer."""
    config = replace(
        ctx.training_config,
        epochs=1,
        shuffle=False,
        batched_training=batched,
        dtype=dtype,
    )
    method = build_method(
        "pa_tmr",
        vocab_size=ctx.vocab_size,
        num_relations=ctx.num_relations,
        model_config=ctx.model_config,
        training_config=config,
        kb=ctx.bundle.kb,
        entity_embeddings=ctx.entity_embeddings,
        seed=SEED,
    )
    return Trainer(method.model, ctx.num_relations, config)


def _best_epoch_seconds(
    ctx,
    batched: bool,
    workload,
    dtype: str = "float64",
    repeats: int = TIMING_REPEATS,
) -> float:
    best = float("inf")
    for _ in range(repeats):
        trainer = _fresh_trainer(ctx, batched, dtype)  # fresh model: untimed
        start = time.perf_counter()
        trainer.fit(workload)
        best = min(best, time.perf_counter() - start)
    return best


def test_train_batched_vs_per_bag_throughput(benchmark, nyt_ctx):
    workload = nyt_ctx.train_encoded

    # Identical training first — speed without parity would be meaningless.
    per_bag_result = _fresh_trainer(nyt_ctx, batched=False).fit(workload)
    batched_result = _fresh_trainer(nyt_ctx, batched=True).fit(workload)
    np.testing.assert_allclose(
        batched_result.batch_losses, per_bag_result.batch_losses, rtol=0, atol=1e-9
    )
    # float32 trades bits for throughput: losses track float64 within the
    # parity contract's tolerance, not to round-off.
    fast_result = _fresh_trainer(nyt_ctx, batched=True, dtype="float32").fit(workload)
    np.testing.assert_allclose(
        fast_result.batch_losses, batched_result.batch_losses, rtol=0, atol=5e-3
    )

    per_bag_seconds = _best_epoch_seconds(nyt_ctx, batched=False, workload=workload)
    batched_seconds = _best_epoch_seconds(nyt_ctx, batched=True, workload=workload)
    fast_seconds = _best_epoch_seconds(
        nyt_ctx, batched=True, workload=workload, dtype="float32"
    )

    num_bags = len(workload)
    per_bag_rate = num_bags / per_bag_seconds
    batched_rate = num_bags / batched_seconds
    fast_rate = num_bags / fast_seconds
    speedup = per_bag_seconds / batched_seconds
    fast_speedup = batched_seconds / fast_seconds

    batch_size = nyt_ctx.training_config.batch_size
    report = format_table(
        ["path", "bags/sec", "seconds/epoch", "speedup"],
        [
            ["per-bag loop", per_bag_rate, per_bag_seconds, 1.0],
            ["batched forward/backward", batched_rate, batched_seconds, speedup],
            [
                "batched, float32",
                fast_rate,
                fast_seconds,
                per_bag_seconds / fast_seconds,
            ],
        ],
        title=f"Training throughput (PA-TMR), one epoch over {num_bags} bags of "
        f"{nyt_ctx.dataset_name} (batch_size={batch_size})",
    )
    report += (
        f"\nfloat32 vs float64 batched: {fast_speedup:.4f}x "
        f"(target >= {TARGET_FAST_SPEEDUP}x, cpus={os.cpu_count()})"
    )
    write_report("train_throughput", report)

    assert speedup >= MIN_SPEEDUP, (
        f"batched training reached only {speedup:.1f}x the per-bag loop "
        f"({batched_rate:.0f} vs {per_bag_rate:.0f} bags/s); required {MIN_SPEEDUP}x"
    )
    assert fast_speedup >= MIN_FAST_SPEEDUP, (
        f"float32 training reached only {fast_speedup:.2f}x the float64 "
        f"batched path ({fast_rate:.0f} vs {batched_rate:.0f} bags/s); it must "
        f"not regress below {MIN_FAST_SPEEDUP}x"
    )

    # Timed kernel for the benchmark harness: one batched training epoch
    # (model construction included — it is negligible next to the epoch).
    benchmark(lambda: _fresh_trainer(nyt_ctx, batched=True).fit(workload))
