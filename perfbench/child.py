"""One benchmark process: build a fixture, or run one workload once.

``run.py`` starts this file in a fresh interpreter for every step, with
OpenBLAS pinned to one thread and ``src`` on the path:

    python3 perfbench/child.py fixture  --kind serve|ingest --out DIR
    python3 perfbench/child.py workload --workload NAME --seed N --seconds S
                                        --trace 0|1 --work DIR --fixture DIR
                                        --out FILE

A workload writes one JSON document to ``--out``: operation outcomes, the
end-to-end figures, run details (tail percentile and its sample count, every
set-up sample) and, when traced, the per-layer figures.  Only the public
``repro`` API is called; the traced run wraps functions at the attribute
their caller resolves (see ``benchlib.Tracer``) and restores them after.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import json
import math
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
from benchlib import Outcomes, Tracer  # noqa: E402

from repro import (  # noqa: E402
    ArtifactVersionStore,
    CorpusStore,
    DaemonConfig,
    EntityProximityGraph,
    HeldOutEvaluator,
    NeuralREModel,
    PredictionRequest,
    PredictionService,
    ScaleProfile,
    ServingDaemon,
    StreamIngestor,
    Trainer,
)
from repro.baselines.registry import build_method  # noqa: E402
from repro.batch import merging  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402
from repro.experiments import pipeline  # noqa: E402
from repro.experiments.pipeline import prepare_context  # noqa: E402
from repro.ingest.stream import synthetic_delta_bags  # noqa: E402

#: Dataset seed of every workload's corpus; the workload seed drives the
#: shuffle, the request order, the model initialisation and the ingest
#: deltas, so every seed runs the same amount of work.
DATASET_SEED = 0
#: Seed of the model trained once into the serve and ingest fixtures.
FIXTURE_MODEL_SEED = 0
#: Epochs behind every PR AUC figure (train loop snapshot, fixture models).
QUALITY_EPOCHS = 9

SETUP_REPEATS = {"train": 5, "serve-offline": 15, "serve-online": 15, "ingest": 5}
WARMUP_OPERATIONS = 5

#: Tail = (blocks, planned samples per block, samples that must lie beyond
#: the percentile within a block), planned for a 20 s run.  The run's
#: latencies are cut into consecutive blocks, each block's tail percentile
#: is taken, and the median over blocks is reported (``benchlib.block_tail``):
#: on a shared VM a host slow spell of a few seconds stretches the tail of
#: a whole run, but only of the blocks it covers.  Online asks for 20 beyond
#: per block because one 10-20 ms host stall delays 5-10 consecutive
#: requests at 500 req/s.  Offline asks for 50 beyond per block (p90): a
#: 128-request call's latency above p95 is host noise, not work (p90 sat
#: at 1.11-1.23x p50 in every run, while p98 moved 18-34% between runs on
#: a busy host).  Ingest rounds grow with the corpus, so ingest uses one
#: block.
TRAIN_TAIL = (5, 500, 10)
OFFLINE_CHUNK = 128
OFFLINE_TAIL = (4, 550, 50)
ONLINE_TAIL_BEYOND = 20
ONLINE_RATE = 500.0
ONLINE_WARMUP_REQUESTS = 100
INGEST_ROUNDS = 100
INGEST_TAIL = (1, INGEST_ROUNDS, 20)
INGEST_BAGS_PER_ROUND = 64
INGEST_PROPAGATION_LAYERS = 2

NS = 1e-9


def medium_profile(propagation_layers: int = 0) -> ScaleProfile:
    return dataclasses.replace(ScaleProfile.medium(), propagation_layers=propagation_layers)


def build_pa_tmr(ctx, seed: int):
    return build_method(
        "pa_tmr",
        vocab_size=ctx.vocab_size,
        num_relations=ctx.num_relations,
        model_config=ctx.model_config,
        training_config=ctx.training_config,
        kb=ctx.bundle.kb,
        entity_embeddings=ctx.entity_embeddings,
        seed=seed,
    ).model


def batches_of(order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        yield order[start:start + size]


def ms(seconds: float) -> float:
    return seconds * 1e3


def timing_summary(latencies_s: List[float], tail) -> Dict[str, float]:
    """Median and block tail (``tail = (blocks, planned samples per block,
    samples beyond)``) with their sample accounting, in ms."""
    blocks, planned, beyond = tail
    p = benchlib.tail_percentile(planned, beyond)
    value, per_block = benchlib.block_tail(latencies_s, p, blocks)
    return {
        "latency_p50_ms": ms(statistics.median(latencies_s)),
        "latency_tail_ms": ms(value),
        "tail_percentile": p,
        "tail_blocks_ms": [ms(v) for v in per_block],
        "samples": len(latencies_s),
        "samples_beyond_tail_per_block": benchlib.beyond_count(len(latencies_s) // blocks, p),
        "profile_ms": {
            f"p{q:g}": ms(benchlib.percentile(latencies_s, q))
            for q in (90, 95, 98, 99, 99.5, 99.8, 100)
        },
    }


def per_op_ms(summary, name: str, operations: int, key: str = "total_ns") -> float:
    entry = summary.get(name)
    return entry[key] * NS * 1e3 / operations if entry else 0.0


# --------------------------------------------------------------------------- #
# Fixtures (built in their own process, untimed)
# --------------------------------------------------------------------------- #
def train_epochs(model, ctx, epochs: int, seed: int) -> None:
    trainer = Trainer(model, ctx.num_relations, ctx.training_config)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for indices in batches_of(rng.permutation(len(ctx.train_encoded)), 32):
            trainer.train_batch(merging.merge_store_batch(ctx.train_encoded, indices))
    model.eval()


def raw_request(bag) -> Dict[str, object]:
    return {
        "head": bag.head_name,
        "tail": bag.tail_name,
        "sentences": [
            [list(s.tokens), int(s.head_position), int(s.tail_position)] for s in bag.sentences
        ],
    }


def build_fixture(kind: str, out: Path) -> None:
    """A trained PA-TMR checkpoint; for ``serve`` also the request pool and
    the encoded held-out split."""
    layers = INGEST_PROPAGATION_LAYERS if kind == "ingest" else 0
    ctx = prepare_context("nyt", profile=medium_profile(layers), seed=DATASET_SEED)
    model = build_pa_tmr(ctx, FIXTURE_MODEL_SEED)
    train_epochs(model, ctx, QUALITY_EPOCHS, FIXTURE_MODEL_SEED)
    model.save(
        out / "checkpoint",
        encoder=ctx.bag_encoder,
        schema=ctx.bundle.schema,
        kb=ctx.bundle.kb,
    )
    if kind == "serve":
        bags = list(ctx.bundle.train.bags) + list(ctx.bundle.test.bags)
        with open(out / "requests.json", "w", encoding="utf-8") as handle:
            json.dump([raw_request(bag) for bag in bags], handle)
        ctx.test_encoded.save(out / "test_store.npz")


def load_requests(path: Path) -> List[PredictionRequest]:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    return [
        PredictionRequest(
            head=item["head"],
            tail=item["tail"],
            sentences=[(tokens, head, tail) for tokens, head, tail in item["sentences"]],
        )
        for item in raw
    ]


# --------------------------------------------------------------------------- #
# Set-up tracing (train and ingest)
# --------------------------------------------------------------------------- #
SETUP_LAYERS = ("corpus.dataset", "graph.build", "graph.line", "graph.propagate", "corpus.encode")


def wrap_setup(tracer: Tracer) -> None:
    from repro.corpus.loader import BagEncoder
    from repro.graph.line import LineEmbeddingTrainer
    import repro.ingest.stream as stream

    tracer.wrap(pipeline.DATASET_BUILDERS, "nyt", "corpus.dataset")
    tracer.wrap(EntityProximityGraph, "from_pair_arrays", "graph.build")
    tracer.wrap(LineEmbeddingTrainer, "train", "graph.line")
    tracer.wrap(pipeline, "propagate_embeddings", "graph.propagate")
    tracer.wrap(stream, "propagate_embeddings", "graph.propagate")
    tracer.wrap(BagEncoder, "encode_store", "corpus.encode")


def setup_layer_metrics(tracer: Optional[Tracer], setups: int) -> Dict[str, float]:
    if tracer is None:
        return {}
    summary = benchlib.span_summary(tracer.spans)
    return {
        f"{name}_s": summary[name]["total_ns"] * NS / setups if name in summary else 0.0
        for name in SETUP_LAYERS
    }


def timed_setups(count: int, build, tracer: Optional[Tracer], teardown=None):
    """Run ``build`` ``count`` times; returns (last result, seconds per run).

    ``teardown`` runs untimed on each result but the last before the next
    build, so only one set-up's objects are ever resident.
    """
    samples, result = [], None
    for _ in range(count):
        if result is not None and teardown is not None:
            teardown(result)
        result = None  # let the previous set-up's objects go before the next
        gc.collect()
        start = time.perf_counter()
        index = tracer.begin("setup") if tracer else None
        result = build()
        if tracer:
            tracer.end(index)
        samples.append(time.perf_counter() - start)
    return result, samples


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
def run_train(args, out: Outcomes, tracer: Optional[Tracer]) -> Dict[str, object]:
    if tracer:
        wrap_setup(tracer)

    def setup():
        ctx = prepare_context("nyt", profile=medium_profile(), seed=DATASET_SEED)
        return ctx, build_pa_tmr(ctx, args.seed)

    (ctx, model), setup_samples = timed_setups(SETUP_REPEATS["train"], setup, tracer)
    layers = setup_layer_metrics(tracer, len(setup_samples))
    store = ctx.train_encoded
    trainer = Trainer(model, ctx.num_relations, ctx.training_config)
    rng = np.random.default_rng(args.seed)

    if tracer:
        import importlib

        from repro.nn.tensor import Tensor

        functional = importlib.import_module("repro.nn.functional")
        optim = importlib.import_module("repro.nn.optim")
        trainer_module = importlib.import_module("repro.training.trainer")

        tracer.unwrap_all()
        tracer.spans.clear()
        tracer.wrap(merging, "merge_store_batch", "batch.merge")
        tracer.wrap(trainer_module, "batched_train_logits", "batch.train_forward")
        tracer.wrap(functional, "cross_entropy", "nn.loss")
        tracer.wrap(Tensor, "backward", "nn.backward")
        tracer.wrap(optim.Optimizer, "zero_grad", "nn.optim")
        tracer.wrap(optim.Optimizer, "clip_grad_norm", "nn.optim")
        tracer.wrap(optim.Adam, "step", "nn.optim")
        tracer.wrap(optim.SGD, "step", "nn.optim")

    latencies: List[float] = []
    bags = 0
    real_slots = padded_slots = 0
    snapshot = None
    timed = 0.0
    epoch = 0
    done = False
    with benchlib.GcWatch() as collections:
        while not done:
            epoch += 1
            for indices in batches_of(rng.permutation(len(store)), ctx.training_config.batch_size):
                start = time.perf_counter()
                index = tracer.begin("training.step") if tracer else None
                batch = merging.merge_store_batch(store, indices)
                loss = trainer.train_batch(batch)
                if tracer:
                    tracer.end(index)
                elapsed = time.perf_counter() - start
                out.record(math.isfinite(loss), f"non-finite loss {loss}")
                if out.attempted <= WARMUP_OPERATIONS:
                    continue
                latencies.append(elapsed)
                timed += elapsed
                bags += len(indices)
                if tracer:
                    mask = batch.merged.mask
                    real_slots += int(mask.sum())
                    padded_slots += mask.size
                if snapshot is not None and timed >= args.seconds:
                    done = True
                    break
            if epoch == QUALITY_EPOCHS:
                # The PR AUC model: exactly QUALITY_EPOCHS epochs, however fast.
                snapshot = copy.deepcopy(model)
                done = timed >= args.seconds
    if tracer:
        tracer.unwrap_all()

    # Outside the timed region: the batched loss against the per-bag spec.
    sample = np.random.default_rng(args.seed + 1).choice(len(store), size=32, replace=False)
    batched = Trainer(copy.deepcopy(model), ctx.num_relations, ctx.training_config)
    per_bag = Trainer(
        copy.deepcopy(model),
        ctx.num_relations,
        dataclasses.replace(ctx.training_config, batched_training=False),
    )
    loss_batched = batched.train_batch(merging.merge_store_batch(store, sample))
    loss_spec = per_bag.train_batch([store.bag(int(i)) for i in sample])
    out.check(
        "train_loss_matches_per_bag_spec",
        abs(loss_batched - loss_spec) <= 1e-9,
        f"{loss_batched!r} vs {loss_spec!r}",
    )
    snapshot.eval()
    pr_auc = ctx.evaluator.evaluate(snapshot.predict_probabilities).auc

    timing = timing_summary(latencies, TRAIN_TAIL)
    result = {
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "bags_per_s": bags / timed,
            "pr_auc": pr_auc,
            "latency_p50_ms": timing["latency_p50_ms"],
            "latency_tail_ms": timing["latency_tail_ms"],
        },
        "details": {
            **timing,
            "setup_samples_s": setup_samples,
            "epochs": epoch,
            "quality_epochs": QUALITY_EPOCHS,
            "train_bags": len(store),
            "batch_size": ctx.training_config.batch_size,
            "gc": collections.as_dict(),
        },
    }
    if tracer:
        summary = benchlib.span_summary(tracer.spans)
        steps = summary["training.step"]["count"]
        layers.update({
            "batch.merge_ms": per_op_ms(summary, "batch.merge", steps),
            "batch.train_forward_ms": per_op_ms(summary, "batch.train_forward", steps),
            "nn.loss_ms": per_op_ms(summary, "nn.loss", steps),
            "nn.backward_ms": per_op_ms(summary, "nn.backward", steps),
            "nn.optim_ms": per_op_ms(summary, "nn.optim", steps),
            "training.self_ms": per_op_ms(summary, "training.step", steps, "self_ns"),
            "training.step_ms": per_op_ms(summary, "training.step", steps),
            "batch.pad_efficiency": real_slots / padded_slots,
        })
        result["trace"] = summary
    result["layers"] = layers
    return result


def serve_pr_auc(service: PredictionService, fixture: Path) -> float:
    test_store = CorpusStore.load(fixture / "test_store.npz")
    evaluator = HeldOutEvaluator(test_store, service.model.num_relations)
    return evaluator.evaluate(lambda bag: service.predict_encoded([bag])[0]).auc


def run_serve_offline(args, out: Outcomes, tracer: Optional[Tracer]) -> Dict[str, object]:
    fixture = Path(args.fixture)
    service, setup_samples = timed_setups(
        SETUP_REPEATS["serve-offline"],
        lambda: PredictionService.from_checkpoint(fixture / "checkpoint"),
        None,
    )
    # Cold starts are timed before the pool exists: a big heap slows them.
    # The pool is the load generator's data, so it is frozen out of the GC.
    pool = load_requests(fixture / "requests.json")
    gc.freeze()
    rng = np.random.default_rng(args.seed)

    def chunks():
        while True:
            order = rng.permutation(len(pool))
            for start in range(0, len(order) - OFFLINE_CHUNK + 1, OFFLINE_CHUNK):
                yield [pool[int(i)] for i in order[start:start + OFFLINE_CHUNK]]

    if tracer:
        import repro.serve.service as service_module

        tracer.wrap(PredictionService, "encode_request", "serve.encode")
        tracer.wrap(service_module, "batched_predict_probabilities", "batch.infer_forward")
        tracer.wrap(PredictionService, "build_result", "serve.result")

    latencies: List[float] = []
    sampled = []
    rows_ok = True
    bags = 0
    timed = 0.0
    source = chunks()
    give_up = time.perf_counter() + 3 * args.seconds  # if every call raises
    with benchlib.GcWatch() as collections:
        while timed < args.seconds and time.perf_counter() < give_up:
            chunk = next(source)
            start = time.perf_counter()
            index = tracer.begin("serve.call") if tracer else None
            try:
                results = service.predict_batch(chunk)
            except ReproError as error:
                results, failure = None, repr(error)
            if tracer:
                tracer.end(index)
            elapsed = time.perf_counter() - start
            if results is None:
                out.record(False, failure)
                continue
            rows = np.stack([result.probabilities for result in results])
            ok = len(results) == len(chunk) and bool(
                np.all(np.isfinite(rows)) and np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
            )
            out.record(ok, "non-finite or unnormalised rows")
            rows_ok &= ok
            if out.attempted <= WARMUP_OPERATIONS:
                continue
            latencies.append(elapsed)
            timed += elapsed
            bags += len(chunk)
            if len(latencies) % 25 == 1:
                sampled.append((chunk[0], results[0].probabilities))
    if tracer:
        tracer.unwrap_all()

    worst = max(
        float(np.max(np.abs(
            service.model.predict_probabilities(service.encode_request(request)) - row
        )))
        for request, row in sampled
    )
    out.check("offline_rows_match_per_bag", worst <= 1e-10, f"max diff {worst:.3g}")
    out.check("offline_rows_finite_and_sum_to_one", rows_ok)
    timing = timing_summary(latencies, OFFLINE_TAIL)
    result = {
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "bags_per_s": bags / timed,
            "pr_auc": serve_pr_auc(service, fixture),
            "latency_p50_ms": timing["latency_p50_ms"],
            "latency_tail_ms": timing["latency_tail_ms"],
        },
        "details": {
            **timing,
            "setup_samples_s": setup_samples,
            "chunk": OFFLINE_CHUNK,
            "pool": len(pool),
            "sampled_rows_checked": len(sampled),
            "gc": collections.as_dict(),
        },
        "layers": {},
    }
    if tracer:
        summary = benchlib.span_summary(tracer.spans)
        calls = summary["serve.call"]["count"]
        result["layers"] = {
            "serve.encode_ms": per_op_ms(summary, "serve.encode", calls),
            "batch.infer_forward_ms": per_op_ms(summary, "batch.infer_forward", calls),
            "serve.result_ms": per_op_ms(summary, "serve.result", calls),
            "serve.self_ms": per_op_ms(summary, "serve.call", calls, "self_ns"),
            "serve.call_ms": per_op_ms(summary, "serve.call", calls),
        }
        result["trace"] = summary
    return result


class DaemonProbe:
    """Per-request queue wait, batch compute and future resolution, measured
    through the daemon's public ``batch_runner=`` seam and an encode wrapper."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.encoded_at: Dict[int, float] = {}
        self.batch_end: Dict[int, float] = {}
        self.queue_wait: List[float] = []
        self.compute: List[float] = []
        self.resolve: List[float] = []
        self.last_bag = threading.local()
        self._lock = threading.Lock()

    def wrap_encode(self) -> None:
        encode = PredictionService.encode_request
        probe = self

        def encode_request(service, request):
            index = probe.tracer.begin("serve.encode")
            try:
                bag = encode(service, request)
            finally:
                probe.tracer.end(index)
            probe.encoded_at[id(bag)] = time.perf_counter()
            probe.last_bag.value = bag
            return bag

        self.tracer.patch(PredictionService, "encode_request", encode_request)

    def runner(self, service: PredictionService, bags) -> np.ndarray:
        """Runs a coalesced batch exactly as the daemon's default runner does."""
        start = time.perf_counter()
        index = self.tracer.begin("daemon.compute")
        try:
            probabilities = service.predict_encoded(bags)
        finally:
            self.tracer.end(index)
        end = time.perf_counter()
        with self._lock:
            self.compute.append(end - start)
            for bag in bags:
                self.queue_wait.append(start - self.encoded_at[id(bag)])
                self.batch_end[id(bag)] = end
        return probabilities

    def resolved(self, bag, when: float) -> None:
        with self._lock:
            self.resolve.append(when - self.batch_end[id(bag)])


def run_serve_online(args, out: Outcomes, tracer: Optional[Tracer]) -> Dict[str, object]:
    fixture = Path(args.fixture)
    probe = DaemonProbe(tracer) if tracer else None
    config = DaemonConfig()

    def setup():
        service = PredictionService.from_checkpoint(fixture / "checkpoint")
        return ServingDaemon(
            service, config, batch_runner=probe.runner if probe else None
        ).start()

    daemon, setup_samples = timed_setups(
        SETUP_REPEATS["serve-online"], setup, None, teardown=lambda spare: spare.close()
    )
    pool = load_requests(fixture / "requests.json")
    gc.freeze()
    if probe:
        probe.wrap_encode()

    rng = np.random.default_rng(args.seed)
    count = int(round(ONLINE_RATE * args.seconds))
    order = rng.integers(0, len(pool), size=ONLINE_WARMUP_REQUESTS + count)

    def drive(offset: int, n: int):
        """Open loop over ``n`` pool requests; keeps only every 50th future
        (for the answer check) so the harness's own heap stays flat."""
        due = [0.0] * n
        done: List[Optional[float]] = [None] * n
        raised = [False] * n
        submitted = [False] * n
        kept = {}

        def send(i: int, due_at: float) -> None:
            due[i] = due_at
            try:
                future = daemon.submit(pool[int(order[offset + i])])
            except ReproError:
                return
            submitted[i] = True
            bag = probe.last_bag.value if probe else None
            if i % 50 == 0:
                kept[i] = future

            def finished(future, i=i):
                now = time.perf_counter()
                raised[i] = future.exception() is not None
                done[i] = now
                if probe:
                    probe.resolved(bag, now)

            future.add_done_callback(finished)

        start, lateness = benchlib.open_loop(send, n, ONLINE_RATE)
        return start, due, done, raised, submitted, kept, lateness

    drive(0, ONLINE_WARMUP_REQUESTS)
    while daemon.stats()["queue"]["pending"]:
        time.sleep(0.01)
    if probe:
        probe.queue_wait.clear()
        probe.compute.clear()
        probe.resolve.clear()
        tracer.spans.clear()
    before = daemon.stats()
    with benchlib.GcWatch() as collections:
        start, due, done, raised, submitted, kept, lateness = drive(
            ONLINE_WARMUP_REQUESTS, count
        )
        # Closing drains: every accepted request is answered before it returns.
        daemon.close()
    after = daemon.stats()
    finished_at = max((t for t in done if t is not None), default=time.perf_counter())
    if tracer:
        tracer.unwrap_all()

    for i in range(count):
        if not submitted[i]:
            out.record(False, "rejected")
        elif done[i] is None or raised[i]:
            out.record(False, "unresolved or raised")
        else:
            out.record(True)
    out.check(
        "online_every_future_resolved",
        all(done[i] is not None for i in range(count) if submitted[i]),
    )

    # Outside the timed region: daemon answers against direct predict().
    service = daemon.service
    worst = 0.0
    for i, future in kept.items():
        if raised[i] or done[i] is None:
            continue
        direct = service.predict(pool[int(order[ONLINE_WARMUP_REQUESTS + i])])
        worst = max(worst, float(np.max(np.abs(direct.probabilities - future.result().probabilities))))
    out.check("online_answers_match_direct_predict", worst <= 1e-12, f"max diff {worst:.3g}")

    latencies = benchlib.latencies_from_due(due, done)
    answered = len(latencies)
    occupancy = after["batch_occupancy"]
    timing = timing_summary(latencies, (5, count // 5, ONLINE_TAIL_BEYOND))
    result = {
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "bags_per_s": answered / (finished_at - start),
            "pr_auc": serve_pr_auc(service, fixture),
            "latency_p50_ms": timing["latency_p50_ms"],
            "latency_tail_ms": timing["latency_tail_ms"],
        },
        "details": {
            **timing,
            "setup_samples_s": setup_samples,
            "rate_per_s": ONLINE_RATE,
            "requests": count,
            "daemon": {
                "max_batch_size": config.max_batch_size,
                "max_wait_ms": config.max_wait_ms,
                "workers": config.num_workers,
            },
            "loadgen_late_p99_ms": ms(benchlib.percentile(lateness, 99.0)),
            "loadgen_late_max_ms": ms(max(lateness)),
            "answers_checked": len(kept),
            "gc": collections.as_dict(),
        },
        "layers": {},
    }
    if tracer:
        batches = after["batches"]["dispatched"] - before["batches"]["dispatched"]
        requests = after["requests"]["completed"] - before["requests"]["completed"]
        summary = benchlib.span_summary(tracer.spans)
        result["layers"] = {
            "daemon.queue_wait_p50_ms": ms(statistics.median(probe.queue_wait)),
            "daemon.queue_wait_p99_ms": ms(benchlib.percentile(probe.queue_wait, 99.0)),
            "daemon.compute_p50_ms": ms(statistics.median(probe.compute)),
            "daemon.compute_p99_ms": ms(benchlib.percentile(probe.compute, 99.0)),
            "daemon.resolve_ms": ms(statistics.median(probe.resolve)),
            "serve.encode_ms": per_op_ms(summary, "serve.encode", count),
            "daemon.occupancy_mean": requests / batches if batches else 0.0,
            "daemon.batches": float(batches),
            "daemon.rejected": float(after["requests"]["rejected"]),
            "loadgen.late_p99_ms": result["details"]["loadgen_late_p99_ms"],
            "loadgen.late_max_ms": result["details"]["loadgen_late_max_ms"],
        }
        result["details"]["occupancy_lifetime_mean"] = occupancy["mean"]
        result["trace"] = summary
    return result


def union_rebuild(ctx, delta_pairs) -> EntityProximityGraph:
    heads, tails, counts = ctx.bundle.pair_arrays
    scratch = EntityProximityGraph(min_cooccurrence=ctx.proximity_graph.min_cooccurrence)
    scratch.add_pair_arrays(heads, tails, counts)
    scratch.add_pair_arrays(
        np.array([pair[0] for pair in delta_pairs]),
        np.array([pair[1] for pair in delta_pairs]),
        np.array([pair[2] for pair in delta_pairs], dtype=np.int64),
    )
    return scratch.finalize()


def directory_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / (1024 * 1024)


def run_ingest(args, out: Outcomes, tracer: Optional[Tracer]) -> Dict[str, object]:
    fixture = Path(args.fixture)
    work = Path(args.work)
    if tracer:
        wrap_setup(tracer)
    stores = []

    def setup():
        ctx = prepare_context(
            "nyt", profile=medium_profile(INGEST_PROPAGATION_LAYERS), seed=DATASET_SEED
        )
        model = NeuralREModel.load(fixture / "checkpoint")
        versions = ArtifactVersionStore(work / f"versions-{len(stores)}")
        stores.append(versions)
        ingestor = StreamIngestor.from_context(ctx, model=model, version_store=versions)
        return ctx, model, ingestor

    (ctx, model, ingestor), setup_samples = timed_setups(
        SETUP_REPEATS["ingest"], setup, tracer
    )
    layers = setup_layer_metrics(tracer, len(setup_samples))
    versions = stores[-1]
    kb, schema = ctx.bundle.kb, ctx.bundle.schema
    deltas = [
        synthetic_delta_bags(
            kb,
            INGEST_BAGS_PER_ROUND,
            schema.num_relations,
            vocabulary=ctx.bundle.vocabulary,
            seed=args.seed * 100_003 + round_index,
        )
        for round_index in range(INGEST_ROUNDS + WARMUP_OPERATIONS)
    ]

    if tracer:
        from repro.core.mutual_relation import MutualRelationHead
        from repro.corpus.loader import BagEncoder
        from repro.graph.alias import NeighborAliasTables
        from repro.graph.line import LineEmbeddingTrainer
        import repro.ingest.stream as stream

        tracer.unwrap_all()
        tracer.spans.clear()
        tracer.wrap(CorpusStore, "append_store", "corpus.append")
        tracer.wrap(BagEncoder, "encode_store", "corpus.encode")
        tracer.wrap(EntityProximityGraph, "refinalize", "graph.refinalize")
        tracer.wrap(LineEmbeddingTrainer, "warm_start", "graph.finetune")
        tracer.wrap(LineEmbeddingTrainer, "finetune", "graph.finetune")
        tracer.wrap(NeighborAliasTables, "refresh", "graph.alias_refresh")
        tracer.wrap(stream, "propagate_embeddings_incremental", "graph.propagate")
        tracer.wrap(stream, "build_entity_vector_table", "core.entity_table")
        tracer.wrap(MutualRelationHead, "refresh_entity_vectors", "core.entity_table")
        tracer.wrap(ArtifactVersionStore, "publish", "ingest.publish")
        tracer.wrap(ArtifactVersionStore, "prune", "ingest.prune")

    latencies: List[float] = []
    reports = []
    delta_pairs = []
    bags = 0
    timed = 0.0
    with benchlib.GcWatch() as collections:
        for round_index, delta in enumerate(deltas):
            delta_pairs.extend(
                (bag.head_name, bag.tail_name, max(1, bag.num_sentences)) for bag in delta
            )
            start = time.perf_counter()
            index = tracer.begin("ingest.round") if tracer else None
            try:
                report = ingestor.ingest(delta)
            except ReproError as error:
                report, failure = None, repr(error)
            if tracer:
                tracer.end(index)
            elapsed = time.perf_counter() - start
            out.record(report is not None, failure if report is None else "")
            if report is None:
                continue
            reports.append(report)
            if round_index < WARMUP_OPERATIONS:
                continue
            latencies.append(elapsed)
            timed += elapsed
            bags += report.num_bags
    if tracer:
        tracer.unwrap_all()

    # Outside the timed region: bit-equal CSR against a union rebuild, and
    # the last published version's integrity.
    rebuilt = union_rebuild(ctx, delta_pairs)
    live = ingestor.graph
    equal = live.vertices == rebuilt.vertices and all(
        a.dtype == b.dtype and np.array_equal(a, b)
        for a, b in zip(live.csr_arrays(), rebuilt.csr_arrays())
    )
    out.check("ingest_csr_equals_union_rebuild", equal)
    current = versions.current()
    try:
        versions.verify(current)
        verified = current.version == reports[-1].version
    except ReproError:
        verified = False
    out.check("ingest_last_version_verifies", verified)
    published_mb = directory_mb(current.path)
    pr_auc = ctx.evaluator.evaluate(model.predict_probabilities).auc

    timing = timing_summary(latencies, INGEST_TAIL)
    result = {
        "end_to_end": {
            "setup_s": statistics.median(setup_samples),
            "bags_per_s": bags / timed,
            "pr_auc": pr_auc,
            "latency_p50_ms": timing["latency_p50_ms"],
            "latency_tail_ms": timing["latency_tail_ms"],
        },
        "details": {
            **timing,
            "setup_samples_s": setup_samples,
            "rounds": len(latencies),
            "warmup_rounds": WARMUP_OPERATIONS,
            "bags_per_round": INGEST_BAGS_PER_ROUND,
            "final_corpus_bags": len(ingestor.store),
            "propagation_layers": ingestor.config.propagation_layers,
            "keep_versions": ingestor.config.keep_versions,
            "gc": collections.as_dict(),
        },
    }
    if tracer:
        summary = benchlib.span_summary(tracer.spans)
        rounds = summary["ingest.round"]["count"]
        timed_reports = reports[WARMUP_OPERATIONS:] or reports
        vertices = live.num_vertices
        layers.update({
            f"{name}_ms": per_op_ms(summary, name, rounds)
            for name in (
                "corpus.append", "corpus.encode", "graph.refinalize", "graph.finetune",
                "graph.alias_refresh", "graph.propagate", "core.entity_table",
                "ingest.publish", "ingest.prune",
            )
        })
        layers.update({
            "ingest.self_ms": per_op_ms(summary, "ingest.round", rounds, "self_ns"),
            "ingest.round_ms": per_op_ms(summary, "ingest.round", rounds),
            "graph.dirty_vertices": statistics.mean(r.num_dirty_vertices for r in timed_reports),
            "graph.propagated_rows": statistics.mean(r.num_propagated_rows for r in timed_reports),
            "graph.dirty_share": statistics.mean(
                r.num_dirty_vertices for r in timed_reports) / vertices,
            "ingest.published_mb": published_mb,
        })
        result["trace"] = summary
    result["details"]["published_mb"] = published_mb
    result["layers"] = layers
    return result


WORKLOADS = {
    "train": run_train,
    "serve-offline": run_serve_offline,
    "serve-online": run_serve_online,
    "ingest": run_ingest,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    fixture = sub.add_parser("fixture")
    fixture.add_argument("--kind", choices=("serve", "ingest"), required=True)
    fixture.add_argument("--out", required=True)
    workload = sub.add_parser("workload")
    workload.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    workload.add_argument("--seed", type=int, required=True)
    workload.add_argument("--seconds", type=float, required=True)
    workload.add_argument("--trace", type=int, choices=(0, 1), default=0)
    workload.add_argument("--work", required=True)
    workload.add_argument("--fixture", default="")
    workload.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.mode == "fixture":
        build_fixture(args.kind, Path(args.out))
        return 0

    outcomes = Outcomes()
    tracer = Tracer() if args.trace else None
    result = WORKLOADS[args.workload](args, outcomes, tracer)
    if tracer:
        consistent = benchlib.self_time_consistent(result["trace"])
        outcomes.check("trace_self_plus_children_equals_total", consistent)
    result["end_to_end"]["peak_rss_mb"] = benchlib.peak_rss_mb()
    result["end_to_end"]["success_rate"] = 1.0 - outcomes.error_rate
    result["details"]["error_rate"] = outcomes.error_rate
    result["outcomes"] = {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "correct": outcomes.correct,
        "checks": outcomes.checks,
        "failures": outcomes.failures,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
