"""Benchmark for the streaming ingest refresh path (:mod:`repro.ingest`).

The claim measured: absorbing a delta of distantly-supervised bags through
:class:`StreamIngestor.ingest` — corpus append, ``refinalize()`` CSR merge,
dirty-row alias refresh, warm-started LINE fine-tune and hop-closure-bounded
propagation — must cost less wall-clock than rebuilding the same state from
scratch over the union corpus (full graph finalize + full alias build + full
LINE training + full propagation), cumulatively across rounds.

Parity is asserted before timing is trusted: after every round the
incrementally maintained CSR is bit-equal to the from-scratch rebuild over
the union pair stream (the contract ``tests/test_ingest.py`` proves in
depth), so both columns of the report describe the *same* graph.

Every round also publishes its refreshed artifact set into a temporary
:class:`ArtifactVersionStore`, the cost a deployed ingest loop pays on top of
the refresh.  The report shows it in its own column
(``IngestReport.publish_seconds``); the incremental column and the speedup
gate exclude it, since the from-scratch side publishes nothing.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.config import ExperimentConfig
from repro.graph.alias import NeighborAliasTables
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.line import LineConfig, LineEmbeddingTrainer
from repro.graph.propagation import propagate_embeddings
from repro.graph.proximity import EntityProximityGraph
from repro.ingest import ArtifactVersionStore, StreamIngestor, synthetic_delta_bags
from repro.utils.tables import format_table

from conftest import SEED, write_report

ROUNDS = 4


def _line_config(graph_config, seed: int) -> LineConfig:
    return LineConfig(
        embedding_dim=graph_config.embedding_dim,
        negative_samples=graph_config.negative_samples,
        learning_rate=graph_config.learning_rate,
        epochs=graph_config.epochs,
        batch_edges=graph_config.batch_edges,
        seed=seed,
    )


def _full_rebuild_seconds(pairs, min_cooccurrence, line_config, layers, alpha):
    """Time the from-scratch path over the union pair stream; return (graph, s)."""
    start = time.perf_counter()
    graph = EntityProximityGraph(min_cooccurrence=min_cooccurrence)
    graph.add_pair_arrays(
        np.array([pair[0] for pair in pairs]),
        np.array([pair[1] for pair in pairs]),
        np.array([pair[2] for pair in pairs], dtype=np.int64),
    )
    graph.finalize()
    indptr, _, weights = graph.csr_arrays()
    NeighborAliasTables.from_csr(indptr, weights)
    trainer = LineEmbeddingTrainer(graph, config=line_config)
    trainer.train()
    if layers > 0:
        propagate_embeddings(
            graph,
            EntityEmbeddings(graph.vertices, trainer.embedding_matrix()),
            num_layers=layers,
            alpha=alpha,
        )
    return graph, time.perf_counter() - start


def test_stream_ingest_vs_full_rebuild(nyt_ctx, bench_profile, benchmark, tmp_path):
    bundle = nyt_ctx.bundle
    graph_config = ExperimentConfig.for_profile(bench_profile, seed=SEED).graph
    ingest_config = bench_profile.ingest_config()
    line_config = _line_config(graph_config, SEED)

    # A fresh pipeline copy: ingest refinalizes its graph in place and the
    # session-shared context must stay pristine for the other benchmarks.
    graph = EntityProximityGraph.from_pair_arrays(
        *bundle.pair_arrays, min_cooccurrence=graph_config.min_cooccurrence
    )
    trainer = LineEmbeddingTrainer(graph, config=line_config)
    trainer.train()
    ingestor = StreamIngestor(
        store=nyt_ctx.train_encoded,
        graph=graph,
        trainer=trainer,
        encoder=nyt_ctx.bag_encoder,
        kb=bundle.kb,
        schema=bundle.schema,
        # No pruning: the incremental column must time the refresh alone.
        config=dataclasses.replace(ingest_config, keep_versions=0),
        version_store=ArtifactVersionStore(tmp_path / "versions"),
    )

    heads, tails, counts = bundle.pair_arrays
    union_pairs = list(zip(heads, tails, counts))
    rows = []
    total_incremental = total_full = total_publish = 0.0
    for round_index in range(ROUNDS):
        bags = synthetic_delta_bags(
            bundle.kb,
            ingest_config.batch_bags,
            bundle.schema.num_relations,
            vocabulary=bundle.vocabulary,
            seed=SEED + 100 + round_index,
        )
        union_pairs.extend(
            (bag.head_name, bag.tail_name, max(1, bag.num_sentences)) for bag in bags
        )

        start = time.perf_counter()
        report = ingestor.ingest(bags)
        incremental = time.perf_counter() - start - report.publish_seconds

        scratch, full = _full_rebuild_seconds(
            union_pairs,
            graph_config.min_cooccurrence,
            line_config,
            ingest_config.propagation_layers,
            ingest_config.propagation_alpha,
        )
        # Parity before timing is trusted: both columns describe one graph.
        for ours, theirs in zip(ingestor.graph.csr_arrays(), scratch.csr_arrays()):
            np.testing.assert_array_equal(ours, theirs)

        total_incremental += incremental
        total_full += full
        total_publish += report.publish_seconds
        rows.append(
            [
                round_index + 1,
                report.num_bags,
                report.num_dirty_vertices,
                report.num_finetuned_vertices,
                incremental,
                report.publish_seconds,
                full,
                full / incremental,
            ]
        )
    rows.append(
        [
            "total", "", "", "", total_incremental, total_publish, total_full,
            total_full / total_incremental,
        ]
    )

    report_text = format_table(
        [
            "round",
            "delta bags",
            "dirty vertices",
            "finetuned",
            "incremental seconds",
            "publish seconds",
            "full rebuild seconds",
            "speedup",
        ],
        rows,
        title=(
            f"Streaming ingest: incremental refresh vs from-scratch rebuild "
            f"({graph.num_vertices} vertices, {graph.num_edges} edges after "
            f"{ROUNDS} rounds x {ingest_config.batch_bags} bags; LINE "
            f"epochs={line_config.epochs}, finetune epochs="
            f"{ingest_config.finetune_epochs}, propagation layers="
            f"{ingest_config.propagation_layers})"
        ),
    )
    write_report("stream_throughput", report_text)

    assert total_incremental < total_full, (
        f"incremental refresh ({total_incremental:.2f}s over {ROUNDS} rounds) "
        f"was not cheaper than full rebuilds ({total_full:.2f}s)"
    )

    # Timed kernel for the benchmark harness: one more delta round.
    extra = synthetic_delta_bags(
        bundle.kb,
        ingest_config.batch_bags,
        bundle.schema.num_relations,
        vocabulary=bundle.vocabulary,
        seed=SEED + 100 + ROUNDS,
    )
    benchmark.pedantic(lambda: ingestor.ingest(extra, publish=False), rounds=1, iterations=1)
