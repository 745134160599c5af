"""Tests for the streaming ingest subsystem (:mod:`repro.ingest`).

The parity contract under test (see ``docs/streaming.md``): after any number
of incremental rounds,

* the graph's CSR arrays, degrees and vertex table are bit-equal to a
  from-scratch :meth:`EntityProximityGraph.finalize` over the union corpus;
* the neighbour alias tables are bit-equal to a full
  :meth:`NeighborAliasTables.from_csr` rebuild over the refreshed CSR;
* the propagated embedding matrix is bit-equal to a full
  :func:`propagate_embeddings` over the same refreshed base, for every row,
  and rows outside the changed set's hop closure keep their previous values
  verbatim;
* serve probabilities from the incrementally refreshed entity table match a
  full recompute to 1e-12 for every encoder/aggregator/head variant.

The end-to-end rounds run over a pipeline built from scratch (not the
session-shared ``nyt_context``): ingest refinalizes the proximity graph in
place, and the shared context must stay pristine for the other test modules.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys
import zipfile

import numpy as np
import pytest

from repro.config import ExperimentConfig, IngestConfig, ScaleProfile
from repro.core.mutual_relation import build_entity_vector_table
from repro.exceptions import ConfigurationError, DataError
from repro.experiments.pipeline import train_and_evaluate
from repro.graph.alias import NeighborAliasTables
from repro.graph.embeddings import EntityEmbeddings
from repro.graph.line import LineConfig, LineEmbeddingTrainer
from repro.graph.propagation import (
    hop_closure,
    propagate_embeddings,
    propagate_embeddings_incremental,
)
from repro.graph.proximity import EntityProximityGraph
from repro.ingest import ArtifactVersionStore, StreamIngestor, synthetic_delta_bags
from repro.ingest.versions import CURRENT_POINTER, MANIFEST_NAME
from repro.serve import PredictionRequest, PredictionService
from repro.utils.checkpoint import (
    ENCODER_FILE,
    SCHEMA_FILE,
    _encoder_payload,
    _schema_payload,
)

# Every aggregation/encoder/head combination the factories can build
# (mirrors tests/test_serve.py and tests/test_daemon.py).
PARITY_METHODS = ["pa_tmr", "pa_t", "pa_mr", "pcnn_att", "pcnn", "cnn_att", "gru_att", "bgwa"]

# The tiny profile's graph stage; the end-to-end fixture mirrors it so the
# trained models' entity tables line up with the ingestor's embedding dim.
GRAPH_CONFIG = ExperimentConfig.for_profile(ScaleProfile.tiny(), seed=0).graph
PROPAGATION_LAYERS = 2
PROPAGATION_ALPHA = 0.5


def tiny_line_config(seed: int = 0, finetune_epochs: int = 2) -> LineConfig:
    return LineConfig(
        embedding_dim=GRAPH_CONFIG.embedding_dim,
        negative_samples=GRAPH_CONFIG.negative_samples,
        learning_rate=GRAPH_CONFIG.learning_rate,
        epochs=GRAPH_CONFIG.epochs,
        batch_edges=GRAPH_CONFIG.batch_edges,
        seed=seed,
        finetune_epochs=finetune_epochs,
    )


def random_pairs(num: int, num_entities: int, seed: int):
    r = np.random.default_rng(seed)
    firsts = np.array([f"e{int(x):04d}" for x in r.integers(0, num_entities, num)])
    seconds = np.array([f"e{int(x):04d}" for x in r.integers(0, num_entities, num)])
    return firsts, seconds, r.integers(1, 4, num).astype(np.int64)


def assert_graphs_bit_equal(actual: EntityProximityGraph, expected: EntityProximityGraph):
    np.testing.assert_array_equal(actual.vertices, expected.vertices)
    for ours, theirs, name in zip(
        actual.csr_arrays(), expected.csr_arrays(), ("indptr", "indices", "weights")
    ):
        np.testing.assert_array_equal(ours, theirs, err_msg=name)
    np.testing.assert_array_equal(actual.degrees, expected.degrees)
    assert actual.num_edges == expected.num_edges


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #
class TestIngestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_bags": 0},
            {"keep_versions": -1},
            {"poll_interval_ms": 0.0},
            {"finetune_epochs": -1},
            {"propagation_layers": -1},
            {"propagation_alpha": 1.5},
        ],
    )
    def test_invalid_knobs_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            IngestConfig(**overrides).validate()

    def test_profile_config_inherits_propagation_knobs(self):
        profile = dataclasses.replace(
            ScaleProfile.tiny(), propagation_layers=3, propagation_alpha=0.25
        )
        config = profile.ingest_config()
        assert config.propagation_layers == 3
        assert config.propagation_alpha == 0.25
        assert config.batch_bags == profile.ingest_batch_bags
        assert config.keep_versions == profile.ingest_keep_versions

    def test_poll_interval_units(self):
        assert IngestConfig(poll_interval_ms=250.0).poll_interval_seconds == 0.25
        assert "poll_interval_ms" in IngestConfig().to_dict()


# --------------------------------------------------------------------- #
# Synthetic delta stream
# --------------------------------------------------------------------- #
class TestSyntheticDeltaBags:
    def test_deterministic_and_kb_named(self, nyt_bundle):
        first = synthetic_delta_bags(nyt_bundle.kb, 8, nyt_bundle.schema.num_relations, seed=7)
        again = synthetic_delta_bags(nyt_bundle.kb, 8, nyt_bundle.schema.num_relations, seed=7)
        names = {entity.name for entity in nyt_bundle.kb.entities}
        assert len(first) == 8
        for bag, twin in zip(first, again):
            assert bag.head_name in names and bag.tail_name in names
            assert bag.head_name != bag.tail_name
            assert bag.head_name == twin.head_name and bag.tail_name == twin.tail_name
            assert bag.relation_ids == twin.relation_ids
            assert [s.tokens for s in bag.sentences] == [s.tokens for s in twin.sentences]
            for sentence in bag.sentences:
                assert sentence.tokens[0] == bag.head_name
                assert sentence.tokens[-1] == bag.tail_name

    def test_vocabulary_words_are_used(self, nyt_bundle):
        bags = synthetic_delta_bags(
            nyt_bundle.kb, 2, nyt_bundle.schema.num_relations,
            vocabulary=nyt_bundle.vocabulary, seed=0,
        )
        words = set(nyt_bundle.vocabulary)
        for bag in bags:
            for sentence in bag.sentences:
                assert all(token in words for token in sentence.tokens[1:-1])

    def test_validation(self, nyt_bundle):
        with pytest.raises(ValueError):
            synthetic_delta_bags(nyt_bundle.kb, -1, 2)
        with pytest.raises(ValueError):
            synthetic_delta_bags(nyt_bundle.kb, 1, 2, sentence_length=1)
        assert synthetic_delta_bags(nyt_bundle.kb, 0, 2) == []


# --------------------------------------------------------------------- #
# Incremental graph maintenance: refinalize()
# --------------------------------------------------------------------- #
class TestRefinalizeParity:
    def test_bit_parity_vs_from_scratch(self):
        f1, s1, c1 = random_pairs(500, 60, seed=1)
        graph = EntityProximityGraph(min_cooccurrence=2)
        graph.add_pair_arrays(f1, s1, c1)
        graph.finalize()

        f2, s2, c2 = random_pairs(200, 80, seed=2)  # includes new entities
        graph.add_pair_arrays(f2, s2, c2)
        report = graph.refinalize()

        full = EntityProximityGraph(min_cooccurrence=2)
        full.add_pair_arrays(np.concatenate([f1, f2]), np.concatenate([s1, s2]),
                             np.concatenate([c1, c2]))
        full.finalize()
        assert_graphs_bit_equal(graph, full)
        assert report.num_new_vertices > 0
        assert report.num_dirty > 0
        assert not graph.has_pending_updates

    def test_empty_delta_is_identity(self):
        f, s, c = random_pairs(100, 20, seed=3)
        graph = EntityProximityGraph.from_pair_arrays(f, s, c)
        before = [array.copy() for array in graph.csr_arrays()]
        report = graph.refinalize()
        assert report.num_dirty == 0 and report.num_new_vertices == 0
        assert not report.max_count_changed
        np.testing.assert_array_equal(report.old_to_new, np.arange(graph.num_vertices))
        for array, snapshot in zip(graph.csr_arrays(), before):
            np.testing.assert_array_equal(array, snapshot)

    def test_old_to_new_maps_surviving_vertices(self):
        f, s, c = random_pairs(200, 30, seed=4)
        graph = EntityProximityGraph.from_pair_arrays(f, s, c)
        old_names = np.asarray(graph.vertices).copy()
        # "aaa" sorts before every eXXXX name, shifting all existing ids.
        graph.add_pair_arrays(["aaa"] * 3, [old_names[0]] * 3, [5, 5, 5])
        report = graph.refinalize()
        np.testing.assert_array_equal(np.asarray(graph.vertices)[report.old_to_new], old_names)
        assert report.num_new_vertices == 1

    def test_targeted_delta_dirties_only_its_endpoints(self):
        graph = EntityProximityGraph.from_counts({("a", "b"): 2, ("c", "d"): 10})
        graph.add_cooccurrence("a", "b", 1)  # 2 -> 3; the global max (10) holds
        report = graph.refinalize()
        assert sorted(report.dirty_names) == ["a", "b"]
        assert not report.max_count_changed
        assert graph.cooccurrence("a", "b") == 3

    def test_max_count_growth_dirties_renormalised_vertices(self):
        graph = EntityProximityGraph.from_counts({("a", "b"): 2, ("c", "d"): 10})
        graph.add_cooccurrence("c", "d", 5)  # 10 -> 15: renormalises all weights
        report = graph.refinalize()
        assert report.max_count_changed
        # a-b's weight moved (new denominator); c-d's stayed exactly 1.0, so
        # only the genuinely changed endpoints are dirty.
        assert sorted(report.dirty_names) == ["a", "b"]


# --------------------------------------------------------------------- #
# Targeted alias-table refresh
# --------------------------------------------------------------------- #
class TestAliasRefresh:
    @pytest.fixture()
    def finalized(self):
        f, s, c = random_pairs(400, 50, seed=5)
        graph = EntityProximityGraph(min_cooccurrence=2)
        graph.add_pair_arrays(f, s, c)
        graph.finalize()
        return graph

    def test_identity_refresh_is_bit_equal(self, finalized):
        indptr, _, weights = finalized.csr_arrays()
        tables = NeighborAliasTables.from_csr(indptr, weights)
        n = finalized.num_vertices
        refreshed = tables.refresh(np.arange(n), indptr, weights, np.array([2, 9]))
        np.testing.assert_array_equal(tables._prob, refreshed._prob)
        np.testing.assert_array_equal(tables._alias, refreshed._alias)

    def test_refresh_after_growth_matches_full_rebuild(self, finalized):
        indptr, _, weights = finalized.csr_arrays()
        tables = NeighborAliasTables.from_csr(indptr, weights)
        f, s, c = random_pairs(150, 70, seed=6)
        finalized.add_pair_arrays(f, s, c)
        report = finalized.refinalize()
        new_indptr, _, new_weights = finalized.csr_arrays()
        new_ids = np.setdiff1d(
            np.arange(finalized.num_vertices, dtype=np.int64), report.old_to_new
        )
        refreshed = tables.refresh(
            report.old_to_new, new_indptr, new_weights,
            np.union1d(report.dirty_ids, new_ids),
        )
        full = NeighborAliasTables.from_csr(new_indptr, new_weights)
        np.testing.assert_array_equal(refreshed._prob, full._prob)
        np.testing.assert_array_equal(refreshed._alias, full._alias)
        assert refreshed.num_rows == finalized.num_vertices

    def test_unmarked_new_vertex_rejected(self, finalized):
        indptr, _, weights = finalized.csr_arrays()
        tables = NeighborAliasTables.from_csr(indptr, weights)
        finalized.add_pair_arrays(["zzz"] * 2, ["e0001"] * 2, [3, 3])
        report = finalized.refinalize()
        new_indptr, _, new_weights = finalized.csr_arrays()
        with pytest.raises(ValueError, match="marked dirty"):
            tables.refresh(
                report.old_to_new, new_indptr, new_weights, np.empty(0, dtype=np.int64)
            )

    def test_draws_stay_inside_row_segments(self, finalized):
        indptr, _, weights = finalized.csr_arrays()
        tables = NeighborAliasTables.from_csr(indptr, weights)
        degrees = np.diff(indptr)
        connected = np.flatnonzero(degrees > 0)
        draws = tables.sample_neighbors(np.random.default_rng(0), connected)
        assert np.all(draws >= 0)
        assert np.all(draws < degrees[connected])


# --------------------------------------------------------------------- #
# Incremental propagation
# --------------------------------------------------------------------- #
class TestIncrementalPropagation:
    @pytest.fixture()
    def setup(self):
        f, s, c = random_pairs(800, 120, seed=7)
        graph = EntityProximityGraph(min_cooccurrence=2)
        graph.add_pair_arrays(f, s, c)
        graph.finalize()
        rng = np.random.default_rng(8)
        base = rng.normal(size=(graph.num_vertices, 16))
        return graph, base

    def test_unchanged_base_reproduces_full_output_bitwise(self, setup):
        graph, base = setup
        full = propagate_embeddings(
            graph, EntityEmbeddings(graph.vertices, base), num_layers=3, alpha=0.4
        )
        out, affected = propagate_embeddings_incremental(
            graph, base, full.vectors.copy(), np.array([0, 5, 17]),
            num_layers=3, alpha=0.4,
        )
        np.testing.assert_array_equal(out, full.vectors)
        assert affected.size <= graph.num_vertices

    def test_changed_rows_bit_equal_to_full_and_untouched_keep_previous(self, setup):
        graph, base = setup
        previous = propagate_embeddings(
            graph, EntityEmbeddings(graph.vertices, base), num_layers=2, alpha=0.5
        ).vectors
        changed = np.array([0, 5, 17])
        new_base = base.copy()
        new_base[changed] += 0.1
        full = propagate_embeddings(
            graph, EntityEmbeddings(graph.vertices, new_base), num_layers=2, alpha=0.5
        )
        out, affected = propagate_embeddings_incremental(
            graph, new_base, previous.copy(), changed, num_layers=2, alpha=0.5
        )
        np.testing.assert_array_equal(out, full.vectors)
        untouched = np.setdiff1d(np.arange(graph.num_vertices), affected)
        assert untouched.size > 0, "graph too dense for an untouched-row check"
        np.testing.assert_array_equal(out[untouched], previous[untouched])

    def test_affected_set_is_the_hop_closure(self, setup):
        graph, base = setup
        changed = np.array([3, 40])
        _, affected = propagate_embeddings_incremental(
            graph, base, base.copy(), changed, num_layers=2, alpha=0.5
        )
        np.testing.assert_array_equal(affected, hop_closure(graph, changed, 2))
        np.testing.assert_array_equal(hop_closure(graph, changed, 0), np.unique(changed))
        assert hop_closure(graph, changed, 1).size <= affected.size


# --------------------------------------------------------------------- #
# Corpus append (satellite: append_store edge cases)
# --------------------------------------------------------------------- #
class TestAppendStore:
    @pytest.fixture(scope="class")
    def parts(self, nyt_context, nyt_bundle):
        encoder = nyt_context.bag_encoder
        store = nyt_context.train_encoded
        delta = encoder.encode_store(nyt_bundle.train.bags[:3])
        return encoder, store, delta

    def test_append_concatenates_and_preserves_invariants(self, parts):
        encoder, store, delta = parts
        combined = store.append_store(delta, vocab_size=len(encoder.vocabulary))
        assert len(combined) == len(store) + len(delta)
        assert combined.num_tokens == int(combined.sentence_offsets[-1])
        assert combined.num_sentences == int(combined.bag_offsets[-1])
        np.testing.assert_array_equal(
            combined.sentence_counts, np.diff(combined.bag_offsets)
        )
        # The prefix is this store verbatim; the suffix decodes to the delta.
        np.testing.assert_array_equal(
            np.asarray(combined.token_ids)[: store.num_tokens], np.asarray(store.token_ids)
        )
        for offset in range(len(delta)):
            appended = combined.bag(len(store) + offset)
            expected = delta.bag(offset)
            assert appended.label == expected.label
            assert appended.relation_ids == expected.relation_ids
            np.testing.assert_array_equal(appended.token_ids, expected.token_ids)
            np.testing.assert_array_equal(appended.mask, expected.mask)

    def test_empty_delta_is_identity(self, parts):
        _, store, _ = parts
        combined = store.append_store(store[0:0])
        assert len(combined) == len(store)
        for name in ("token_ids", "sentence_offsets", "bag_offsets", "labels",
                     "relation_ids", "relation_offsets"):
            np.testing.assert_array_equal(
                np.asarray(getattr(combined, name)), np.asarray(getattr(store, name)),
                err_msg=name,
            )

    def test_dtype_drift_rejected(self, parts):
        _, store, delta = parts
        drifted = dataclasses.replace(
            delta, token_ids=np.asarray(delta.token_ids).astype(np.float64)
        )
        with pytest.raises(DataError, match="dtype"):
            store.append_store(drifted)

    def test_foreign_vocabulary_rejected(self, parts):
        _, store, delta = parts
        with pytest.raises(DataError, match="vocabulary"):
            store.append_store(delta, vocab_size=2)

    def test_label_outside_schema_rejected(self, parts):
        _, store, delta = parts
        with pytest.raises(DataError, match="relation schema"):
            store.append_store(delta, num_relations=0)

    def test_append_to_memmapped_v3_store(self, parts, tmp_path):
        from repro.corpus.store import CorpusStore

        _, store, delta = parts
        expected = store.append_store(delta)
        store.save_sharded(tmp_path / "base")
        delta.save_sharded(tmp_path / "delta")
        mapped = CorpusStore.load(tmp_path / "base", mmap=True)
        mapped_delta = CorpusStore.load(tmp_path / "delta", mmap=True)
        # Either operand (or both) may be memmapped.
        for combined in (
            mapped.append_store(delta),
            store.append_store(mapped_delta),
            mapped.append_store(mapped_delta),
        ):
            for name in ("token_ids", "sentence_offsets", "bag_offsets", "labels"):
                np.testing.assert_array_equal(
                    np.asarray(getattr(combined, name)),
                    np.asarray(getattr(expected, name)),
                    err_msg=name,
                )


# --------------------------------------------------------------------- #
# Versioned artifact store
# --------------------------------------------------------------------- #
def publish_blob(store: ArtifactVersionStore, payload: bytes = b"weights"):
    def write(stage):
        (stage / "checkpoint").mkdir()
        (stage / "checkpoint" / "weights.bin").write_bytes(payload)
        (stage / "corpus.txt").write_text("corpus", encoding="utf-8")

    return store.publish(write, metadata={"size": len(payload)})


class TestArtifactVersionStore:
    def test_publish_monotone_with_parent_chain(self, tmp_path):
        store = ArtifactVersionStore(tmp_path)
        assert store.current() is None and store.latest() is None
        first = publish_blob(store, b"one")
        second = publish_blob(store, b"two")
        assert (first.version, second.version) == (1, 2)
        assert first.parent is None and second.parent == 1
        assert store.current().version == 2
        assert store.latest().version == 2
        assert [info.version for info in store.list_versions()] == [1, 2]
        assert second.checkpoint_path == second.path / "checkpoint"
        assert second.manifest["metadata"] == {"size": 3}
        assert "checkpoint/weights.bin" in second.manifest["files"]

    def test_verify_catches_tampering(self, tmp_path):
        store = ArtifactVersionStore(tmp_path)
        info = publish_blob(store)
        store.verify(info)
        (info.path / "corpus.txt").write_text("tampered", encoding="utf-8")
        with pytest.raises(DataError, match="hash mismatch"):
            store.verify(info)
        (info.path / "corpus.txt").unlink()
        with pytest.raises(DataError, match="missing member"):
            store.verify(info)

    def test_failed_write_leaves_no_partial_version(self, tmp_path):
        store = ArtifactVersionStore(tmp_path)
        publish_blob(store)

        def explode(stage):
            (stage / "half-written").write_text("x", encoding="utf-8")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            store.publish(explode)
        assert [info.version for info in store.list_versions()] == [1]
        assert store.current().version == 1
        assert not list(tmp_path.glob(".staging-*"))
        # The next publish still allocates the next monotone id.
        assert publish_blob(store).version == 2

    def test_corrupt_pointer_and_manifest_rejected(self, tmp_path):
        store = ArtifactVersionStore(tmp_path)
        info = publish_blob(store)
        (tmp_path / CURRENT_POINTER).write_text("not-a-number", encoding="ascii")
        with pytest.raises(DataError, match="CURRENT pointer"):
            store.current()
        manifest = json.loads((info.path / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["version"] = 99
        (info.path / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(DataError, match="manifest"):
            store.latest()

    def test_prune_keeps_recent_and_current(self, tmp_path):
        store = ArtifactVersionStore(tmp_path)
        for _ in range(4):
            publish_blob(store)
        with pytest.raises(ValueError):
            store.prune(0)
        # Pin CURRENT at the oldest version: prune must spare it.
        (tmp_path / CURRENT_POINTER).write_text("1\n", encoding="ascii")
        assert store.prune(keep_last=1) == 2  # drops v2 and v3, spares v1 + v4
        assert [info.version for info in store.list_versions()] == [1, 4]
        assert store.current().version == 1

    def test_prune_collects_staging_of_dead_publishers_only(self, tmp_path):
        store = ArtifactVersionStore(tmp_path)
        publish_blob(store)
        # A publisher killed mid-publish leaves its pid-named staging files.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: its pid names no live process
        dead = tmp_path / f".staging-v000002-{child.pid}"
        (dead / "checkpoint").mkdir(parents=True)
        (dead / "checkpoint" / "weights.bin").write_bytes(b"half")
        dead_pointer = tmp_path / f".{CURRENT_POINTER}.tmp-{child.pid}"
        dead_pointer.write_text("2\n", encoding="ascii")
        live = tmp_path / f".staging-v000002-{os.getpid()}"
        live.mkdir()
        assert store.prune(keep_last=1) == 0
        assert not dead.exists() and not dead_pointer.exists()
        assert live.exists()
        assert [info.version for info in store.list_versions()] == [1]


# --------------------------------------------------------------------- #
# The end-to-end refresh rounds
# --------------------------------------------------------------------- #
ROUNDS = 3
BAGS_PER_ROUND = 12


@pytest.fixture(scope="module")
def live(nyt_bundle, nyt_context, trained_pa_tmr, tmp_path_factory):
    """A fresh pipeline driven through three published ingest rounds."""
    graph = EntityProximityGraph.from_pair_arrays(
        *nyt_bundle.pair_arrays, min_cooccurrence=GRAPH_CONFIG.min_cooccurrence
    )
    trainer = LineEmbeddingTrainer(graph, config=tiny_line_config())
    trainer.train()
    versions = ArtifactVersionStore(tmp_path_factory.mktemp("ingest") / "versions")
    ingestor = StreamIngestor(
        store=nyt_context.train_encoded,
        graph=graph,
        trainer=trainer,
        encoder=nyt_context.bag_encoder,
        kb=nyt_bundle.kb,
        schema=nyt_bundle.schema,
        # Deep copy: ingest rounds swap the mutual-relation entity table, and
        # the session-cached trained method must stay untouched.
        model=copy.deepcopy(trained_pa_tmr[0].model),
        config=IngestConfig(
            propagation_layers=PROPAGATION_LAYERS,
            propagation_alpha=PROPAGATION_ALPHA,
            keep_versions=2,
            finetune_epochs=2,
        ),
        version_store=versions,
    )
    original_bags = len(nyt_context.train_encoded)
    delta_pairs, reports = [], []
    for round_index in range(ROUNDS):
        bags = synthetic_delta_bags(
            nyt_bundle.kb, BAGS_PER_ROUND, nyt_bundle.schema.num_relations,
            vocabulary=nyt_bundle.vocabulary, seed=100 + round_index,
        )
        delta_pairs.extend(
            (bag.head_name, bag.tail_name, max(1, bag.num_sentences)) for bag in bags
        )
        reports.append(ingestor.ingest(bags))
    return {
        "ingestor": ingestor,
        "versions": versions,
        "reports": reports,
        "delta_pairs": delta_pairs,
        "original_bags": original_bags,
    }


def requests_from_bundle(bundle, count: int):
    bags = bundle.test.bags
    return [
        PredictionRequest(
            head=bag.head_name, tail=bag.tail_name, sentences=list(bag.sentences)
        )
        for bag in (bags[i % len(bags)] for i in range(count))
    ]


class TestStreamIngestorRounds:
    def test_round_reports_are_monotone_and_complete(self, live):
        reports = live["reports"]
        assert [r.round_index for r in reports] == [1, 2, 3]
        assert [r.version for r in reports] == [1, 2, 3]
        for index, report in enumerate(reports):
            assert report.num_bags == BAGS_PER_ROUND
            assert report.num_sentences == BAGS_PER_ROUND * 2
            assert report.corpus_bags == live["original_bags"] + BAGS_PER_ROUND * (index + 1)
            assert report.num_dirty_vertices > 0
            assert report.num_propagated_rows >= report.num_dirty_vertices
            assert set(report.as_dict()) >= {
                "round_index", "version", "corpus_bags", "publish_seconds", "published_bytes",
            }
            assert report.publish_seconds > 0

    def test_published_bytes_sum_the_manifest_members(self, live):
        current = live["versions"].current()
        members = current.manifest["files"]
        assert "checkpoint/weights.npz" in members
        assert live["reports"][-1].published_bytes == sum(
            (current.path / member).stat().st_size for member in members
        )

    def test_published_members_use_the_uncompressed_compact_format(self, live):
        """Pin the publish format: stored (not deflated) npz members and compact
        checkpoint JSON that parses to the same payloads the indented files held."""
        ingestor, current = live["ingestor"], live["versions"].current()
        archives = [member for member in current.manifest["files"] if member.endswith(".npz")]
        assert len(archives) == 5  # corpus, graph, embeddings, propagated, weights
        for member in archives:
            with zipfile.ZipFile(current.path / member) as archive:
                kinds = {entry.compress_type for entry in archive.infolist()}
            assert kinds == {zipfile.ZIP_STORED}, member
        payloads = {
            ENCODER_FILE: _encoder_payload(ingestor.encoder),
            SCHEMA_FILE: _schema_payload(ingestor.schema, ingestor.kb),
        }
        for member, payload in payloads.items():
            text = (current.checkpoint_path / member).read_text(encoding="utf-8")
            assert text == json.dumps(payload, separators=(",", ":"))
            assert json.loads(text) == payload

    def test_corpus_grew_with_prefix_preserved(self, live, nyt_context):
        store = live["ingestor"].store
        original = nyt_context.train_encoded
        assert len(store) == live["original_bags"] + ROUNDS * BAGS_PER_ROUND
        np.testing.assert_array_equal(
            np.asarray(store.token_ids)[: original.num_tokens],
            np.asarray(original.token_ids),
        )
        np.testing.assert_array_equal(
            np.asarray(store.labels)[: len(original)], np.asarray(original.labels)
        )
        assert store.num_tokens == int(store.sentence_offsets[-1])
        assert store.num_sentences == int(store.bag_offsets[-1])

    def test_graph_bit_equal_to_from_scratch_union_rebuild(self, live, nyt_bundle):
        ingestor = live["ingestor"]
        heads, tails, counts = nyt_bundle.pair_arrays
        scratch = EntityProximityGraph(min_cooccurrence=ingestor.graph.min_cooccurrence)
        scratch.add_pair_arrays(heads, tails, counts)
        scratch.add_pair_arrays(
            np.array([pair[0] for pair in live["delta_pairs"]]),
            np.array([pair[1] for pair in live["delta_pairs"]]),
            np.array([pair[2] for pair in live["delta_pairs"]], dtype=np.int64),
        )
        scratch.finalize()
        assert_graphs_bit_equal(ingestor.graph, scratch)

    def test_alias_tables_bit_equal_to_full_rebuild(self, live):
        ingestor = live["ingestor"]
        indptr, _, weights = ingestor.graph.csr_arrays()
        full = NeighborAliasTables.from_csr(indptr, weights)
        np.testing.assert_array_equal(ingestor.alias_tables._prob, full._prob)
        np.testing.assert_array_equal(ingestor.alias_tables._alias, full._alias)

    def test_propagated_bit_equal_to_full_propagation(self, live):
        ingestor = live["ingestor"]
        full = propagate_embeddings(
            ingestor.graph,
            ingestor.base_embeddings,
            num_layers=PROPAGATION_LAYERS,
            alpha=PROPAGATION_ALPHA,
        )
        np.testing.assert_array_equal(ingestor.propagated_embeddings.vectors, full.vectors)

    def test_version_retention_verify_and_metadata(self, live):
        versions = live["versions"]
        kept = versions.list_versions()
        assert [info.version for info in kept] == [2, 3]  # keep_versions=2
        current = versions.current()
        assert current.version == 3
        versions.verify(current)
        assert current.parent == 2
        assert current.manifest["metadata"]["round"] == 3
        assert current.manifest["metadata"]["corpus_bags"] == len(live["ingestor"].store)
        for member in ("corpus.npz", "graph.npz", "embeddings.npz", "propagated.npz"):
            assert member in current.manifest["files"]

    def test_published_checkpoint_cold_starts_a_service(self, live, nyt_bundle):
        service = PredictionService.from_checkpoint(
            live["versions"].current().checkpoint_path
        )
        result = service.predict(requests_from_bundle(nyt_bundle, 1)[0])
        assert result.probabilities.shape == (nyt_bundle.schema.num_relations,)
        np.testing.assert_allclose(result.probabilities.sum(), 1.0, atol=1e-9)

    def test_model_entity_table_tracks_propagated_embeddings(
        self, live, nyt_bundle, trained_pa_tmr
    ):
        ingestor = live["ingestor"]
        head = ingestor.model.mutual_relation_head
        expected = build_entity_vector_table(
            nyt_bundle.kb, ingestor.propagated_embeddings
        )
        np.testing.assert_array_equal(head.entity_vectors, expected)
        # ... and genuinely moved: the session-cached model kept its table.
        pristine = trained_pa_tmr[0].model.mutual_relation_head.entity_vectors
        assert not np.array_equal(head.entity_vectors, pristine)

    @pytest.mark.parametrize("method_name", PARITY_METHODS)
    def test_serve_parity_every_variant(self, live, nyt_context, method_name):
        """Incrementally refreshed entity tables serve like a full recompute."""
        ingestor = live["ingestor"]
        method, _ = train_and_evaluate(nyt_context, method_name)
        incremental = copy.deepcopy(method.model)
        recomputed = copy.deepcopy(method.model)
        if getattr(incremental, "mutual_relation_head", None) is not None:
            incremental.mutual_relation_head.refresh_entity_vectors(
                build_entity_vector_table(
                    nyt_context.bundle.kb, ingestor.propagated_embeddings
                )
            )
            full = propagate_embeddings(
                ingestor.graph,
                ingestor.base_embeddings,
                num_layers=PROPAGATION_LAYERS,
                alpha=PROPAGATION_ALPHA,
            )
            recomputed.mutual_relation_head.refresh_entity_vectors(
                build_entity_vector_table(nyt_context.bundle.kb, full)
            )
        service_inc = PredictionService.from_context(nyt_context, incremental)
        service_full = PredictionService.from_context(nyt_context, recomputed)
        for request in requests_from_bundle(nyt_context.bundle, 6):
            np.testing.assert_allclose(
                service_inc.predict(request).probabilities,
                service_full.predict(request).probabilities,
                atol=1e-12,
            )

    def test_heartbeat_round_publishes_without_touching_state(self, live):
        """Runs last in this class: it advances the round/version counters."""
        ingestor = live["ingestor"]
        versions = live["versions"]
        store_before = ingestor.store
        csr_before = [array.copy() for array in ingestor.graph.csr_arrays()]
        propagated_before = ingestor.propagated_embeddings.vectors
        highest = versions.latest().version

        report = ingestor.ingest([])
        assert report.num_bags == 0 and report.num_sentences == 0
        assert report.num_dirty_vertices == 0 and report.num_new_vertices == 0
        assert report.version == highest + 1  # heartbeat still publishes
        assert ingestor.store is store_before
        for array, snapshot in zip(ingestor.graph.csr_arrays(), csr_before):
            np.testing.assert_array_equal(array, snapshot)
        np.testing.assert_array_equal(
            ingestor.propagated_embeddings.vectors, propagated_before
        )
        # An unpublished round leaves the store alone too.
        silent = ingestor.ingest([], publish=False)
        assert silent.version is None
        assert silent.publish_seconds == 0.0 and silent.published_bytes == 0
        assert versions.latest().version == report.version


class TestStreamIngestorConstruction:
    def test_trainer_over_foreign_graph_rejected(self):
        ours = EntityProximityGraph.from_counts({("a", "b"): 2, ("b", "c"): 3})
        theirs = EntityProximityGraph.from_counts({("a", "b"): 2})
        trainer = LineEmbeddingTrainer(theirs, config=LineConfig(embedding_dim=8, epochs=1))
        with pytest.raises(ConfigurationError, match="graph"):
            StreamIngestor(store=None, graph=ours, trainer=trainer, encoder=None)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestIngestCLI:
    def test_cli_rounds_print_monotone_json_reports(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "ingest", "--profile", "tiny", "--method", "none", "--rounds", "2",
            "--batch-bags", "4", "--versions", str(tmp_path / "v"),
            "--keep-versions", "2", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
            if line.startswith("{")
        ]
        assert [report["round_index"] for report in lines] == [1, 2]
        assert [report["version"] for report in lines] == [1, 2]
        assert all(report["num_bags"] == 4 for report in lines)
        store = ArtifactVersionStore(tmp_path / "v")
        assert store.current().version == 2
        store.verify(store.current())
