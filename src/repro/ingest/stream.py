"""Streaming distant supervision: the incremental corpus→graph→embedding loop.

:class:`StreamIngestor` turns the batch pipeline of
:mod:`repro.experiments.pipeline` into an online system.  Each call to
:meth:`~StreamIngestor.ingest` takes a batch of new sentence bags (from
:func:`repro.corpus.stream.stream_bags`, :func:`synthetic_delta_bags`, or any
iterable of :class:`~repro.corpus.bags.Bag`) and performs one *refresh round*:

1. **Corpus** — the delta is encoded and appended to the live
   :class:`~repro.corpus.store.CorpusStore` (pure columnar concatenation,
   :meth:`~repro.corpus.store.CorpusStore.append_store`).
2. **Graph** — the delta's entity-pair co-occurrences are buffered into the
   finalized :class:`~repro.graph.proximity.EntityProximityGraph` and merged
   with :meth:`~repro.graph.proximity.EntityProximityGraph.refinalize`, which
   reports the *dirty vertex set* (every vertex with a new or bitwise-changed
   incident edge) and the old→new vertex-id remap.
3. **Embeddings** — a fresh LINE trainer over the refreshed graph is
   warm-started with the previous round's raw tables (new vertices keep the
   trainer's deterministic initialisation) and fine-tuned on the edges
   incident to the dirty set only; neighbour alias tables are rebuilt for
   dirty rows only; propagation re-runs restricted to the dirty subgraph's
   ``num_layers``-hop closure
   (:func:`~repro.graph.propagation.propagate_embeddings_incremental`).
4. **Model** — the frozen entity-vector table of the model's mutual-relation
   head is rebuilt from the refreshed propagated embeddings and swapped in
   (classifier weights untouched).
5. **Publish** — the refreshed artifact set (corpus, graph, embeddings,
   propagated vectors, servable checkpoint) is sealed as one immutable
   version in an :class:`~repro.ingest.versions.ArtifactVersionStore`; a
   watching :class:`~repro.serve.daemon.ServingDaemon` picks it up via its
   existing hot-reload swap.

Parity contract (verified by ``tests/test_ingest.py`` and the CI streaming
smoke): after any number of rounds the graph's CSR arrays, degrees and raw
counts are bit-equal to a from-scratch build over the union corpus; the alias
tables are bit-equal to a full rebuild from the refreshed graph; the
propagated matrix is bit-equal to a full propagation over the same refreshed
base for every row, and rows outside the dirty neighbourhood's closure keep
their previous values verbatim.  Serve probabilities therefore match a full
recompute to ~1e-12 (float64 round-off through the softmax head).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..config import ExperimentConfig, IngestConfig
from ..core.mutual_relation import build_entity_vector_table
from ..corpus.bags import Bag, SentenceExample
from ..corpus.loader import BagEncoder
from ..corpus.store import CorpusStore
from ..exceptions import ConfigurationError, UsageError
from ..graph.alias import NeighborAliasTables
from ..graph.embeddings import EntityEmbeddings
from ..graph.line import LineConfig, LineEmbeddingTrainer
from ..graph.propagation import propagate_embeddings, propagate_embeddings_incremental
from ..graph.proximity import EntityProximityGraph
from ..kb.knowledge_base import KnowledgeBase
from ..utils.logging import get_logger
from .versions import CHECKPOINT_MEMBER, ArtifactVersionStore, VersionInfo

logger = get_logger("ingest.stream")


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`StreamIngestor.ingest` round did."""

    round_index: int
    num_bags: int
    num_sentences: int
    corpus_bags: int                  # total bags in the live store afterwards
    num_new_vertices: int
    num_dirty_vertices: int
    num_finetuned_vertices: int       # rows the targeted LINE fine-tune wrote
    num_propagated_rows: int          # rows the incremental propagation recomputed
    max_count_changed: bool           # global weight renormalisation triggered
    version: Optional[int] = None     # published version id, if any
    publish_seconds: float = 0.0      # wall time of the publish (0 when none)
    published_bytes: int = 0          # size of the published version's members

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class StreamIngestor:
    """Incremental corpus/graph/embedding refresh with versioned publishing.

    Parameters
    ----------
    store:
        The live encoded corpus; replaced (never mutated) on every append.
    graph:
        The finalized entity proximity graph; refinalized in place each round.
    trainer:
        A :class:`LineEmbeddingTrainer` over ``graph`` whose tables hold the
        current embedding state (typically fully trained once at startup —
        :meth:`from_context` does this).  The ingestor takes ownership of the
        raw tables; the trainer object itself is not retained.
    encoder:
        The :class:`BagEncoder` that encoded ``store`` (delta bags must be
        encoded identically or :meth:`ingest` raises
        :class:`~repro.exceptions.DataError` through ``append_store``).
    kb / schema:
        Knowledge base and relation schema; required for checkpoint
        publishing and for refreshing a model's entity-vector table.
    model:
        Optional :class:`~repro.core.model.NeuralREModel` kept hot: models
        with a mutual-relation head get their frozen entity table refreshed
        every round; models without one still re-publish (their predictions
        do not depend on the embeddings).
    config:
        :class:`~repro.config.IngestConfig` knobs; ``None`` uses defaults.
    version_store:
        Where refreshed artifact sets publish; ``None`` disables publishing
        (:attr:`IngestReport.version` stays ``None``).
    """

    def __init__(
        self,
        store: CorpusStore,
        graph: EntityProximityGraph,
        trainer: LineEmbeddingTrainer,
        encoder: BagEncoder,
        kb: Optional[KnowledgeBase] = None,
        schema=None,
        model=None,
        config: Optional[IngestConfig] = None,
        version_store: Optional[ArtifactVersionStore] = None,
    ) -> None:
        if trainer.graph is not graph:
            raise ConfigurationError("trainer must be built over the ingestor's graph")
        self.store = store
        self.graph = graph
        self.encoder = encoder
        self.kb = kb
        self.schema = schema
        self.model = model
        self.config = config or IngestConfig()
        self.config.validate()
        self.version_store = version_store
        self.line_config = trainer.config

        # Raw (unnormalised) LINE tables, carried across rounds for warm starts.
        self._first_order = trainer.first_order
        self._second_order = trainer.second_order
        self._second_context = trainer.second_context

        self._base = trainer.embedding_matrix()
        if self.config.propagation_layers > 0:
            self._propagated = propagate_embeddings(
                graph,
                EntityEmbeddings(graph.vertices, self._base),
                num_layers=self.config.propagation_layers,
                alpha=self.config.propagation_alpha,
            ).vectors
        else:
            self._propagated = self._base.copy()

        indptr, _, weights = graph.csr_arrays()
        self._alias = NeighborAliasTables.from_csr(indptr, weights)
        self._round = 0
        self._refresh_model_table()

    # ------------------------------------------------------------------ #
    # Construction from a prepared pipeline context
    # ------------------------------------------------------------------ #
    @classmethod
    def from_context(
        cls,
        context,
        model=None,
        config: Optional[IngestConfig] = None,
        version_store: Optional[ArtifactVersionStore] = None,
    ) -> "StreamIngestor":
        """Build the ingestor over an :class:`ExperimentContext`'s artifacts.

        The context's cached LINE embeddings are a normalised matrix without
        the raw trainer tables warm-starting needs, so the LINE stage is
        re-trained here once (deterministic: same graph, config and seed
        reproduce the context's embedding matrix bitwise).  ``config``
        defaults to the context profile's :meth:`ScaleProfile.ingest_config`,
        which inherits the profile's propagation knobs — so the ingestor's
        embedding state starts bit-equal to ``context.entity_embeddings``.
        """
        config = config or context.profile.ingest_config()
        experiment = ExperimentConfig.for_profile(context.profile, seed=context.seed)
        line_config = LineConfig(
            embedding_dim=experiment.graph.embedding_dim,
            negative_samples=experiment.graph.negative_samples,
            learning_rate=experiment.graph.learning_rate,
            epochs=experiment.graph.epochs,
            batch_edges=experiment.graph.batch_edges,
            seed=context.seed,
            finetune_epochs=config.finetune_epochs,
        )
        trainer = LineEmbeddingTrainer(context.proximity_graph, config=line_config)
        trainer.train()
        return cls(
            store=context.train_encoded,
            graph=context.proximity_graph,
            trainer=trainer,
            encoder=context.bag_encoder,
            kb=context.bundle.kb,
            schema=context.bundle.schema,
            model=model,
            config=config,
            version_store=version_store,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def round_index(self) -> int:
        """How many ingest rounds have completed."""
        return self._round

    @property
    def base_embeddings(self) -> EntityEmbeddings:
        """The current (pre-propagation) LINE embeddings."""
        return EntityEmbeddings(self.graph.vertices, self._base.copy())

    @property
    def propagated_embeddings(self) -> EntityEmbeddings:
        """The current propagated embeddings (equal to base when layers=0)."""
        return EntityEmbeddings(self.graph.vertices, self._propagated.copy())

    @property
    def alias_tables(self) -> NeighborAliasTables:
        """The current per-vertex neighbour alias tables."""
        return self._alias

    # ------------------------------------------------------------------ #
    # The refresh round
    # ------------------------------------------------------------------ #
    def ingest(self, bags: Iterable[Bag], publish: bool = True) -> IngestReport:
        """Run one refresh round over a batch of new bags.

        ``bags`` may be empty (a heartbeat round: nothing changes, but a new
        version still publishes so downstream retention/monotonicity logic
        can be exercised).  Returns an :class:`IngestReport`.
        """
        bags = list(bags)
        self._round += 1
        num_sentences = sum(bag.num_sentences for bag in bags)

        if bags:
            delta = self.encoder.encode_store(bags)
            self.store = self.store.append_store(
                delta,
                vocab_size=len(self.encoder.vocabulary),
                num_relations=self.schema.num_relations if self.schema is not None else None,
            )
            heads = np.array([bag.head_name for bag in bags], dtype=np.str_)
            tails = np.array([bag.tail_name for bag in bags], dtype=np.str_)
            counts = np.array(
                [max(1, bag.num_sentences) for bag in bags], dtype=np.int64
            )
            self.graph.add_pair_arrays(heads, tails, counts)

        report = self.graph.refinalize()
        num_finetuned = 0
        num_propagated = 0
        if report.num_dirty or report.num_new_vertices:
            num_finetuned, num_propagated = self._refresh_embeddings(report)
            self._refresh_model_table()

        version = None
        publish_seconds = 0.0
        published_bytes = 0
        if publish and self.version_store is not None:
            start = time.perf_counter()
            info = self._publish(len(bags), report)
            publish_seconds = time.perf_counter() - start
            version, published_bytes = info.version, info.member_bytes
            if self.config.keep_versions > 0:
                self.version_store.prune(self.config.keep_versions)

        logger.info(
            "ingest round %d: %d bags, %d dirty / %d new vertices, "
            "%d finetuned, %d propagated rows%s",
            self._round,
            len(bags),
            report.num_dirty,
            report.num_new_vertices,
            num_finetuned,
            num_propagated,
            (
                f", version {version} ({published_bytes} bytes in "
                f"{publish_seconds * 1e3:.1f} ms)"
                if version is not None
                else ""
            ),
        )
        return IngestReport(
            round_index=self._round,
            num_bags=len(bags),
            num_sentences=num_sentences,
            corpus_bags=len(self.store),
            num_new_vertices=report.num_new_vertices,
            num_dirty_vertices=report.num_dirty,
            num_finetuned_vertices=num_finetuned,
            num_propagated_rows=num_propagated,
            max_count_changed=report.max_count_changed,
            version=version,
            publish_seconds=publish_seconds,
            published_bytes=published_bytes,
        )

    def _refresh_embeddings(self, report) -> "tuple[int, int]":
        """Steps 3 of the round: warm-started fine-tune, alias refresh,
        incremental propagation.  Returns (finetuned rows, propagated rows)."""
        n = self.graph.num_vertices
        new_ids = np.setdiff1d(np.arange(n, dtype=np.int64), report.old_to_new)

        # Fresh trainer over the refreshed graph: new vertices keep its
        # deterministic per-round initialisation, surviving vertices are
        # warm-started from the carried raw tables.  The per-round seed keeps
        # successive fine-tunes from replaying identical sample streams.
        line_config = dataclasses.replace(
            self.line_config, seed=self.line_config.seed + self._round
        )
        trainer = LineEmbeddingTrainer(self.graph, config=line_config)
        trainer.warm_start(
            report.old_to_new, self._first_order, self._second_order, self._second_context
        )
        touched = trainer.finetune(report.dirty_ids)
        self._first_order = trainer.first_order
        self._second_order = trainer.second_order
        self._second_context = trainer.second_context
        base = trainer.embedding_matrix()

        # Alias tables: untouched row segments are copied bit-for-bit, dirty
        # and new rows rebuilt from the refreshed CSR weights.
        indptr, _, weights = self.graph.csr_arrays()
        dirty_rows = np.union1d(report.dirty_ids, new_ids)
        self._alias = self._alias.refresh(report.old_to_new, indptr, weights, dirty_rows)

        # Propagation restricted to the changed rows' num_layers-hop closure.
        # `changed` = rows whose base vector or CSR row differs from what the
        # previous output was computed from: the dirty set (edge changes),
        # the fine-tuned neighbourhood (base changes) and new vertices.
        previous = base.copy()
        previous[report.old_to_new] = self._propagated
        changed = np.union1d(np.union1d(report.dirty_ids, touched), new_ids)
        if self.config.propagation_layers > 0:
            self._propagated, affected = propagate_embeddings_incremental(
                self.graph,
                base,
                previous,
                changed,
                num_layers=self.config.propagation_layers,
                alpha=self.config.propagation_alpha,
            )
        else:
            self._propagated, affected = base.copy(), changed
        self._base = base
        return int(touched.size), int(affected.size)

    def _refresh_model_table(self) -> None:
        """Swap the refreshed entity table into the model's MR head, if any."""
        if self.model is None or self.kb is None:
            return
        head = getattr(self.model, "mutual_relation_head", None)
        if head is None:
            return
        head.refresh_entity_vectors(
            build_entity_vector_table(
                self.kb, EntityEmbeddings(self.graph.vertices, self._propagated)
            )
        )

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def _publish(self, num_bags: int, report) -> VersionInfo:
        def write(stage: Path) -> None:
            self.store.save(stage / "corpus.npz")
            self.graph.save(stage / "graph.npz")
            EntityEmbeddings(self.graph.vertices, self._base).save(
                stage / "embeddings.npz"
            )
            EntityEmbeddings(self.graph.vertices, self._propagated).save(
                stage / "propagated.npz"
            )
            if self.model is not None:
                if self.encoder is None or self.schema is None or self.kb is None:
                    raise UsageError(
                        "publishing a servable checkpoint needs encoder, schema and kb"
                    )
                self.model.save(
                    stage / CHECKPOINT_MEMBER,
                    encoder=self.encoder,
                    schema=self.schema,
                    kb=self.kb,
                    metadata={"ingest_round": self._round},
                )

        return self.version_store.publish(
            write,
            metadata={
                "round": self._round,
                "num_bags": num_bags,
                "corpus_bags": len(self.store),
                "num_vertices": self.graph.num_vertices,
                "dirty_vertices": report.num_dirty,
                "new_vertices": report.num_new_vertices,
            },
        )


# ---------------------------------------------------------------------- #
# Synthetic delta stream (CLI + tests + CI smoke)
# ---------------------------------------------------------------------- #
def synthetic_delta_bags(
    kb: KnowledgeBase,
    num_bags: int,
    num_relations: int,
    vocabulary=None,
    sentences_per_bag: int = 2,
    sentence_length: int = 8,
    seed: int = 0,
) -> List[Bag]:
    """Deterministic delta bags over *knowledge-base* entity names.

    Unlike :func:`repro.corpus.stream.stream_bags` (whose synthetic ``e<i>``
    names never match a dataset bundle's knowledge base), these bags name
    real KB entities, so every round perturbs vertices the serving model's
    entity-vector table actually reads — the delta that makes daemon-visible
    prediction changes and exercises the full refresh path.
    """
    if num_bags < 0:
        raise ValueError("num_bags must be non-negative")
    if sentence_length < 2:
        raise ValueError("sentence_length must be at least 2")
    rng = np.random.default_rng(seed)
    entities = kb.entities
    if len(entities) < 2:
        raise ValueError("knowledge base must hold at least two entities")
    words = (
        [token for token in vocabulary][2:] if vocabulary is not None else None
    )
    bags: List[Bag] = []
    for _ in range(num_bags):
        head, tail = (
            entities[int(i)]
            for i in rng.choice(len(entities), size=2, replace=False)
        )
        sentences = []
        for _ in range(sentences_per_bag):
            if words:
                middle = [
                    words[int(i)]
                    for i in rng.integers(0, len(words), size=sentence_length - 2)
                ]
            else:
                middle = [f"tok{int(i)}" for i in rng.integers(0, 50, size=sentence_length - 2)]
            tokens = [head.name, *middle, tail.name]
            sentences.append(
                SentenceExample(
                    tokens=tokens, head_position=0, tail_position=len(tokens) - 1
                )
            )
        bags.append(
            Bag(
                head_id=head.entity_id,
                tail_id=tail.entity_id,
                head_name=head.name,
                tail_name=tail.name,
                head_types=head.types,
                tail_types=tail.types,
                relation_ids={int(rng.integers(0, num_relations))},
                sentences=sentences,
            )
        )
    return bags
