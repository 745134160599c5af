"""Shared experiment pipeline.

Every quantitative experiment follows the same steps:

1. build a synthetic dataset bundle (SynthNYT or SynthGDS);
2. build the entity proximity graph from the bundle's unlabeled corpus and
   train LINE entity embeddings on it;
3. encode the train/test bags;
4. train one or more methods and run the held-out evaluation.

:func:`prepare_context` performs steps 1-3 once so several methods can be
compared on identical data, and :func:`train_and_evaluate` performs step 4
for a single named method.

Steps 2-3 are pure functions of (dataset, profile, seed, stage config), so
:func:`prepare_context` can persist them through a
:class:`repro.utils.artifacts.ArtifactCache`: pass ``cache=``/``cache_dir=``
explicitly, or install a process-wide default with :func:`set_default_cache`
(what ``python -m repro run --cache-dir ...`` does) so every
experiment and the serving layer share one set of artifacts.

Step 4 trains with the vectorized padded-batch engine (:mod:`repro.batch`)
by default — one forward/backward per mini-batch, identical results to the
per-bag loop.  Opt out per context via ``ScaleProfile.batched_training=False``
(``--per-bag-training`` on ``python -m repro run``).
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..baselines.api import RelationExtractionMethod
from ..baselines.registry import build_method, display_name
from ..config import ExperimentConfig, ModelConfig, ScaleProfile, TrainingConfig
from ..corpus.datasets import DatasetBundle, build_synth_gds, build_synth_nyt
from ..corpus.loader import BagEncoder
from ..corpus.store import CorpusStore
from ..eval.heldout import EvaluationResult, HeldOutEvaluator
from ..exceptions import ConfigurationError
from ..graph.embeddings import EntityEmbeddings, train_entity_embeddings
from ..graph.line import LineConfig
from ..graph.propagation import propagate_embeddings
from ..graph.proximity import EntityProximityGraph
from ..utils.artifacts import ArtifactCache, PathLike
from ..utils.logging import get_logger

logger = get_logger("experiments")

DATASET_BUILDERS = {
    "nyt": build_synth_nyt,
    "gds": build_synth_gds,
}

# Process-wide default artifact cache, installed by set_default_cache().
_default_cache: Optional[ArtifactCache] = None

# Folded into every cache key.  Bump whenever the *code* behind a cached
# stage changes meaning (encoder semantics, graph weighting, file layout in a
# backward-readable way) — configuration changes invalidate through the key
# hash automatically, code changes only through this constant.
# Version 2: array-native graph engine — id-encoded proximity-graph files,
# chunked LINE sampling (new RNG stream) and the optional propagation stage.
# Version 3: columnar corpus store — encoded corpora persist as one columnar
# npz (CorpusStore format v2) instead of per-bag key sets; the legacy layout
# stays readable through CorpusStore.load.
# Version 4: out-of-core corpus engine — new ScaleProfile knobs reshape the
# profile dict inside every key, and mmap mode persists encoded corpora as
# format-v3 shard directories under the 'encoded_store' kind.
PIPELINE_CACHE_VERSION = 4


def set_default_cache(cache: Optional[ArtifactCache]) -> Optional[ArtifactCache]:
    """Install (or clear, with ``None``) the default artifact cache.

    Experiment modules call :func:`prepare_context` with no ``cache``
    argument; installing a default here lets a caller (the CLI, the
    benchmark harness, a serving process) turn on artifact reuse for every
    context built afterwards.  Returns the previously installed cache.
    """
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def get_default_cache() -> Optional[ArtifactCache]:
    """The currently installed default artifact cache, if any."""
    return _default_cache


@dataclass
class ExperimentContext:
    """Everything shared by the methods compared within one experiment."""

    dataset_name: str
    profile: ScaleProfile
    bundle: DatasetBundle
    proximity_graph: EntityProximityGraph
    entity_embeddings: EntityEmbeddings
    bag_encoder: BagEncoder
    # Columnar stores; both iterate/index as sequences of EncodedBag views,
    # and the batched training/serving paths consume their offsets directly.
    train_encoded: CorpusStore
    test_encoded: CorpusStore
    evaluator: HeldOutEvaluator
    model_config: ModelConfig
    training_config: TrainingConfig
    seed: int = 0
    _method_cache: Dict[str, Tuple[RelationExtractionMethod, EvaluationResult]] = field(
        default_factory=dict, repr=False
    )

    @property
    def num_relations(self) -> int:
        return self.bundle.schema.num_relations

    @property
    def vocab_size(self) -> int:
        return len(self.bundle.vocabulary)


def prepare_context(
    dataset: str = "nyt",
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    max_sentences_per_bag: int = 6,
    max_sentence_length: int = 25,
    cache: Optional[ArtifactCache] = None,
    cache_dir: Optional[PathLike] = None,
) -> ExperimentContext:
    """Build the shared experiment context for one dataset.

    ``max_sentences_per_bag`` and ``max_sentence_length`` cap the encoding
    cost; the synthetic sentences are short, so 40 tokens is lossless, and a
    handful of sentences per bag is what selective attention needs to show
    its effect.

    When an :class:`ArtifactCache` is available — passed as ``cache``, built
    from ``cache_dir``, or installed via :func:`set_default_cache` — the
    proximity graph, the LINE entity embeddings and the encoded train/test
    corpora are loaded from it when their configuration hash matches and
    persisted after being built otherwise.

    When the profile requests ``propagation_layers > 0``, the LINE vectors
    are additionally smoothed over the proximity graph
    (:func:`repro.graph.propagate_embeddings`) before any consumer sees
    them; the propagated embeddings are cached under their own key.
    """
    dataset = dataset.lower()
    if dataset not in DATASET_BUILDERS:
        raise ConfigurationError(f"unknown dataset '{dataset}' (expected 'nyt' or 'gds')")
    profile = profile or ScaleProfile.small()
    config = ExperimentConfig.for_profile(profile, seed=seed)
    # Fail fast on out-of-range knobs (e.g. a mistyped --propagation-alpha)
    # before any expensive stage runs.
    config.validate()
    if cache is None:
        cache = ArtifactCache(cache_dir) if cache_dir is not None else _default_cache
    if cache is None:
        # Disabled cache: every lookup builds, nothing is written — one code
        # path whether or not caching is on.
        cache = ArtifactCache(enabled=False)

    logger.info("building %s dataset (profile=%s, seed=%d)", dataset, profile.name, seed)
    bundle = DATASET_BUILDERS[dataset](profile, seed=seed)

    logger.info("building proximity graph from %d unlabeled sentences", len(bundle.unlabeled_sentences))
    profile_key = asdict(profile)
    # The propagation knobs only shape the propagated_embeddings stage; keep
    # them out of the shared stage key so toggling propagation reuses the
    # graph / LINE / encoded-corpus artifacts.
    profile_key.pop("propagation_layers", None)
    profile_key.pop("propagation_alpha", None)
    # The out-of-core knobs change how encoded corpora are produced and
    # stored, never what they contain: parallel encode is bitwise equal to
    # serial, and the npz-vs-shard-directory layouts live under different
    # cache kinds.  Keep them out of every stage key so toggling them reuses
    # artifacts.
    profile_key.pop("encode_workers", None)
    profile_key.pop("mmap", None)
    profile_key.pop("stream_num_bags", None)
    # The streaming-ingest knobs only shape post-context refresh rounds
    # (repro.ingest); the batch artifacts they start from are identical.
    profile_key.pop("ingest_batch_bags", None)
    profile_key.pop("ingest_keep_versions", None)
    profile_key.pop("ingest_poll_interval_ms", None)
    profile_key.pop("ingest_finetune_epochs", None)
    stage_key = {
        "dataset": dataset,
        "profile": profile_key,
        "seed": seed,
        "format": PIPELINE_CACHE_VERSION,
    }
    graph_key = {**stage_key, "min_cooccurrence": config.graph.min_cooccurrence}
    line_config = LineConfig(
        embedding_dim=config.graph.embedding_dim,
        negative_samples=config.graph.negative_samples,
        learning_rate=config.graph.learning_rate,
        epochs=config.graph.epochs,
        batch_edges=config.graph.batch_edges,
        seed=seed,
    )
    def _build_graph() -> EntityProximityGraph:
        # Prefer the bundle's array-native pair view (no dict round-trip);
        # ad-hoc bundles without one fall back to the counts mapping.
        if bundle.pair_arrays is not None:
            return EntityProximityGraph.from_pair_arrays(
                *bundle.pair_arrays, min_cooccurrence=config.graph.min_cooccurrence
            )
        return EntityProximityGraph.from_counts(
            bundle.pair_cooccurrence, min_cooccurrence=config.graph.min_cooccurrence
        )

    graph = cache.get_or_build(
        "proximity_graph",
        graph_key,
        build=_build_graph,
        save=lambda value, path: value.save(path),
        load=EntityProximityGraph.load,
    )
    # The embeddings depend on the graph, so their key includes the graph key.
    line_key = {**graph_key, "line": asdict(line_config)}
    embeddings = cache.get_or_build(
        "line_embeddings",
        line_key,
        build=lambda: train_entity_embeddings(graph, line_config),
        save=lambda value, path: value.save(path),
        load=EntityEmbeddings.load,
    )
    if config.graph.propagation_layers > 0:
        # Optional refinement stage: APPNP-style smoothing of the LINE
        # vectors over the proximity graph (CSR matvec).  Cached separately —
        # its key extends the LINE key, so toggling the knob never clashes
        # with the raw embeddings artifact.
        line_embeddings = embeddings
        embeddings = cache.get_or_build(
            "propagated_embeddings",
            {
                **line_key,
                "propagation": {
                    "layers": config.graph.propagation_layers,
                    "alpha": config.graph.propagation_alpha,
                },
            },
            build=lambda: propagate_embeddings(
                graph,
                line_embeddings,
                num_layers=config.graph.propagation_layers,
                alpha=config.graph.propagation_alpha,
            ),
            save=lambda value, path: value.save(path),
            load=EntityEmbeddings.load,
        )

    encoder = BagEncoder(
        bundle.vocabulary,
        max_sentence_length=max_sentence_length,
        max_position_distance=config.model.max_position_distance,
        max_sentences_per_bag=max_sentences_per_bag,
    )
    encoder_key = {
        **stage_key,
        "max_sentence_length": max_sentence_length,
        "max_position_distance": config.model.max_position_distance,
        "max_sentences_per_bag": max_sentences_per_bag,
    }
    train_encoded = _encoded_split(
        cache,
        encoder,
        bundle.train.bags,
        {**encoder_key, "split": "train"},
        mmap=profile.mmap,
        workers=profile.encode_workers,
    )
    test_encoded = _encoded_split(
        cache,
        encoder,
        bundle.test.bags,
        {**encoder_key, "split": "test"},
        mmap=profile.mmap,
        workers=profile.encode_workers,
    )
    evaluator = HeldOutEvaluator(test_encoded, bundle.schema.num_relations)

    return ExperimentContext(
        dataset_name=bundle.name,
        profile=profile,
        bundle=bundle,
        proximity_graph=graph,
        entity_embeddings=embeddings,
        bag_encoder=encoder,
        train_encoded=train_encoded,
        test_encoded=test_encoded,
        evaluator=evaluator,
        model_config=config.model,
        training_config=config.training,
        seed=seed,
    )


def _encoded_split(
    cache: ArtifactCache,
    encoder: BagEncoder,
    bags,
    key: Dict,
    mmap: bool = False,
    workers: int = 0,
) -> CorpusStore:
    """Encode one train/test split through the cache, in-RAM or out-of-core.

    The default path is unchanged from earlier versions: encode (optionally
    in parallel — bitwise identical to serial), persist as a single columnar
    npz under the ``encoded_bags`` kind, load fully into RAM.

    With ``mmap=True`` the split persists as a format-v3 shard directory
    under the separate ``encoded_store`` kind and is *memmapped* rather than
    materialised, so downstream training/evaluation/serving touch only the
    rows they index.  When caching is disabled there is no directory to keep
    the shards in, so the split encodes into a process-lifetime temporary
    directory instead.
    """
    if not mmap:
        return cache.get_or_build(
            "encoded_bags",
            key,
            build=lambda: encoder.encode_store(bags, workers=workers),
            save=lambda value, path: value.save(path),
            load=CorpusStore.load,
        )
    if not cache.enabled:
        scratch = Path(tempfile.mkdtemp(prefix="repro-encoded-"))
        atexit.register(shutil.rmtree, scratch, ignore_errors=True)
        return encoder.encode_store(bags, workers=workers, out=scratch / "store", mmap=True)
    store = cache.get_or_build(
        "encoded_store",
        key,
        build=lambda: encoder.encode_store(bags, workers=workers),
        save=lambda value, path: value.save_sharded(path),
        load=lambda path: CorpusStore.load(path, mmap=True),
        suffix="store",
    )
    # On a miss get_or_build returns the freshly built in-RAM store; reload
    # the persisted shards memmapped so hits and misses behave identically.
    path = cache.path_for("encoded_store", key, suffix="store")
    if path.exists():
        return CorpusStore.load(path, mmap=True)
    return store


def resolve_context_datasets(
    context: Optional[ExperimentContext],
    datasets: Optional[Sequence[str]],
    default: Sequence[str] = ("nyt", "gds"),
) -> Tuple[Tuple[str, ...], Optional[Dict[str, ExperimentContext]]]:
    """Resolve the (datasets, contexts) pair for multi-dataset experiments.

    A prebuilt context is only valid for the dataset it was built from, so
    passing one restricts the run to that dataset; an explicit ``datasets``
    list that names anything else is a contradiction and raises
    :class:`ConfigurationError` (rather than silently narrowing the run —
    the recorded provenance must match what actually ran).  ``datasets=None``
    means "the default for this mode": ``default`` without a context, the
    context's own dataset with one.
    """
    if context is None:
        return tuple(datasets) if datasets is not None else tuple(default), None
    key = "gds" if "gds" in context.dataset_name.lower() else "nyt"
    if datasets is not None and tuple(datasets) != (key,):
        raise ConfigurationError(
            f"a prebuilt context serves only its own dataset ('{key}'); "
            f"drop datasets={tuple(datasets)!r} or prepare contexts per dataset"
        )
    return (key,), {key: context}


def train_and_evaluate(
    context: ExperimentContext,
    method_name: str,
    use_cache: bool = True,
) -> Tuple[RelationExtractionMethod, EvaluationResult]:
    """Train one method on the context's training set and evaluate it.

    Results are cached per (context, method name) so experiments that share a
    context (Table IV, Figure 4, Figures 6-7) train each method only once.
    """
    key = method_name.lower()
    if use_cache and key in context._method_cache:
        return context._method_cache[key]

    logger.info("training %s on %s", display_name(key), context.dataset_name)
    method = build_method(
        key,
        vocab_size=context.vocab_size,
        num_relations=context.num_relations,
        model_config=context.model_config,
        training_config=context.training_config,
        kb=context.bundle.kb,
        entity_embeddings=context.entity_embeddings,
        seed=context.seed,
    )
    method.fit(context.train_encoded)
    result = context.evaluator.evaluate(
        method.predict_probabilities, model_name=display_name(key)
    )
    if use_cache:
        context._method_cache[key] = (method, result)
    return method, result


def evaluate_methods(
    context: ExperimentContext,
    method_names: Sequence[str],
) -> Dict[str, EvaluationResult]:
    """Train and evaluate several methods on the same context."""
    results: Dict[str, EvaluationResult] = {}
    for name in method_names:
        _, result = train_and_evaluate(context, name)
        results[name] = result
    return results
