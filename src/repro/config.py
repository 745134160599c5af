"""Configuration objects for models, training and experiments.

The default hyper-parameters follow Table III of the paper:

=====================  =====================================  =====
symbol                 description                            value
=====================  =====================================  =====
``ke``                 entity embedding size                  128
``kt``                 entity type embedding size             20
``l``                  CNN window size                        3
``k``                  number of CNN filters                  230
``kp``                 position embedding dimension           5
``kw``                 word embedding dimension               50
``lr``                 learning rate (SGD)                    0.3
``max_length``         maximum sentence length                120
``p``                  dropout probability                    0.5
``n``                  batch size                             160
=====================  =====================================  =====

Experiments at full paper scale are far too slow for a pure-numpy substrate,
so :class:`ScaleProfile` additionally captures the synthetic-dataset and
training scale used by the tests ("tiny"), the benchmark harness ("small") and
optional longer runs ("medium").
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Dict, Optional

from .exceptions import ConfigurationError

#: Compute dtypes the training and serving paths accept: ``"float64"`` is
#: the reference numerics; ``"float32"`` trades ~1e-5 of precision for
#: throughput (see the parity contract in ``docs/architecture.md``).
DTYPES = ("float64", "float32")


def check_dtype(dtype: str) -> str:
    """Return ``dtype`` if it names a supported compute dtype, else raise."""
    if dtype not in DTYPES:
        raise ConfigurationError(
            f"unknown compute dtype {dtype!r}; choose one of {', '.join(DTYPES)}"
        )
    return dtype


@dataclass
class ModelConfig:
    """Hyper-parameters of the neural RE models (paper Table III)."""

    entity_embedding_dim: int = 128      # ke — LINE embedding size (1st + 2nd order concat)
    type_embedding_dim: int = 20         # kt
    window_size: int = 3                 # l — CNN sliding window
    num_filters: int = 230               # k
    position_embedding_dim: int = 5      # kp
    word_embedding_dim: int = 50         # kw
    learning_rate: float = 0.3           # lr for SGD
    max_sentence_length: int = 120       # sentence max length
    dropout: float = 0.5                 # p
    batch_size: int = 160                # n
    gru_hidden_dim: int = 100            # hidden size for GRU-based encoders
    max_position_distance: int = 60      # clip for relative position features

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if any value is out of range."""
        if self.entity_embedding_dim <= 0 or self.entity_embedding_dim % 2 != 0:
            raise ConfigurationError(
                "entity_embedding_dim must be a positive even number "
                "(it is split between first- and second-order LINE embeddings)"
            )
        positive_fields = {
            "type_embedding_dim": self.type_embedding_dim,
            "window_size": self.window_size,
            "num_filters": self.num_filters,
            "position_embedding_dim": self.position_embedding_dim,
            "word_embedding_dim": self.word_embedding_dim,
            "max_sentence_length": self.max_sentence_length,
            "batch_size": self.batch_size,
            "gru_hidden_dim": self.gru_hidden_dim,
            "max_position_distance": self.max_position_distance,
        }
        for name, value in positive_fields.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if not 0 < self.learning_rate:
            raise ConfigurationError("learning_rate must be positive")
        if not 0 <= self.dropout < 1:
            raise ConfigurationError("dropout must be in [0, 1)")

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)

    @classmethod
    def paper_defaults(cls) -> "ModelConfig":
        """The exact Table III settings."""
        return cls()

    @classmethod
    def scaled(cls, factor: float) -> "ModelConfig":
        """A smaller model for tests/benchmarks; ``factor`` in (0, 1]."""
        if not 0 < factor <= 1:
            raise ConfigurationError("scale factor must be in (0, 1]")
        base = cls()
        # The LINE entity embedding is cheap to train, so benchmark-scale
        # profiles (factor >= 0.2) keep at least 64 dimensions; only the test
        # profile shrinks it further.
        entity_dim_floor = 64 if factor >= 0.2 else 8
        return cls(
            entity_embedding_dim=max(entity_dim_floor, int(base.entity_embedding_dim * factor) // 2 * 2),
            type_embedding_dim=max(2, int(base.type_embedding_dim * factor)),
            window_size=base.window_size,
            num_filters=max(4, int(base.num_filters * factor)),
            position_embedding_dim=base.position_embedding_dim,
            word_embedding_dim=max(8, int(base.word_embedding_dim * factor)),
            learning_rate=base.learning_rate,
            max_sentence_length=base.max_sentence_length,
            dropout=base.dropout,
            batch_size=max(8, int(base.batch_size * factor)),
            gru_hidden_dim=max(8, int(base.gru_hidden_dim * factor)),
            max_position_distance=base.max_position_distance,
        )


@dataclass
class TrainingConfig:
    """Training-loop settings shared by all models.

    The paper trains with SGD at learning rate 0.3 over hundreds of thousands
    of bags; at the reduced synthetic scale the experiments default to Adam
    (see :meth:`ScaleProfile.training_config`), which reaches the same
    operating regime in a handful of epochs.  The dataclass defaults remain
    the paper's Table III values.
    """

    epochs: int = 3
    batch_size: int = 160
    learning_rate: float = 0.3
    optimizer: str = "sgd"               # "sgd" | "adam"
    weight_decay: float = 0.0
    grad_clip: Optional[float] = 5.0
    na_class_weight: float = 0.25        # down-weight the dominant NA relation
    shuffle: bool = True
    log_every: int = 0                   # batches between log lines; 0 disables
    seed: int = 0
    # One vectorized forward/backward per padded mini-batch (repro.batch)
    # instead of a per-bag python loop; same losses and gradients to float64
    # round-off, several times faster per epoch.  Models the batched layer
    # does not understand fall back to the per-bag loop automatically.
    batched_training: bool = True
    # Compute dtype of the batched forward/backward graph.  "float32" keeps
    # float64 master weights in the optimizer (losses and final parameters
    # match the float64 run to an explicit tolerance — see
    # docs/architecture.md for the parity contract).
    dtype: str = "float64"

    def validate(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.optimizer not in {"sgd", "adam"}:
            raise ConfigurationError(f"unknown optimizer '{self.optimizer}'")
        if self.na_class_weight <= 0:
            raise ConfigurationError("na_class_weight must be positive")
        check_dtype(self.dtype)


@dataclass
class GraphEmbeddingConfig:
    """Settings for the entity proximity graph and LINE embedding stage."""

    embedding_dim: int = 128              # total (first-order + second-order halves)
    negative_samples: int = 5             # K in the simplified O2 objective
    learning_rate: float = 0.05
    epochs: int = 30                      # passes over the edge set (edge sampling)
    batch_edges: int = 256
    min_cooccurrence: int = 1             # threshold to create a proximity edge
    # Graph-propagation refinement of the LINE embeddings (APPNP-style CSR
    # smoothing over the proximity graph); 0 layers keeps raw LINE output.
    propagation_layers: int = 0
    propagation_alpha: float = 0.5        # residual weight on the original vectors
    seed: int = 0

    def validate(self) -> None:
        if self.embedding_dim <= 0 or self.embedding_dim % 2 != 0:
            raise ConfigurationError("embedding_dim must be a positive even number")
        if self.negative_samples <= 0:
            raise ConfigurationError("negative_samples must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.batch_edges <= 0:
            raise ConfigurationError("batch_edges must be positive")
        if self.min_cooccurrence < 1:
            raise ConfigurationError("min_cooccurrence must be >= 1")
        if self.propagation_layers < 0:
            raise ConfigurationError("propagation_layers must be >= 0 (0 disables)")
        if not 0.0 <= self.propagation_alpha <= 1.0:
            raise ConfigurationError("propagation_alpha must be in [0, 1]")


@dataclass
class DaemonConfig:
    """Knobs of the online serving daemon (:mod:`repro.serve.daemon`).

    The daemon coalesces single-bag requests into padded batches under a
    latency deadline: a batch is dispatched as soon as ``max_batch_size``
    requests are waiting or ``max_wait_ms`` has elapsed since the oldest
    queued request, whichever comes first.  ``max_wait_ms=0`` disables
    coalescing (every request becomes its own batch, the lowest-latency /
    lowest-throughput setting).
    """

    max_batch_size: int = 32       # requests coalesced into one forward pass
    max_wait_ms: float = 2.0       # deadline before a partial batch dispatches
    queue_limit: int = 256         # queued + in-flight requests before backpressure
    num_workers: int = 1           # executor threads running the vectorized forward
    latency_window: int = 4096     # latency samples kept for quantile estimates

    def validate(self) -> None:
        if self.max_batch_size <= 0:
            raise ConfigurationError("max_batch_size must be positive")
        if self.max_wait_ms < 0:
            raise ConfigurationError("max_wait_ms must be >= 0 (0 disables coalescing)")
        if self.queue_limit <= 0:
            raise ConfigurationError("queue_limit must be positive")
        if self.num_workers <= 0:
            raise ConfigurationError("num_workers must be positive")
        if self.latency_window <= 0:
            raise ConfigurationError("latency_window must be positive")

    @property
    def max_wait_seconds(self) -> float:
        """The coalescing deadline in seconds (the clock unit the daemon uses)."""
        return self.max_wait_ms / 1000.0

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


@dataclass
class IngestConfig:
    """Knobs of the streaming ingest loop (:mod:`repro.ingest`).

    One :meth:`~repro.ingest.stream.StreamIngestor.ingest` round appends a
    delta of new bags, refinalizes the proximity graph, fine-tunes the LINE
    embeddings on the dirty neighbourhood and publishes a fresh artifact
    version.  ``propagation_layers``/``propagation_alpha`` mirror the batch
    pipeline's knobs so the ingestor's embedding state stays comparable with
    a prepared context's.
    """

    batch_bags: int = 64           # bags per synthetic-stream ingest round (CLI)
    keep_versions: int = 3         # version-store retention (0 disables pruning)
    poll_interval_ms: float = 50.0 # daemon watch poll cadence
    finetune_epochs: int = 2       # passes over dirty-incident edges per round
    propagation_layers: int = 0    # 0 = raw LINE embeddings (no propagation)
    propagation_alpha: float = 0.5

    def validate(self) -> None:
        if self.batch_bags <= 0:
            raise ConfigurationError("batch_bags must be positive")
        if self.keep_versions < 0:
            raise ConfigurationError("keep_versions must be >= 0 (0 disables pruning)")
        if self.poll_interval_ms <= 0:
            raise ConfigurationError("poll_interval_ms must be positive")
        if self.finetune_epochs < 0:
            raise ConfigurationError("finetune_epochs must be >= 0")
        if self.propagation_layers < 0:
            raise ConfigurationError("propagation_layers must be >= 0 (0 disables)")
        if not 0.0 <= self.propagation_alpha <= 1.0:
            raise ConfigurationError("propagation_alpha must be in [0, 1]")

    @property
    def poll_interval_seconds(self) -> float:
        """The watch cadence in seconds (the unit the daemon's poller uses)."""
        return self.poll_interval_ms / 1000.0

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


@dataclass
class ScaleProfile:
    """Scale of the synthetic datasets and training runs.

    The paper's NYT corpus has ~522k training sentences; the numpy substrate
    cannot train at that scale in reasonable time, so experiments run on
    configurable reductions whose statistical structure (relation counts,
    long-tail pair frequencies, label noise) matches the original datasets.
    """

    name: str = "small"
    nyt_num_entities: int = 300
    nyt_num_entity_pairs: int = 420
    nyt_num_relations: int = 20
    gds_num_entities: int = 130
    gds_num_entity_pairs: int = 200
    gds_num_relations: int = 5
    unlabeled_sentences_per_pair: float = 8.0
    epochs: int = 12
    model_scale: float = 0.25
    learning_rate: float = 0.01
    optimizer: str = "adam"
    batched_training: bool = True        # vectorized padded-batch training loop
    # Graph-propagation refinement of the entity embeddings (0 = off, the
    # raw-LINE behaviour); forwarded into GraphEmbeddingConfig by
    # ExperimentConfig.for_profile and settable via ``python -m repro run``.
    propagation_layers: int = 0
    propagation_alpha: float = 0.5
    # Online serving daemon knobs (repro.serve.daemon), forwarded into
    # DaemonConfig by daemon_config(); the benchmark harness and the CLI's
    # `serve --daemon` path read them from the profile.
    daemon_max_batch_size: int = 32
    daemon_max_wait_ms: float = 2.0
    daemon_queue_limit: int = 256
    daemon_workers: int = 1
    # Out-of-core corpus engine knobs (PR 7).  `encode_workers` > 1 fans
    # BagEncoder.encode_store out over forked workers (0/1 = serial, the
    # deterministic tier-1 default — parallel results are bitwise identical,
    # serial just avoids fork overhead at test scale).  `mmap` makes
    # prepare_context persist encoded corpora as format-v3 shard directories
    # and hand out memmapped stores instead of materialising them.
    # `stream_num_bags` sizes the generator-backed synthetic corpus the
    # out-of-core benchmarks use (0 = not an out-of-core profile).
    encode_workers: int = 0
    mmap: bool = False
    stream_num_bags: int = 0
    # Streaming ingest knobs (repro.ingest), forwarded into IngestConfig by
    # ingest_config(); the `python -m repro ingest` subcommand and the
    # streaming benchmark read them from the profile.
    ingest_batch_bags: int = 64
    ingest_keep_versions: int = 3
    ingest_poll_interval_ms: float = 50.0
    ingest_finetune_epochs: int = 2

    @classmethod
    def tiny(cls) -> "ScaleProfile":
        """Used by the unit/integration tests."""
        return cls(
            name="tiny",
            nyt_num_entities=80,
            nyt_num_entity_pairs=160,
            nyt_num_relations=12,
            gds_num_entities=50,
            gds_num_entity_pairs=90,
            gds_num_relations=5,
            unlabeled_sentences_per_pair=4.0,
            epochs=6,
            model_scale=0.1,
        )

    @classmethod
    def small(cls) -> "ScaleProfile":
        """Default for the benchmark harness."""
        return cls()

    @classmethod
    def medium(cls) -> "ScaleProfile":
        """Longer runs for users with more patience."""
        return cls(
            name="medium",
            nyt_num_entities=1200,
            nyt_num_entity_pairs=3000,
            nyt_num_relations=53,
            gds_num_entities=500,
            gds_num_entity_pairs=1000,
            gds_num_relations=5,
            unlabeled_sentences_per_pair=10.0,
            epochs=15,
            model_scale=0.5,
        )

    @classmethod
    def huge(cls) -> "ScaleProfile":
        """The out-of-core profile: a million-bag synthetic stream corpus.

        Dataset/model fields match :meth:`medium` (running a tabular
        experiment at ``huge`` behaves like ``medium``); what makes it huge
        is the generator-backed stream corpus (``stream_num_bags``) consumed
        by ``benchmarks/test_bench_outofcore.py``, encoded with parallel
        workers and served from memmapped format-v3 shards — none of which
        fits the in-RAM path at this scale.
        """
        profile = cls.medium()
        profile.name = "huge"
        profile.stream_num_bags = 1_000_000
        profile.encode_workers = 2
        profile.mmap = True
        return profile

    def model_config(self) -> ModelConfig:
        """Model configuration scaled to this profile."""
        return ModelConfig.scaled(self.model_scale)

    def training_config(self, seed: int = 0) -> TrainingConfig:
        """Training configuration scaled to this profile.

        Uses Adam at a small learning rate instead of the paper's SGD-0.3:
        with only a few hundred synthetic bags the models need an optimiser
        that converges in ~10 epochs to reach the regime the paper's models
        reach after passes over 280k bags.
        """
        config = TrainingConfig(
            epochs=self.epochs,
            optimizer=self.optimizer,
            learning_rate=self.learning_rate,
            seed=seed,
            batched_training=self.batched_training,
        )
        config.batch_size = max(8, min(32, self.model_config().batch_size))
        return config

    def ingest_config(self) -> IngestConfig:
        """Streaming-ingest configuration scaled to this profile.

        Inherits the profile's propagation knobs so an ingestor built from a
        prepared context starts from embedding state bit-equal to the
        context's.
        """
        config = IngestConfig(
            batch_bags=self.ingest_batch_bags,
            keep_versions=self.ingest_keep_versions,
            poll_interval_ms=self.ingest_poll_interval_ms,
            finetune_epochs=self.ingest_finetune_epochs,
            propagation_layers=self.propagation_layers,
            propagation_alpha=self.propagation_alpha,
        )
        config.validate()
        return config

    def daemon_config(self) -> DaemonConfig:
        """Serving-daemon configuration scaled to this profile."""
        config = DaemonConfig(
            max_batch_size=self.daemon_max_batch_size,
            max_wait_ms=self.daemon_max_wait_ms,
            queue_limit=self.daemon_queue_limit,
            num_workers=self.daemon_workers,
        )
        config.validate()
        return config


@dataclass
class ExperimentConfig:
    """Everything an experiment module needs to run end to end."""

    profile: ScaleProfile = field(default_factory=ScaleProfile.small)
    model: ModelConfig = field(default_factory=ModelConfig.paper_defaults)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    graph: GraphEmbeddingConfig = field(default_factory=GraphEmbeddingConfig)
    seed: int = 0

    def validate(self) -> None:
        self.model.validate()
        self.training.validate()
        self.graph.validate()

    @classmethod
    def for_profile(cls, profile: ScaleProfile, seed: int = 0) -> "ExperimentConfig":
        """Build a consistent configuration for a scale profile."""
        model = profile.model_config()
        graph = GraphEmbeddingConfig(
            embedding_dim=model.entity_embedding_dim,
            propagation_layers=profile.propagation_layers,
            propagation_alpha=profile.propagation_alpha,
            seed=seed,
        )
        return cls(
            profile=profile,
            model=model,
            training=profile.training_config(seed=seed),
            graph=graph,
            seed=seed,
        )
