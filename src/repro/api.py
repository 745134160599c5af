"""Top-level facade: one object tying experiments, training and serving together.

:class:`Session` replaces the process-global
:func:`repro.experiments.pipeline.set_default_cache` pattern with explicit
state: a session owns its scale profile, seed and artifact cache (shared by
everything it runs), keeps one prepared
:class:`~repro.experiments.pipeline.ExperimentContext` per dataset for its
training/serving helpers, and exposes the full model lifecycle::

    import repro

    session = repro.Session(profile="tiny", seed=0, cache_dir="~/.cache/repro")
    result = session.run("table4")                  # ExperimentResult
    method, evaluation = session.train("pa_tmr")    # train + held-out eval
    session.save_checkpoint("./ckpt", method)       # versioned checkpoint
    service = repro.api.load_service("./ckpt")      # cold-start serving

The legacy global still works (the CLI and old scripts use it); sessions
never touch it except for the scoped install around each experiment run.
"""

from __future__ import annotations

import copy
import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .cli import resolve_profile
from .config import DaemonConfig, IngestConfig, ScaleProfile
from .eval.heldout import EvaluationResult
from .experiments import registry
from .experiments.pipeline import ExperimentContext, prepare_context, train_and_evaluate
from .experiments.registry import ExperimentSpec
from .experiments.results import ExperimentResult
from .serve.daemon import ServingDaemon
from .serve.service import PredictionService
from .utils.artifacts import ArtifactCache
from .utils.checkpoint import checkpointable_model

PathLike = Union[str, Path]


def load_service(checkpoint: PathLike, batch_size: int = 32) -> PredictionService:
    """Cold-start a :class:`PredictionService` from a checkpoint directory."""
    return PredictionService.from_checkpoint(checkpoint, batch_size=batch_size)


class Session:
    """Explicit experiment/model-lifecycle state.

    Parameters
    ----------
    profile:
        A profile name (``"tiny"`` / ``"small"`` / ``"medium"``) or a
        :class:`ScaleProfile` instance.
    seed:
        Default seed for every context and experiment of this session.
    cache / cache_dir:
        Optional artifact cache (or a directory to build one in); expensive
        pipeline stages are shared across everything the session runs.
    """

    def __init__(
        self,
        profile: Union[str, ScaleProfile] = "small",
        seed: int = 0,
        cache: Optional[ArtifactCache] = None,
        cache_dir: Optional[PathLike] = None,
    ) -> None:
        self.profile = resolve_profile(profile)
        self.seed = seed
        if cache is None and cache_dir is not None:
            cache = ArtifactCache(cache_dir)
        self.cache = cache
        self._contexts: Dict[str, ExperimentContext] = {}

    # ------------------------------------------------------------------ #
    # Contexts
    # ------------------------------------------------------------------ #
    def context(self, dataset: str = "nyt") -> ExperimentContext:
        """The prepared experiment context for ``dataset`` (built once)."""
        key = dataset.lower()
        if key not in self._contexts:
            self._contexts[key] = prepare_context(
                key, profile=self.profile, seed=self.seed, cache=self.cache
            )
        return self._contexts[key]

    # ------------------------------------------------------------------ #
    # Experiments
    # ------------------------------------------------------------------ #
    def experiments(self) -> List[ExperimentSpec]:
        """Specs of every experiment this session can run."""
        return registry.experiment_specs()

    def run(self, experiment: str, **params) -> ExperimentResult:
        """Run one registered experiment under this session's profile/seed/cache.

        Each run prepares its own pipeline context (reusing the session's
        artifact cache, so the expensive stages are shared); to also reuse a
        context's trained-method cache, pass it explicitly::

            session.run("figure6", context=session.context("nyt"))
        """
        return registry.run(
            experiment, self.profile, seed=self.seed, cache=self.cache, **params
        )

    def run_all(self, experiments: Optional[List[str]] = None) -> Dict[str, ExperimentResult]:
        """Run several (default: all) experiments; returns ``{name: result}``."""
        names = experiments if experiments is not None else registry.available_experiments()
        return {name: self.run(name) for name in names}

    # ------------------------------------------------------------------ #
    # Model lifecycle
    # ------------------------------------------------------------------ #
    def train(
        self,
        method: str = "pa_tmr",
        dataset: str = "nyt",
        dtype: Optional[str] = None,
    ) -> Tuple[object, EvaluationResult]:
        """Train one method on the session context and evaluate it held-out.

        Returns the fitted :class:`~repro.baselines.api.RelationExtractionMethod`
        and its :class:`EvaluationResult`; repeated calls reuse the context's
        per-method cache.

        ``dtype`` sets the training compute dtype for this call (``"float32"``
        runs float32 activations with float64 master weights; see
        ``docs/architecture.md``); ``None`` keeps the context's configured
        one.  A dtype that differs from the context's bypasses the
        per-method cache — the cache is keyed by method name only, and
        results trained at a different dtype must not be conflated.
        """
        context = self.context(dataset)
        if dtype is None or dtype == context.training_config.dtype:
            return train_and_evaluate(context, method)
        original = context.training_config
        context.training_config = dataclasses.replace(original, dtype=dtype)
        try:
            return train_and_evaluate(context, method, use_cache=False)
        finally:
            context.training_config = original

    def save_checkpoint(
        self,
        path: PathLike,
        method_or_model,
        dataset: str = "nyt",
        metadata: Optional[Dict] = None,
    ) -> Path:
        """Save a servable checkpoint for a trained method or model.

        The session context supplies the bag encoder, relation schema and
        knowledge base, so :func:`load_service` can cold-start the exact
        training-time serving setup from the written directory.  Methods
        without a :class:`NeuralREModel` (the feature baselines, CNN+RL)
        raise :class:`~repro.exceptions.UsageError`, matching the CLI.
        """
        model = checkpointable_model(method_or_model)
        context = self.context(dataset)
        return model.save(
            path,
            encoder=context.bag_encoder,
            schema=context.bundle.schema,
            kb=context.bundle.kb,
            metadata=metadata,
        )

    def service(
        self,
        method_or_model,
        dataset: str = "nyt",
        batch_size: int = 32,
        dtype: str = "float64",
    ) -> PredictionService:
        """An in-process :class:`PredictionService` over a trained method/model.

        Also accepts a method *name* (``session.service("pa_tmr")``): the
        method is trained through :meth:`train` first, reusing the context's
        per-method cache, so repeated calls do not retrain.

        ``dtype`` is the serving compute dtype (``"float64"`` or
        ``"float32"``; see :class:`PredictionService`).
        """
        if isinstance(method_or_model, str):
            method_or_model = self.train(method_or_model, dataset=dataset)[0]
        model = checkpointable_model(method_or_model)
        return PredictionService.from_context(
            self.context(dataset),
            model,
            batch_size=batch_size,
            dtype=dtype,
        )

    def ingestor(
        self,
        method_or_model=None,
        dataset: str = "nyt",
        version_root: Optional[PathLike] = None,
        config: Optional[IngestConfig] = None,
    ):
        """A :class:`~repro.ingest.StreamIngestor` over this session's context.

        ``method_or_model`` may be a method name (trained through the cached
        context first), a fitted method, a :class:`NeuralREModel`, or ``None``
        for a model-free ingestor (corpus/graph/embedding refresh without
        checkpoint publishing).  The model is deep-copied: ingest rounds swap
        its mutual-relation entity table, and the session's cached trained
        methods must stay untouched.

        ``version_root`` names a directory for an
        :class:`~repro.ingest.ArtifactVersionStore`; without one, refreshes
        stay in-process and nothing publishes.  ``config`` defaults to the
        profile's :meth:`ScaleProfile.ingest_config`.
        """
        # Delayed import: the ingest package pulls the pipeline stack, which
        # the lightweight api module must not import at module load.
        from .ingest import ArtifactVersionStore, StreamIngestor

        model = None
        if method_or_model is not None:
            if isinstance(method_or_model, str):
                method_or_model = self.train(method_or_model, dataset=dataset)[0]
            model = copy.deepcopy(checkpointable_model(method_or_model))
        version_store = (
            ArtifactVersionStore(version_root) if version_root is not None else None
        )
        return StreamIngestor.from_context(
            self.context(dataset),
            model=model,
            config=config,
            version_store=version_store,
        )

    def daemon(
        self,
        method_or_model,
        dataset: str = "nyt",
        batch_size: int = 32,
        config: Optional[DaemonConfig] = None,
        dtype: str = "float64",
    ) -> ServingDaemon:
        """A :class:`ServingDaemon` over a trained method/model (not started).

        Like :meth:`service`, also accepts a method name
        (``session.daemon("pa_tmr")`` trains via the cached context first).

        The daemon coalesces concurrent single requests into padded batches
        (``config`` defaults to :class:`DaemonConfig`'s defaults: a free
        worker takes whatever is waiting).  Use it as a context manager —
        ``with session.daemon(method) as daemon: daemon.predict(...)`` — or
        call :meth:`~repro.serve.ServingDaemon.start` /
        :meth:`~repro.serve.ServingDaemon.close` explicitly.  See
        ``docs/daemon.md``.  ``dtype`` is the serving compute dtype, as in
        :meth:`service`.
        """
        service = self.service(
            method_or_model, dataset=dataset, batch_size=batch_size, dtype=dtype
        )
        return ServingDaemon(service, config=config)
