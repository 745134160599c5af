"""Subcommand command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run registered experiments (``python -m repro run table4 --profile tiny
    --format json``).  Reports go to stdout; ``--output-dir`` additionally
    writes one file per experiment (JSON for ``--format json``).
``list``
    List every registered experiment with its description.
``train``
    Train one method on a dataset and save a serving checkpoint
    (``python -m repro train --method pa_tmr --checkpoint ./ckpt``).
``serve``
    Load a checkpoint and answer a JSON file of prediction requests
    (``python -m repro serve --checkpoint ./ckpt --requests reqs.json``).
``ingest``
    Tail a synthetic delta stream through the streaming ingest loop
    (``python -m repro ingest --method pa_mr --rounds 3 --versions ./v``),
    printing one JSON report line per refresh round.

Exit codes follow the argparse convention: ``0`` success, ``1`` runtime
failure (corrupt checkpoint, broken data), ``2`` usage errors
(:class:`repro.exceptions.UsageError` — unknown experiment/method/profile
names, malformed request files).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Union

from .config import DTYPES, DaemonConfig, ScaleProfile
from .exceptions import ConfigurationError, ReproError, UsageError
from .experiments import registry
from .experiments.results import ExperimentResult
from .utils.artifacts import ArtifactCache
from .utils.tables import format_table

PROFILES: Dict[str, Callable[[], ScaleProfile]] = {
    "tiny": ScaleProfile.tiny,
    "small": ScaleProfile.small,
    "medium": ScaleProfile.medium,
    "huge": ScaleProfile.huge,
}


def resolve_profile(profile: Union[str, ScaleProfile, None]) -> ScaleProfile:
    """Turn a profile name (or an already-built profile) into a ScaleProfile."""
    if isinstance(profile, ScaleProfile):
        return profile
    if profile is None:
        return ScaleProfile.small()
    name = str(profile).lower()
    if name not in PROFILES:
        raise ConfigurationError(
            f"unknown profile '{profile}'; choose from {sorted(PROFILES)}"
        )
    return PROFILES[name]()


def apply_profile_overrides(
    profile: ScaleProfile,
    per_bag_training: bool = False,
    propagation_layers: Optional[int] = None,
    propagation_alpha: Optional[float] = None,
    epochs: Optional[int] = None,
    mmap: Optional[bool] = None,
    encode_workers: Optional[int] = None,
) -> ScaleProfile:
    """Apply the CLI's profile-tuning flags in place; returns the profile."""
    if per_bag_training:
        profile.batched_training = False
    if propagation_layers is not None:
        profile.propagation_layers = propagation_layers
    if propagation_alpha is not None:
        profile.propagation_alpha = propagation_alpha
    if epochs is not None:
        if epochs <= 0:
            raise ConfigurationError("--epochs must be positive")
        profile.epochs = epochs
    if mmap is not None:
        profile.mmap = mmap
    if encode_workers is not None:
        if encode_workers < 0:
            raise ConfigurationError("--encode-workers must be >= 0")
        profile.encode_workers = encode_workers
    return profile


# ---------------------------------------------------------------------- #
# run
# ---------------------------------------------------------------------- #
def execute_experiments(
    names: Sequence[str],
    profile: ScaleProfile,
    seed: int = 0,
    cache: Optional[ArtifactCache] = None,
    output_format: str = "text",
    output_dir: Optional[Union[str, Path]] = None,
    stream: Optional[TextIO] = None,
) -> List[ExperimentResult]:
    """Run experiments by name and emit reports; shared by both CLIs.

    ``names`` may contain ``"all"`` to select every registered experiment.
    With ``output_format="json"`` a single JSON document (object for one
    experiment, array for several) goes to ``stream``; ``output_dir``
    additionally persists one ``<name>.json`` / ``<name>.txt`` per
    experiment.
    """
    if output_format not in ("text", "json"):
        raise ConfigurationError(f"unknown output format '{output_format}'")
    stream = stream if stream is not None else sys.stdout
    resolved = registry.available_experiments() if "all" in names else list(names)
    for name in resolved:  # validate everything before running anything
        registry.get_experiment(name)

    results: List[ExperimentResult] = []
    for name in resolved:
        if output_format == "text":
            print(f"\n===== {name} (profile={profile.name}, seed={seed}) =====", file=stream)
        result = registry.run(name, profile, seed=seed, cache=cache)
        results.append(result)
        if output_format == "text":
            print(result.report, file=stream)
        if output_dir is not None:
            directory = Path(output_dir)
            if output_format == "json":
                result.save(directory / f"{name}.json")
            else:
                directory.mkdir(parents=True, exist_ok=True)
                (directory / f"{name}.txt").write_text(result.report + "\n", encoding="utf-8")
    if output_format == "json":
        payload: Any = results[0].to_dict() if len(results) == 1 else [r.to_dict() for r in results]
        json.dump(payload, stream, indent=2, allow_nan=False)
        stream.write("\n")
    return results


def _cmd_run(args: argparse.Namespace) -> int:
    profile = apply_profile_overrides(
        resolve_profile(args.profile),
        per_bag_training=args.per_bag_training,
        propagation_layers=args.propagation_layers,
        propagation_alpha=args.propagation_alpha,
        mmap=args.mmap,
        encode_workers=args.encode_workers,
    )
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    execute_experiments(
        args.experiments or ["table4"],
        profile,
        seed=args.seed,
        cache=cache,
        output_format=args.format,
        output_dir=args.output_dir,
    )
    if cache is not None and args.format == "text":
        print(f"\nartifact cache: {cache.stats.as_dict()} at {cache.root}")
    return 0


# ---------------------------------------------------------------------- #
# list
# ---------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.experiment_specs()
    if args.format == "json":
        payload = [
            {
                "name": spec.name,
                "report_kind": spec.report_kind,
                "description": spec.description,
                "default_params": spec.default_params,
            }
            for spec in specs
        ]
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    rows = [[spec.name, spec.report_kind, spec.description] for spec in specs]
    print(format_table(["experiment", "kind", "description"], rows, title="Registered experiments"))
    return 0


# ---------------------------------------------------------------------- #
# train
# ---------------------------------------------------------------------- #
def _cmd_train(args: argparse.Namespace) -> int:
    from .baselines.registry import is_checkpointable_method
    from .experiments.pipeline import prepare_context, train_and_evaluate
    from .utils.checkpoint import checkpointable_model

    # Fail fast on method typos and non-checkpointable methods before paying
    # for dataset/graph/embedding preparation and training.
    if not is_checkpointable_method(args.method):
        raise UsageError(
            f"method '{args.method}' does not produce a checkpointable neural "
            "model; choose a NeuralREModel-based method (e.g. pa_tmr, pcnn_att)"
        )
    profile = apply_profile_overrides(
        resolve_profile(args.profile),
        epochs=args.epochs,
        mmap=args.mmap,
        encode_workers=args.encode_workers,
    )
    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    context = prepare_context(args.dataset, profile=profile, seed=args.seed, cache=cache)
    if args.dtype is not None:
        context.training_config = dataclasses.replace(context.training_config, dtype=args.dtype)
    method, evaluation = train_and_evaluate(context, args.method)
    model = checkpointable_model(method)
    path = model.save(
        args.checkpoint,
        encoder=context.bag_encoder,
        schema=context.bundle.schema,
        kb=context.bundle.kb,
        metadata={
            "method": args.method,
            "dataset": args.dataset,
            "profile": profile.name,
            "seed": args.seed,
            "evaluation": evaluation.to_dict(include_curve=False),
        },
    )
    print(
        format_table(
            ["method", "AUC", "precision", "recall", "F1"],
            [[evaluation.model_name, evaluation.auc, evaluation.precision,
              evaluation.recall, evaluation.f1]],
            title=f"Trained {args.method} on {context.dataset_name} (profile={profile.name})",
        )
    )
    print(f"checkpoint: {path}")
    return 0


# ---------------------------------------------------------------------- #
# serve
# ---------------------------------------------------------------------- #
def _load_requests(path: Union[str, Path]):
    from .serve import PredictionRequest

    path = Path(path)
    if not path.exists():
        raise UsageError(f"requests file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise UsageError(f"requests file {path} is not valid JSON: {error}") from None
    if not isinstance(payload, list):
        raise UsageError("requests file must contain a JSON array of request objects")
    requests = []
    for index, entry in enumerate(payload):
        if not isinstance(entry, dict) or not {"head", "tail", "sentences"} <= set(entry):
            raise UsageError(
                f"request #{index} must be an object with 'head', 'tail' and 'sentences'"
            )
        if not isinstance(entry["sentences"], list):
            raise UsageError(f"request #{index}: 'sentences' must be a JSON array")
        sentences = [
            _parse_sentence(sentence, index) for sentence in entry["sentences"]
        ]
        requests.append(
            PredictionRequest(head=entry["head"], tail=entry["tail"], sentences=sentences)
        )
    return requests


def _parse_sentence(sentence, request_index: int):
    """One request sentence: a raw string or a [tokens, head_pos, tail_pos] triple."""
    if isinstance(sentence, str):
        return sentence
    if (
        isinstance(sentence, list)
        and len(sentence) == 3
        and isinstance(sentence[0], list)
        and all(isinstance(token, str) for token in sentence[0])
        and isinstance(sentence[1], int)
        and isinstance(sentence[2], int)
    ):
        return (sentence[0], sentence[1], sentence[2])
    raise UsageError(
        f"request #{request_index}: each sentence must be a string or a "
        "[tokens, head_position, tail_position] triple"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import PredictionService

    if args.stats and not args.daemon:
        raise UsageError("--stats requires --daemon (the offline path keeps no metrics)")
    # Parse the requests first: a malformed file should fail fast, before
    # paying the checkpoint hash-verify/rebuild cold start.
    requests = _load_requests(args.requests)
    service = PredictionService.from_checkpoint(
        args.checkpoint, batch_size=args.batch_size, dtype=args.dtype
    )
    if args.daemon:
        results, stats = _serve_via_daemon(service, requests, args)
    else:
        results, stats = service.predict_batch(requests, top_k=args.top_k), None
    payload = [
        {
            "head": result.head,
            "tail": result.tail,
            "predictions": [
                {
                    "relation": prediction.relation_name,
                    "relation_id": prediction.relation_id,
                    "confidence": prediction.confidence,
                }
                for prediction in result.predictions
            ],
        }
        for result in results
    ]
    text = json.dumps(payload, indent=2) + "\n"
    if args.output and args.output != "-":
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(text, encoding="utf-8")
        print(f"wrote {len(payload)} predictions to {output}")
    else:
        sys.stdout.write(text)
    if args.stats and stats is not None:
        # Stats go to stderr so stdout stays a clean predictions document.
        print(json.dumps(stats, indent=2, default=str), file=sys.stderr)
    return 0


def _serve_via_daemon(service, requests, args: argparse.Namespace):
    """Answer the request file through a :class:`ServingDaemon`.

    All requests are submitted up front (the closed queue of a file stands
    in for concurrent traffic, so the coalescer forms real multi-request
    batches) and gathered in order; the daemon is drained before returning.
    Returns ``(results, stats_snapshot)``.
    """
    from .serve import ServingDaemon

    config = DaemonConfig(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_limit=max(args.queue_limit, len(requests)),
        num_workers=args.workers,
    )
    config.validate()
    with ServingDaemon(service, config=config) as daemon:
        futures = [daemon.submit(request, top_k=args.top_k) for request in requests]
        results = [future.result() for future in futures]
        stats = daemon.stats()
    return results, stats


# ---------------------------------------------------------------------- #
# ingest
# ---------------------------------------------------------------------- #
def _cmd_ingest(args: argparse.Namespace) -> int:
    """Tail a synthetic delta stream through the streaming ingest loop.

    Each round generates ``--batch-bags`` knowledge-base-named delta bags,
    runs one :meth:`~repro.ingest.StreamIngestor.ingest` refresh and prints
    the round report as one JSON line (machine-readable: the CI streaming
    smoke parses version monotonicity out of these lines).
    """
    # Delayed import: api imports this module for resolve_profile.
    from .api import Session
    from .ingest import synthetic_delta_bags

    profile = resolve_profile(args.profile)
    if args.rounds <= 0:
        raise UsageError("--rounds must be positive")
    session = Session(profile=profile, seed=args.seed, cache_dir=args.cache_dir)
    config = profile.ingest_config()
    if args.batch_bags is not None:
        config.batch_bags = args.batch_bags
    if args.keep_versions is not None:
        config.keep_versions = args.keep_versions
    if args.finetune_epochs is not None:
        config.finetune_epochs = args.finetune_epochs
    config.validate()
    method = None if args.method.lower() in ("none", "") else args.method
    ingestor = session.ingestor(
        method, dataset=args.dataset, version_root=args.versions, config=config
    )
    context = session.context(args.dataset)
    for round_index in range(args.rounds):
        bags = synthetic_delta_bags(
            context.bundle.kb,
            config.batch_bags,
            context.bundle.schema.num_relations,
            vocabulary=context.bundle.vocabulary,
            seed=args.seed * 10_000 + round_index,
        )
        report = ingestor.ingest(bags)
        print(json.dumps(report.as_dict()))
    return 0


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments, train models and serve checkpoints.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run registered experiments")
    run_parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment names (see 'list'); 'all' runs everything; default table4",
    )
    run_parser.add_argument("--profile", default="small", choices=sorted(PROFILES))
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--format", default="text", choices=("text", "json"))
    run_parser.add_argument(
        "--output-dir", default=None, help="write one result file per experiment here"
    )
    run_parser.add_argument("--cache-dir", default=None, help="artifact cache directory")
    run_parser.add_argument(
        "--per-bag-training",
        action="store_true",
        help="train with the legacy per-bag loop instead of the padded-batch engine",
    )
    run_parser.add_argument("--propagation-layers", type=int, default=None)
    run_parser.add_argument("--propagation-alpha", type=float, default=None)
    run_parser.add_argument(
        "--mmap",
        action="store_true",
        default=None,
        help="serve encoded corpora from memmapped format-v3 shards (out-of-core)",
    )
    run_parser.add_argument(
        "--encode-workers",
        type=int,
        default=None,
        help="fork this many corpus-encode workers (0/1 = serial)",
    )
    run_parser.set_defaults(func=_cmd_run)

    list_parser = subparsers.add_parser("list", help="list registered experiments")
    list_parser.add_argument("--format", default="text", choices=("text", "json"))
    list_parser.set_defaults(func=_cmd_list)

    train_parser = subparsers.add_parser(
        "train", help="train one method and save a serving checkpoint"
    )
    train_parser.add_argument("--method", default="pa_tmr")
    train_parser.add_argument("--dataset", default="nyt", choices=("nyt", "gds"))
    train_parser.add_argument("--profile", default="small", choices=sorted(PROFILES))
    train_parser.add_argument("--seed", type=int, default=0)
    train_parser.add_argument("--epochs", type=int, default=None, help="override profile epochs")
    train_parser.add_argument("--cache-dir", default=None)
    train_parser.add_argument(
        "--checkpoint", required=True, help="directory to write the checkpoint to"
    )
    train_parser.add_argument(
        "--mmap",
        action="store_true",
        default=None,
        help="train from memmapped format-v3 corpus shards (out-of-core)",
    )
    train_parser.add_argument(
        "--encode-workers",
        type=int,
        default=None,
        help="fork this many corpus-encode workers (0/1 = serial)",
    )
    train_parser.add_argument(
        "--dtype",
        choices=DTYPES,
        default=None,
        help="training compute dtype: float64 (the default) or "
        "float32 (float32 activations/gradients with float64 master "
        "weights; matches float64 to a small tolerance, higher throughput)",
    )
    train_parser.set_defaults(func=_cmd_train)

    serve_parser = subparsers.add_parser(
        "serve", help="answer a batch of requests from a checkpoint"
    )
    serve_parser.add_argument("--checkpoint", required=True)
    serve_parser.add_argument(
        "--requests",
        required=True,
        help="JSON array of {head, tail, sentences} request objects",
    )
    serve_parser.add_argument("--top-k", type=int, default=3)
    serve_parser.add_argument("--batch-size", type=int, default=32)
    serve_parser.add_argument(
        "--dtype",
        choices=DTYPES,
        default="float64",
        help="serving compute dtype: float64 (the default numerics) or "
        "float32 (float32 weights; ~same answers, lower latency)",
    )
    serve_parser.add_argument("--output", default="-", help="output file ('-' for stdout)")
    serve_parser.add_argument(
        "--daemon",
        action="store_true",
        help="serve through the online daemon (adaptive micro-batching) "
        "instead of one offline batch call",
    )
    serve_parser.add_argument(
        "--stats",
        action="store_true",
        help="with --daemon: print the metrics snapshot (counters, batch "
        "occupancy, latency quantiles) to stderr",
    )
    daemon_defaults = DaemonConfig()
    serve_parser.add_argument(
        "--max-batch-size",
        type=int,
        default=daemon_defaults.max_batch_size,
        help="daemon: requests per coalesced batch",
    )
    serve_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=daemon_defaults.max_wait_ms,
        help="daemon: how long a partial batch may wait for more requests "
        "(0: a free worker takes whatever is waiting)",
    )
    serve_parser.add_argument(
        "--queue-limit",
        type=int,
        default=daemon_defaults.queue_limit,
        help="daemon: backpressure queue bound",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=daemon_defaults.num_workers,
        help="daemon: worker threads running batches",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    ingest_parser = subparsers.add_parser(
        "ingest",
        help="stream synthetic deltas through the incremental ingest loop",
    )
    ingest_parser.add_argument(
        "--method",
        default="pa_mr",
        help="method kept hot across refreshes ('none' for a model-free loop)",
    )
    ingest_parser.add_argument("--dataset", default="nyt", choices=("nyt", "gds"))
    ingest_parser.add_argument("--profile", default="tiny", choices=sorted(PROFILES))
    ingest_parser.add_argument("--seed", type=int, default=0)
    ingest_parser.add_argument("--rounds", type=int, default=3, help="ingest rounds to run")
    ingest_parser.add_argument(
        "--batch-bags", type=int, default=None, help="delta bags per round (profile default)"
    )
    ingest_parser.add_argument(
        "--versions",
        default=None,
        help="artifact version-store directory (omit to skip publishing)",
    )
    ingest_parser.add_argument(
        "--keep-versions", type=int, default=None, help="retention (0 disables pruning)"
    )
    ingest_parser.add_argument(
        "--finetune-epochs", type=int, default=None, help="LINE fine-tune passes per round"
    )
    ingest_parser.add_argument("--cache-dir", default=None)
    ingest_parser.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
