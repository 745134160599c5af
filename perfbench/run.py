"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 1 --save results/a

Run from the root of a checkout of this repository.  Each workload runs in
its own fresh ``python3 perfbench/child.py`` process with OpenBLAS pinned to
one thread; the serve and ingest workloads first get a trained checkpoint
(and, for serve, a request pool) from a separate fixture process, cached
under ``.bench_work/fixtures`` and keyed by the source it was built from.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the workload twice, untraced and then traced, and prints
the per-layer metrics plus the tracing overhead (traced over untraced median
operation latency).  Per-layer metrics that belong to another workload read
0: this workload does none of that layer's work (see ``LAYER_MAP``).

Every run prints one ``record`` line (git sha, nproc, BLAS threads, python
and numpy versions, seed, tail percentile with its sample count, checks)
and, last, the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--save DIR`` also writes the record with its metrics to ``DIR`` for
``compare.py``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

WORKLOADS = ("train", "serve-offline", "serve-online", "ingest")
FIXTURE_KIND = {"serve-offline": "serve", "serve-online": "serve", "ingest": "ingest"}
DEADLINE_S = 170.0

#: Per-layer metric -> (workload whose traced run measures it, the
#: end-to-end metric a change in that layer should move).
LAYER_MAP = {
    **{
        name: ("train, ingest", "setup_s")
        for name in (
            "corpus.dataset_s", "graph.build_s", "graph.line_s",
            "graph.propagate_s", "corpus.encode_s",
        )
    },
    **{
        name: ("train", "bags_per_s, latency_p50_ms, latency_tail_ms")
        for name in (
            "batch.merge_ms", "batch.train_forward_ms", "nn.loss_ms", "nn.backward_ms",
            "nn.optim_ms", "training.self_ms", "training.step_ms", "batch.pad_efficiency",
        )
    },
    **{
        name: ("serve-offline", "bags_per_s, latency_p50_ms")
        for name in (
            "batch.infer_forward_ms", "serve.result_ms", "serve.self_ms", "serve.call_ms",
        )
    },
    "serve.encode_ms": ("serve-offline, serve-online", "bags_per_s, latency_p50_ms"),
    **{
        name: ("serve-online", "latency_p50_ms, latency_tail_ms")
        for name in (
            "daemon.queue_wait_p50_ms", "daemon.queue_wait_p99_ms", "daemon.compute_p50_ms",
            "daemon.compute_p99_ms", "daemon.resolve_ms", "daemon.occupancy_mean",
            "daemon.batches", "daemon.rejected", "loadgen.late_p99_ms", "loadgen.late_max_ms",
        )
    },
    **{
        name: ("ingest", "latency_p50_ms, bags_per_s")
        for name in (
            "corpus.append_ms", "corpus.encode_ms", "graph.refinalize_ms",
            "graph.finetune_ms", "graph.alias_refresh_ms", "graph.propagate_ms",
            "core.entity_table_ms", "ingest.publish_ms", "ingest.prune_ms",
            "ingest.self_ms", "ingest.round_ms", "graph.dirty_vertices",
            "graph.propagated_rows", "graph.dirty_share", "ingest.published_mb",
        )
    },
    "trace.overhead_share": ("every workload", "none (cost of the traced run itself)"),
}


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(benchlib.BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a child process")
    command = [sys.executable, str(HERE / "child.py"), *args]
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"child {args[:3]} timed out") from error
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-4000:])
        raise BenchmarkError(f"child {args[:3]} exited with {completed.returncode}")


def source_key(kind: str) -> str:
    """Hash of everything a fixture is built from: the package and child.py."""
    digest = hashlib.sha256(kind.encode())
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "child.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_fixture(kind: str, deadline: float) -> Path:
    fixtures = ROOT / ".bench_work" / "fixtures"
    fixtures.mkdir(parents=True, exist_ok=True)
    final = fixtures / f"{kind}-{source_key(kind)}"
    if final.is_dir():
        return final
    for stale in fixtures.glob(f"{kind}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    staging = Path(tempfile.mkdtemp(dir=fixtures, prefix=f".{kind}-"))
    try:
        run_child(["fixture", "--kind", kind, "--out", str(staging)], deadline)
        os.rename(staging, final)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final


def run_workload(opts, trace: int, work: Path, fixture: str, deadline: float) -> dict:
    out = work / f"result-trace{trace}.json"
    run_child(
        [
            "workload", "--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(trace),
            "--work", str(work), "--fixture", fixture, "--out", str(out),
        ],
        deadline,
    )
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def metric_values(spec: dict, opts, untraced: dict, traced: dict) -> dict:
    if not opts.trace:
        source = untraced["end_to_end"]
        return {m["name"]: (source[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = (
        traced["end_to_end"]["latency_p50_ms"] / untraced["end_to_end"]["latency_p50_ms"] - 1.0
    )
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name not in LAYER_MAP:
            raise BenchmarkError(f"per-layer metric {name} has no entry in LAYER_MAP")
        values[name] = (layers.get(name, 0.0), metric["unit"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload once.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="directory to save the full record in")
    opts = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work", prefix=f"{opts.workload}-"))
    try:
        kind = FIXTURE_KIND.get(opts.workload)
        fixture = str(ensure_fixture(kind, deadline)) if kind else ""
        untraced = run_workload(opts, 0, work, fixture, deadline)
        traced = run_workload(opts, 1, work, fixture, deadline) if opts.trace else None
        values = metric_values(spec, opts, untraced, traced)
    except BenchmarkError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [untraced] + ([traced] if traced else [])
    attempted = sum(run["outcomes"]["attempted"] for run in runs)
    failed = sum(run["outcomes"]["failed"] for run in runs)
    correct = all(run["outcomes"]["correct"] for run in runs)
    record = {
        "workload": opts.workload,
        "trace": opts.trace,
        "seconds": opts.seconds,
        "environment": benchlib.environment_record(ROOT, opts.seed, child_env()),
        "details": untraced["details"],
        "checks": {k: v for run in runs for k, v in run["outcomes"]["checks"].items()},
        "failures": [f for run in runs for f in run["outcomes"]["failures"]],
    }
    if traced:
        record["traced_details"] = traced["details"]
        record["spans"] = traced["trace"]
        record["layer_map"] = {name: LAYER_MAP[name] for name in values}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    if opts.save:
        save = Path(opts.save)
        save.mkdir(parents=True, exist_ok=True)
        path = save / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}.json"
        path.write_text(json.dumps({**record, **result}, indent=1), encoding="utf-8")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
