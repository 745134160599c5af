"""Shared fixtures for the benchmark harness.

The heavy work — generating the synthetic datasets, training the LINE
entity embeddings and training every compared method — happens once per
pytest session in the fixtures below.  The timed benchmark bodies then
measure the per-experiment computational kernels (evaluation, bucketing,
nearest-neighbour queries, dataset generation, ...), and every benchmark
writes the table/figure it regenerates to ``benchmarks/latest/``.  That
directory is git-ignored, so a test run leaves the checkout clean; the
committed record in ``benchmarks/results/`` is refreshed by copying the
reports over by hand (``cp benchmarks/latest/*.txt benchmarks/results/``).

Set ``REPRO_BENCH_PROFILE=tiny`` to run the whole harness in a couple of
minutes (e.g. for CI smoke checks); the default ``small`` profile is the
scale used for the numbers recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import resource
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.config import ScaleProfile  # noqa: E402
from repro.experiments import table4 as table4_module  # noqa: E402
from repro.experiments.pipeline import prepare_context  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "latest"
SEED = 0


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size, in MiB.

    On Linux, read ``VmHWM`` from ``/proc/self/status`` — ``ru_maxrss`` can
    carry the forking parent's peak across ``exec`` and misreport the
    launcher's footprint as ours.  Elsewhere fall back to ``ru_maxrss``
    (kilobytes on Linux, bytes on macOS).
    """
    if sys.platform.startswith("linux"):
        try:
            with open("/proc/self/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


def write_report(name: str, content: str) -> Path:
    """Persist a regenerated table/figure under ``benchmarks/latest/``.

    Every report carries a footer with the machine's cpu count and the
    peak RSS so the recorded numbers always come with the compute and
    memory footprint of the process that produced them.  The RSS is the
    *lifetime* peak (VmHWM) of the whole pytest process: when several
    benchmark files share one session, every earlier benchmark's footprint
    (notably the out-of-core corpus suite) is included.  Run a benchmark
    file standalone for a figure attributable to that benchmark alone.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    footer = (
        f"\n[cpus: {os.cpu_count()}]"
        f"\n[lifetime peak RSS of benchmark process: {peak_rss_mb():.1f} MiB"
        " (shared pytest session: includes every benchmark run before this one)]"
    )
    path.write_text(content + footer + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session")
def bench_profile() -> ScaleProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "small").lower()
    profiles = {
        "tiny": ScaleProfile.tiny,
        "small": ScaleProfile.small,
        "medium": ScaleProfile.medium,
        "huge": ScaleProfile.huge,
    }
    if name not in profiles:
        raise ValueError(f"unknown REPRO_BENCH_PROFILE '{name}'")
    return profiles[name]()


@pytest.fixture(scope="session")
def nyt_ctx(bench_profile):
    """Prepared SynthNYT experiment context (dataset, graph, embeddings)."""
    return prepare_context("nyt", profile=bench_profile, seed=SEED)


@pytest.fixture(scope="session")
def gds_ctx(bench_profile):
    """Prepared SynthGDS experiment context."""
    return prepare_context("gds", profile=bench_profile, seed=SEED)


@pytest.fixture(scope="session")
def contexts(nyt_ctx, gds_ctx):
    return {"nyt": nyt_ctx, "gds": gds_ctx}


@pytest.fixture(scope="session")
def table4_results(contexts, bench_profile):
    """Table IV results for every method on both datasets (trained once)."""
    return table4_module.run(
        datasets=("nyt", "gds"),
        methods=table4_module.TABLE4_METHODS,
        profile=bench_profile,
        seed=SEED,
        contexts=contexts,
    )
