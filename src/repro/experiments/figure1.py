"""Figure 1 — the long tail of entity-pair training frequencies.

The paper counts, for each dataset, how many entity pairs fall into each
range of distant-supervision co-occurrence frequency (number of training
sentences per pair) and plots the counts in log scale, showing that the vast
majority of pairs have fewer than 10 sentences.  This module reproduces the
histogram for the synthetic datasets.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from ..config import ScaleProfile
from ..corpus.datasets import (
    DatasetBundle,
    build_synth_gds,
    build_synth_nyt,
    pair_frequency_histogram,
)
from ..utils.tables import format_table
from .registry import experiment

DEFAULT_EDGES: Sequence[int] = (1, 2, 3, 5, 10, 20, 50)


def run(
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    edges: Sequence[int] = DEFAULT_EDGES,
    bundles: Optional[Dict[str, DatasetBundle]] = None,
) -> Dict[str, Dict[str, int]]:
    """Histogram of per-pair training-sentence counts for both datasets."""
    profile = profile or ScaleProfile.small()
    if bundles is None:
        bundles = {
            "SynthNYT": build_synth_nyt(profile, seed=seed),
            "SynthGDS": build_synth_gds(profile, seed=seed),
        }
    return {
        name: pair_frequency_histogram(bundle.train, edges=edges)
        for name, bundle in bundles.items()
    }


def long_tail_fraction(histogram: Dict[str, int]) -> float:
    """Fraction of entity pairs with fewer than 10 training sentences.

    The paper highlights that more than 90% of GDS pairs (and even more NYT
    pairs) co-occur fewer than 10 times in the training corpus.
    """
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    above = sum(
        count for bucket, count in histogram.items() if _bucket_lower_bound(bucket) >= 10
    )
    return 1.0 - above / total


def _bucket_lower_bound(bucket: str) -> int:
    if bucket.startswith(">="):
        return int(bucket[2:])
    return int(bucket.split("-")[0])


def format_report(histograms: Dict[str, Dict[str, int]]) -> str:
    """Render the Figure 1 data (counts and their log10, as the plot is log-scale)."""
    lines = []
    for name, histogram in histograms.items():
        rows = [
            [bucket, count, math.log10(count) if count > 0 else float("nan")]
            for bucket, count in histogram.items()
        ]
        lines.append(
            format_table(
                ["#sentences per pair", "#entity pairs", "log10(#pairs)"],
                rows,
                title=f"Figure 1 — {name}: long tail of pair frequencies "
                f"(<10 sentences: {100 * long_tail_fraction(histogram):.1f}% of pairs)",
            )
        )
    return "\n\n".join(lines)


@experiment(
    name="figure1",
    description="Figure 1 — long tail of entity-pair training frequencies",
    report_kind="figure",
    params={"edges": list(DEFAULT_EDGES)},
)
def run_experiment(profile, seed, context=None, edges: Sequence[int] = DEFAULT_EDGES):
    """Uniform entry point: pair-frequency histograms as (metrics, report)."""
    bundles = {context.bundle.name: context.bundle} if context is not None else None
    histograms = run(profile=profile, seed=seed, edges=edges, bundles=bundles)
    metrics = {
        "histograms": histograms,
        "long_tail_fraction": {
            name: long_tail_fraction(histogram) for name, histogram in histograms.items()
        },
    }
    return metrics, format_report(histograms)
