"""Table II — dataset statistics.

The paper reports the number of training/testing sentences and entity pairs
of the NYT and GDS corpora together with their relation counts; this module
produces the same table for the synthetic SynthNYT / SynthGDS bundles.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import ScaleProfile
from ..corpus.datasets import DatasetBundle, build_synth_gds, build_synth_nyt, dataset_statistics
from ..utils.tables import format_table
from .registry import experiment

# The statistics the paper reports for the real corpora (Table II), used by
# EXPERIMENTS.md to compare shapes (our synthetic corpora are much smaller).
PAPER_TABLE2 = {
    "NYT": {
        "relations": 53,
        "training": {"sentences": 522_611, "entity_pairs": 281_270},
        "testing": {"sentences": 172_448, "entity_pairs": 96_678},
    },
    "GDS": {
        "relations": 5,
        "training": {"sentences": 13_161, "entity_pairs": 7_580},
        "testing": {"sentences": 5_663, "entity_pairs": 3_247},
    },
}


def run(
    profile: Optional[ScaleProfile] = None,
    seed: int = 0,
    bundles: Optional[Dict[str, DatasetBundle]] = None,
) -> Dict[str, Dict]:
    """Compute Table II statistics for both synthetic datasets.

    Pass ``bundles`` to reuse datasets that are already built (the benchmark
    harness does this to avoid regenerating them).
    """
    profile = profile or ScaleProfile.small()
    if bundles is None:
        bundles = {
            "SynthNYT": build_synth_nyt(profile, seed=seed),
            "SynthGDS": build_synth_gds(profile, seed=seed),
        }
    return {name: dataset_statistics(bundle) for name, bundle in bundles.items()}


def format_report(statistics: Dict[str, Dict]) -> str:
    """Render the statistics in the layout of the paper's Table II."""
    rows = []
    for name, stats in statistics.items():
        rows.append(
            [
                name,
                stats["relations"]["count"],
                stats["training"]["sentences"],
                stats["training"]["entity_pairs"],
                stats["testing"]["sentences"],
                stats["testing"]["entity_pairs"],
            ]
        )
    return format_table(
        ["dataset", "#relations", "train sent.", "train pairs", "test sent.", "test pairs"],
        rows,
        title="Table II — dataset statistics (synthetic scale)",
    )


@experiment(
    name="table2",
    description="Table II — dataset statistics of the synthetic NYT/GDS corpora",
    report_kind="table",
)
def run_experiment(profile, seed, context=None):
    """Uniform entry point: dataset statistics as (metrics, report).

    A prebuilt context restricts the statistics to its own dataset bundle;
    otherwise both synthetic bundles are generated from the profile.
    """
    bundles = {context.bundle.name: context.bundle} if context is not None else None
    statistics = run(profile=profile, seed=seed, bundles=bundles)
    return {"statistics": statistics}, format_report(statistics)
