"""Compare two saved result sets against the bounds in ``BENCHMARK.json``.

    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --save results/base
    ...  (several seeds per workload, on each commit)
    python3 perfbench/compare.py results/base results/new

For every workload and end-to-end metric it prints each side's median and
quartiles (``statistics.quantiles(n=4)``) and a verdict:

* ``worse``      - the new median is worse than the base median by more than
  the metric's bound;
* ``unresolved`` - either side's quartile spread, as a share of its median,
  is wider than the bound, so the runs cannot tell (unless every new run
  beats every base run, which is ``agree``);
* ``agree``      - otherwise.

Exit code 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402


def load(directory: Path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from the untraced records in ``directory``."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def verdict(metric: dict, base: Sequence[float], new: Sequence[float]) -> str:
    bound = metric["bound"]
    lower_is_better = metric["better"] == "lower"
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    if lower_is_better:
        worse_by = (new_median - base_median) / abs(base_median)
        all_better = max(new) < min(base)
    else:
        worse_by = (base_median - new_median) / abs(base_median)
        all_better = min(new) > max(base)
    spread = max(benchlib.relative_spread(base), benchlib.relative_spread(new))
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "agree"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args.base), load(args.new)
    header = (
        f"{'workload':14} {'metric':16} {'unit':9} {'base q1/med/q3':>30} "
        f"{'new q1/med/q3':>30} {'bound':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = base[workload].get(name), new[workload].get(name)
            if not a or not b:
                print(f"{workload:14} {name:16} {metric['unit']:9} {'(missing)':>30}")
                continue
            result = verdict(metric, a, b)
            any_worse |= result == "worse"
            qa = "/".join(f"{v:.4g}" for v in benchlib.quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in benchlib.quartiles(b))
            print(
                f"{workload:14} {name:16} {metric['unit']:9} {qa:>30} {qb:>30} "
                f"{metric['bound']:>6}  {result} (n={len(a)}/{len(b)})"
            )
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
