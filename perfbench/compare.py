"""Compare runs of one workload on two commits, metric by metric.

    python3 perfbench/compare.py PARENT.out CHANGE.out

Each file holds the standard output of one or more ``run.py`` runs of the
same workload (their ``env`` and result lines, as printed).  Pair the runs
in the order they were made.  The comparison is refused (exit 2) when the
runs do not all share one kernel backend: the compiled backends run the
engine several times faster than numpy, so such a difference is not the
change's.

For each metric it prints both medians and quartiles, how many pairs the
change won, and a verdict: ``better`` when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile distance; ``worse`` when the change's median is worse by more
than the metric's bound in ``BENCHMARK.json``; ``unresolved`` when the
parent's spread exceeds that bound; otherwise ``same``.
"""

from __future__ import annotations

import json
import statistics
import sys

from common import ROOT


def load(path):
    """``(backends, [metrics of each run])`` from one captured output."""
    backends, runs = set(), []
    with open(path) as handle:
        for line in handle:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                backends.add(record["env"]["kernel_backend"])
            elif "metrics" in record:
                runs.append(
                    {name: entry["value"] for name, entry in record["metrics"].items()}
                )
    return backends, runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (old_backends, parent), (new_backends, change) = load(argv[0]), load(argv[1])
    backends = old_backends | new_backends
    if len(backends) != 1:
        print(f"refused: runs span kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    if not parent or not change:
        print("refused: no result lines", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = {e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]}
    for name in parent[0]:
        entry = entries.get(name, {"better": "lower"})
        sign = 1.0 if entry["better"] == "lower" else -1.0
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        pairs = list(zip(old, new))
        wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
        old_median, new_median = statistics.median(old), statistics.median(new)
        spread = 0.0
        if len(old) >= 2:
            quartiles = statistics.quantiles(old, n=4)
            spread = quartiles[2] - quartiles[0]
        bound = entry.get("bound")
        worse_by = (
            sign * (new_median - old_median) / abs(old_median) if old_median else 0.0
        )
        if wins >= 0.9 * len(pairs) and abs(new_median - old_median) > spread:
            verdict = "better"
        elif bound is not None and worse_by > bound:
            verdict = "worse"
        elif bound is not None and old_median and spread / abs(old_median) > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        print(
            f"{name:32s} parent {old_median:12.5g} (IQR {spread:.3g})  "
            f"change {new_median:12.5g}  wins {wins}/{len(pairs)}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
