"""Compare two result sets metric by metric, workload by workload.

    python3 bench/compare.py .bench_out/base .bench_out/change

A result set is a directory of ``<workload>.jsonl`` files written by
``bench/sweep.py``.  For each workload and metric the command prints both
sides' median and quartiles, the change of the median, and a verdict:

* ``worse``: the median got worse by more than the metric's bound;
* ``unresolved``: a side's spread, (Q3 - Q1) / median, is wider than the
  bound, unless every run of one side beats every run of the other;
* ``better``: the change wins at least nine in ten runs paired by seed and
  the medians differ by more than the base's Q3 - Q1;
* ``within bound``: none of the above.

Per-layer metrics and the informational figures have no bound: they read
``better`` or ``worse`` by the paired rule, ``same`` when every value
repeats, and ``unresolved`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(directory: Path) -> dict[tuple[str, int], dict[str, dict[int, float]]]:
    """{(workload, trace): {metric: {seed: value}}} from every run record."""
    results: dict = defaultdict(lambda: defaultdict(dict))
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = results[(record["workload"], record["trace"])]
            for name, entry in record["result"]["metrics"].items():
                metrics[name][record["seed"]] = float(entry["value"])
            for name, value in record["info"].get("figures", {}).items():
                if isinstance(value, (int, float)):
                    metrics[name][record["seed"]] = float(value)
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Median, Q1 and Q3 as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(base: dict[int, float], change: dict[int, float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(base.values()), list(change.values())
    (ma, qa1, qa3), (mb, qb1, qb3) = quartiles(a), quartiles(b)
    if bound is None and sorted(a) == sorted(b) and len(set(a)) == 1:
        return "same"
    seeds = base.keys() & change.keys()
    wins = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    losses = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    apart = abs(mb - ma) > qa3 - qa1
    gain = bool(seeds) and wins >= 0.9 * len(seeds) and apart and sign * (mb - ma) < 0
    loss = bool(seeds) and losses >= 0.9 * len(seeds) and apart and sign * (mb - ma) > 0
    if bound is None:
        return "better" if gain else "worse" if loss else "unresolved"
    all_better = max(sign * x for x in b) < min(sign * y for y in a)
    all_worse = min(sign * x for x in b) > max(sign * y for y in a)
    worse_by = sign * (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0, (qb3 - qb1) / abs(mb) if mb else 0.0)
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if gain or all_better else "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="result set of the parent commit")
    parser.add_argument("change", type=Path, help="result set of the change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load_results(args.base), load_results(args.change)
    worse = 0
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        print(f"\n{workload} (trace {trace})")
        print(f"  {'metric':28s} {'base median [Q1, Q3]':>36s} {'change median [Q1, Q3]':>36s}"
              f" {'change':>8s}  verdict")
        for name in sorted(base[key].keys() & change[key].keys()):
            entry = declared.get(name, {"better": "lower", "unit": ""})
            a, b = base[key][name], change[key][name]
            ma, qa1, qa3 = quartiles(list(a.values()))
            mb, qb1, qb3 = quartiles(list(b.values()))
            rel = f"{(mb - ma) / abs(ma):+.1%}" if ma else "n/a"
            word = verdict(a, b, entry["better"], entry.get("bound"))
            worse += word == "worse" and "bound" in entry
            print(f"  {name:28s} {ma:12.6g} [{qa1:10.5g}, {qa3:10.5g}]"
                  f" {mb:12.6g} [{qb1:10.5g}, {qb3:10.5g}] {rel:>8s}  {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
