"""Run the benchmark over several seeds and keep the runs as a result set.

    python3 bench/sweep.py --out .bench_out/base --seeds 1-10
    python3 bench/sweep.py --out .bench_out/base --seeds 1-3 --workload many-traces --trace 1

Each run appends one JSON record (workload, seed, trace, result, info) to
``<out>/<workload>.jsonl``.  At the end the spread of every metric over the
seeds, (Q3 - Q1) / median, is printed next to the metric's bound; a
steady benchmark keeps each spread below a third of its bound.  Two result
sets are compared with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_results, quartiles

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": json.loads(lines[-2])["info"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="result-set directory")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append",
                        help="repeat to pick several; default every workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        with (args.out / f"{workload}.jsonl").open("a") as fh:
            for seed in parse_seeds(args.seeds):
                record = run_one(workload, seed, args.seconds, args.trace)
                fh.write(json.dumps(record) + "\n")
                fh.flush()
                result = record["result"]
                values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = load_results(args.out)
    print(f"\nspread (Q3-Q1)/median over seeds, trace {args.trace}:")
    for workload in workloads:
        for name, values in results.get((workload, args.trace), {}).items():
            if name not in bounds:
                continue
            med, q1, q3 = quartiles(list(values.values()))
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[name]
            flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
            print(f"  {workload:12s} {name:26s} median {med:<12.6g} spread {spread:7.4f}"
                  + ("" if bound is None else f"  bound {bound}") + flag)
    return 0


if __name__ == "__main__":
    sys.exit(main())
