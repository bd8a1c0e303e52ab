"""Smoke-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at a small size, untraced and traced, through the same
code as ``run.py`` and checks that

* every end-to-end and per-layer metric of BENCHMARK.json is emitted, and the
  result object has exactly the keys a reader of the last line expects;
* every output check passes;
* the traced pass makes as many outer iterations, fit by fit, as the
  untraced one, and ``vbi.outer_iters`` sums them;
* every ``dustmix`` attribute the hooks wrap is the very same object again
  after each run, so tracing cannot leak into later untraced timings;
* on ``study-grid`` no HPDI is computed and no report is built.

Exit status 0 when all of them hold.
"""

from __future__ import annotations

import importlib
import json
import sys

import run


def wrapped_attributes() -> dict[str, object]:
    from layers import LAYER_HOOKS
    from workloads import FIT_TARGETS

    found = {}
    for target in [t for t, _ in LAYER_HOOKS] + list(FIT_TARGETS):
        module_name, attr = target.rsplit(".", 1)
        found[target] = getattr(importlib.import_module(module_name), attr)
    return found


def main() -> int:
    run.load_program()
    from workloads import SMOKE_SIZES

    spec = run.benchmark_spec()
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    before = wrapped_attributes()
    for workload, size in SMOKE_SIZES.items():
        for traced in (False, True):
            kind = "traced" if traced else "untraced"
            with run.SpeedProbe() as probe:
                info, result = run.execute(probe, workload, seed=1, seconds=0, traced=traced,
                                           size=size, setup_probes=1)
            check(json.loads(json.dumps(result, allow_nan=False)) == result,
                  f"{workload} {kind}: result is plain JSON")
            wanted = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} {kind}: result keys")
            check(sorted(result["metrics"]) == sorted(wanted),
                  f"{workload} {kind}: every declared metric emitted")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} {kind}: output checks pass ({info['problems']})")
            after = wrapped_attributes()
            changed = [t for t in before if after[t] is not before[t]]
            check(not changed, f"{workload} {kind}: wrapped attributes restored {changed}")
            if not traced:
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            check(info["untraced_iterations"] == info["traced_iterations"]
                  and metrics["vbi.outer_iters"] == sum(info["untraced_iterations"]),
                  f"{workload} traced: outer iterations match the untraced fits")
            check(not info["missing_hooks"], f"{workload} traced: every hook target exists")
            if workload == "study-grid":
                check(metrics["numerics.hpdi_calls"] == 0 and metrics["posterior.report_s"] == 0,
                      "study-grid traced: no HPDI and no report")
    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
