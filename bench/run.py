"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload atlq-cli --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  ``--trace 0`` measures the end-to-end
metrics with only the fit timers installed; ``--trace 1`` makes one untraced
and one traced pass and reports the per-layer metrics of the traced one.
The last line of standard output is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A line before it holds figures that gate nothing (``{"info": {...}}``).
Exit status is 0 when a result was printed, non-zero when the program could
not be loaded or the run broke.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One process, no worker threads: numerical libraries read these at import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Set-up is timed in this process and in SETUP_PROBES fresh ones; the median
# is reported, because one import time is at the mercy of the machine.  Like
# every reported time it is in seconds at the reference speed (speed.py).
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 60


def load_program() -> None:
    """Import ``dustmix`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import dustmix
    except ImportError as exc:
        sys.exit(f"bench: cannot import dustmix from {SRC}: {exc}")
    origin = Path(dustmix.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"bench: dustmix was imported from {origin}, not from {SRC}")
    sys.path.insert(0, str(BENCH_DIR))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: imports plus building the inputs."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Run:
    """The state of one benchmark run, created after the program is loaded."""

    def __init__(self, workload: str, seed: int, size=None):
        from workloads import WORKLOADS

        self.workload = WORKLOADS[workload]
        self.size = size or self.workload.size
        self.seed = seed
        self.workdir = WORK / f"{workload}-{os.getpid()}"
        self.passes = 0

    def setup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        return self.workload.setup(self.seed, self.workdir, self.size)

    def one_pass(self, inputs, hooks):
        self.passes += 1
        pass_dir = self.workdir / f"pass{self.passes}"
        pass_dir.mkdir()
        return self.workload.run_pass(inputs, pass_dir, hooks)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure(run: Run, inputs, seconds: float, setup_s: list[float],
            probe: SpeedProbe) -> tuple[dict, dict, list]:
    """Untraced passes until ``seconds`` would be exceeded (at least one).
    Times are in seconds at the reference speed (``speed.py``)."""
    from hooks import Hooks

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run.one_pass(inputs, Hooks()))
        elapsed = time.perf_counter() - begin
        if elapsed + passes[-1].wall_s > seconds:
            break
    fits = [o for p in passes for o in p.outcomes]
    reports = [r for p in passes for r in p.reports]
    metrics = {
        "wall_s": (median(probe.seconds(*p.span) for p in passes), "s"),
        "fit_s": (statistics.fmean(probe.seconds(*o.fit_span) for o in fits), "s"),
        "report_s": (median(probe.seconds(*r) for r in reports), "s"),
        "setup_s": (median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "raw.wall_s": (median(p.wall_s for p in passes), "s"),
        "raw.fit_s": (statistics.fmean(o.fit_s for o in fits), "s"),
        "speed.scale": (median(probe.scale(*p.span) for p in passes), "ratio"),
    }
    info = {"passes": len(passes), "setup_samples_s": setup_s}
    return metrics, info, passes


def trace(run: Run, inputs, probe: SpeedProbe) -> tuple[dict, dict, list]:
    """One untraced pass, then one pass with every layer hook installed."""
    from hooks import Hooks
    from layers import install_layer_hooks, layer_metrics

    plain = run.one_pass(inputs, Hooks())
    hooks = Hooks()
    observed = install_layer_hooks(hooks)
    traced = run.one_pass(inputs, hooks)
    metrics = layer_metrics(hooks, observed, traced, probe.scale(*traced.span))
    overhead = probe.seconds(*traced.span) / probe.seconds(*plain.span) - 1.0
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    plain_iters = [o.iterations for o in plain.outcomes]
    traced_iters = [o.iterations for o in traced.outcomes]
    info = {"untraced_iterations": plain_iters, "traced_iterations": traced_iters,
            "missing_hooks": hooks.missing}
    if plain_iters != traced_iters:
        for o in traced.outcomes:
            o.problems.append("tracing changed the iteration counts")
    return metrics, info, [plain, traced]


def execute(probe: SpeedProbe, workload: str, seed: int, seconds: float, traced: bool,
            size=None, setup_probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """One run: set-up, the passes and their checks; returns (info, result).
    ``probe`` samples the machine's speed from the start of the process."""
    from workloads import accuracy, write_table

    run = Run(workload, seed, size)
    try:
        inputs = run.setup()
        setup_s = [probe.seconds(STARTED, time.perf_counter())]
        if traced:
            metrics, info, passes = trace(run, inputs, probe)
        else:
            setup_s += [setup_probe(workload, seed) for _ in range(setup_probes)]
            metrics, info, passes = measure(run, inputs, seconds, setup_s, probe)
    finally:
        run.close()

    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.failed]
    theta_err, hpdi_miss = accuracy(passes[-1].outcomes)
    metrics.update({
        "theta_abs_err": (theta_err, "share"),
        "accuracy.hpdi_miss_frac": (hpdi_miss, "ratio"),
        "accuracy.failed_frac": (len(failed) / max(len(outcomes), 1), "ratio"),
        "bench.src_lines": (src_lines(), "lines"),
    })
    table = passes[-1].table
    if table:
        OUT.mkdir(exist_ok=True)
        write_table(table, OUT / f"{workload}-seed{seed}-trace{int(traced)}-cells.csv")
    wanted = benchmark_spec()["per_layer" if traced else "end_to_end"]
    emitted = {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted}
    info.update(
        workload=workload, seed=seed, trace=int(traced),
        iterations=[o.iterations for o in passes[-1].outcomes],
        problems={o.label: o.problems for o in failed},
        figures={name: value for name, (value, _) in metrics.items() if name not in emitted},
        cells=table,
    )
    result = {"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
              "metrics": emitted}
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        return run_main(args, parser, probe)


def run_main(args, parser, probe: SpeedProbe) -> int:
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.setup_only:
        run = Run(args.workload, args.seed)
        try:
            run.setup()
            print(repr(probe.seconds(STARTED, time.perf_counter())))
        finally:
            run.close()
        return 0
    info, result = execute(probe, args.workload, args.seed, args.seconds, bool(args.trace))
    for row in info["cells"]:
        print(" ".join(f"{k}={v}" for k, v in row.items()))
    for label, problems in info["problems"].items():
        print(f"bench: {label}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
