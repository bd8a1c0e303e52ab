"""The benchmark's three workloads: inputs from a seed, one timed pass, scoring.

Each workload has two steps.  ``setup`` builds the inputs from the seed;
``run_pass`` runs the program on them once, times it, then checks the outputs
and scores their accuracy outside the timed region.  Fit calls are observed
through the ``fit`` attributes that callers look up at call time (see
``hooks.py``); that costs two clock reads per fit and gives each fit's time
and ``FitResult`` without editing the program.

Why these workloads (README.md has the full map from layer to workload):

* ``atlq-cli`` is the analyst's path, ``cmd_fit`` on the bundled acceptance
  corpus in its three scenarios; the only workload with ingest and writes,
  and the HPDI dominates its report time.
* ``study-grid`` is the researcher's path, a serial ``run_study`` over unknown
  shares with replications; it builds no posterior report.
* ``many-traces`` is one generated corpus with many trace locations, where
  the per-sample loops of the inference sweep and the per-row M-step solves
  dominate.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import dustmix.cli as cli
import dustmix.datasets as datasets
import dustmix.numerics as numerics
import dustmix.posterior as posterior
import dustmix.simulator as simulator
import dustmix.vbi as vbi
from dustmix.model import Corpus, Location, ParticleCatalog, SampleCounts

from hooks import Call, Hooks

HPDI_MASS = 0.95

# Known mixing proportions of the bundled trace locations.
ATLQ_TRUTH = {"e1": {"AT": 0.90, "LQ": 0.10}, "e2": {"AT": 0.20, "LQ": 0.80}}

# Final corpus bound of each bundled scenario with the engine as first
# recorded (commit bb5447d).  A later engine may reach a higher bound, never
# a lower one by more than a relative 1e-9.
REFERENCE_BOUND = {
    "both-known": -15035.445987498228,
    "at-known": -7999.939208402241,
    "lq-known": -9062.904945175977,
}
BOUND_REL_TOL = 1e-9

# Generated corpora are drawn from this fixed design seed; the run seed only
# reorders what it can reach.  Corpora drawn from one design differ up to 4.5x
# in inference work (134 against 605 sweeps on many-traces designs 1 and 2),
# so a fresh draw per run would measure the draw more than the program.
DESIGN_SEED = 0

# The fit attributes that callers look up; every workload's fits pass one.
FIT_TARGETS = ("dustmix.cli.fit", "dustmix.simulator.fit", "dustmix.vbi.fit")


@dataclass
class FitOutcome:
    """One fit as the benchmark saw it, with the output checks it failed."""

    label: str
    iterations: int = 0
    fit_span: tuple[float, float] = (0.0, 0.0)
    # (truth, posterior mean, HPDI lo, HPDI hi) per trace location and source
    shares: list[tuple[float, float, float, float]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def fit_s(self) -> float:
        return self.fit_span[1] - self.fit_span[0]


@dataclass
class PassResult:
    """One pass; spans are (begin, end) readings of ``time.perf_counter``."""

    span: tuple[float, float]
    outcomes: list[FitOutcome]
    # from the fit result to the written report, once per report made
    reports: list[tuple[float, float]] = field(default_factory=list)
    table: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]


def observe_fits(hooks: Hooks, sink: list[Call]) -> None:
    for target in FIT_TARGETS:
        hooks.wrap(target, "vbi.fit", sink.append)


def bound_problems(elbo_trace, converged: bool, reference: float | None = None) -> list[str]:
    """Convergence, a finite bound, a non-decreasing bound (with the slack of
    acceptance criterion 4) and, where given, no loss against a reference."""
    problems = [] if converged else ["did not converge"]
    trace = np.asarray(elbo_trace, dtype=np.float64)
    if trace.size == 0 or not np.all(np.isfinite(trace)):
        return problems + ["bound is missing or non-finite"]
    slack = 1e-8 * np.maximum(np.abs(trace[:-1]), 1.0)
    if np.any(np.diff(trace) < -slack):
        problems.append("bound decreased between outer iterations")
    if reference is not None and trace[-1] < reference - BOUND_REL_TOL * abs(reference):
        problems.append(f"final bound {trace[-1]!r} is below the reference {reference!r}")
    return problems


def interval_problems(intervals) -> list[str]:
    """Every HPDI lies in [0, 1] and contains its mean."""
    bad = [name for name, mean, lo, hi in intervals if not 0.0 <= lo <= mean <= hi <= 1.0]
    return [f"HPDI outside [0, 1] or missing its mean: {', '.join(bad[:5])}"] if bad else []


def _report_intervals(report: posterior.PosteriorReport):
    for kind, block in (("theta", report.theta), ("beta", report.beta)):
        for group, summaries in block.items():
            for s in summaries:
                yield f"{kind}/{group}/{s.label}", s.mean, s.interval.lo, s.interval.hi


def _calls_within(calls: list[Call], start: float, end: float) -> list[Call]:
    return [c for c in calls if start <= c.start and c.end <= end]


# --------------------------------------------------------------------------
# atlq-cli: cmd_fit on the bundled corpus in its three scenarios


@dataclass(frozen=True)
class AtlqSize:
    # (label, known location demoted to an unknown source)
    scenarios: tuple[tuple[str, str | None], ...] = (
        ("both-known", None),
        ("at-known", "LQ"),
        ("lq-known", "AT"),
    )


@dataclass(frozen=True)
class AtlqInput:
    label: str
    corpus_csv: Path
    config: Path | None
    unknown_source: str | None


def atlq_setup(seed: int, workdir: Path, size: AtlqSize = AtlqSize()) -> list[AtlqInput]:
    """Write one CSV per scenario, the bundled rows in their shipped order
    less a demoted location, plus the ``unknown_sources: 1`` config; ingest
    each to validate.

    The run seed does not reach this workload: reordering the rows moves the
    point where a fit stops by about 1e-9 of the bound (8e-6 on the AT-known
    scenario), as large as the reference-bound gate itself.
    """
    lines = [ln for ln in datasets.fixture_path().read_text().splitlines() if ln.strip()]
    header, rows = lines[0], lines[1:]
    config = workdir / "unknown_sources_1.yaml"
    config.write_text("unknown_sources: 1\n")
    inputs = []
    for label, demoted in size.scenarios:
        path = workdir / f"{label}.csv"
        kept = [row for row in rows if row.split(",", 1)[0] != demoted]
        path.write_text("\n".join([header, *kept]) + "\n")
        cli.ingest_csv(path, unknown_sources=0 if demoted is None else 1)
        inputs.append(AtlqInput(label, path, None if demoted is None else config, demoted))
    return inputs


def atlq_pass(inputs: list[AtlqInput], pass_dir: Path, hooks: Hooks) -> PassResult:
    fits: list[Call] = []
    observe_fits(hooks, fits)
    runs = []
    started = perf_counter()
    try:
        for item in inputs:
            begin = perf_counter()
            try:
                code = cli.cmd_fit(item.corpus_csv, item.config, pass_dir / item.label, threads=1)
            except Exception as exc:  # a raising fit is a failed operation, not a crash
                code = f"an exception: {exc!r}"
            runs.append((item, code, begin, perf_counter()))
        result = PassResult((started, perf_counter()), [])
    finally:
        hooks.restore()
    for item, code, begin, end in runs:
        calls = _calls_within(fits, begin, end)
        result.outcomes.append(_atlq_score(item, code, calls, pass_dir))
        if code == cli.EXIT_OK and len(calls) == 1:
            result.reports.append((calls[0].end, end))
    return result


def _atlq_score(item: AtlqInput, code, fits: list[Call], pass_dir: Path) -> FitOutcome:
    outcome = FitOutcome(item.label)
    if code != cli.EXIT_OK:
        outcome.problems.append(f"cmd_fit exited with {code}")
    if len(fits) != 1 or fits[0].error is not None:
        outcome.problems.append("cmd_fit did not complete exactly one fit")
        return outcome
    result = fits[0].result
    outcome.iterations = result.iterations
    outcome.fit_span = (fits[0].start, fits[0].end)
    out = pass_dir / item.label
    missing = [name for name in ("report.json", "summary.csv", "elbo_trace.csv", "manifest.json")
               if not (out / name).is_file()]
    if missing:
        outcome.problems.append(f"missing outputs: {', '.join(missing)}")
        return outcome
    report = json.loads((out / "report.json").read_text())
    prov = report["provenance"]
    if prov["iterations"] != result.iterations or prov["elbo_trace"] != list(result.elbo_trace):
        outcome.problems.append("report provenance disagrees with the fit")
    outcome.problems += bound_problems(prov["elbo_trace"], prov["converged"],
                                       REFERENCE_BOUND.get(item.label))
    intervals = [(f"{kind}/{group}/{row['label']}", row["mean"], row["hpdi_lo"], row["hpdi_hi"])
                 for kind in ("theta", "beta") for group, rows in report[kind].items()
                 for row in rows]
    outcome.problems += interval_problems(intervals)
    for loc, rows in report["theta"].items():
        for row in rows:
            source = item.unknown_source if row["label"].startswith("unknown") else row["label"]
            truth = ATLQ_TRUTH[loc][source]
            outcome.shares.append((truth, row["mean"], row["hpdi_lo"], row["hpdi_hi"]))
    return outcome


# --------------------------------------------------------------------------
# study-grid: serial run_study on the pooled AT/LQ profiles


@dataclass(frozen=True)
class StudySize:
    unknown_shares: tuple[float, ...] = (0.1, 0.5, 0.9)
    sample_sizes: tuple[int, ...] = (1900,)
    replications: int = 2


def study_setup(seed: int, workdir: Path, size: StudySize = StudySize()) -> simulator.StudySpec:
    """The study's corpora come from ``DESIGN_SEED``, not from the run seed:
    ``run_study`` draws them itself, and cells drawn from different seeds need
    1.4-7.1 s each at equal iteration counts, so a fresh draw per run put a
    spread of 0.17 of its median into ``wall_s``."""
    names, profiles = datasets.at_lq_point_profiles()
    return simulator.StudySpec(
        catalog=ParticleCatalog(names),
        true_profiles=profiles,
        unknown_shares=size.unknown_shares,
        sample_sizes=size.sample_sizes,
        replications=size.replications,
        rng_seed=DESIGN_SEED,
    )


def study_pass(spec: simulator.StudySpec, pass_dir: Path, hooks: Hooks) -> PassResult:
    fits: list[Call] = []
    observe_fits(hooks, fits)
    started = perf_counter()
    try:
        results = simulator.run_study(spec, vbi.FitConfig(), threads=1)
        fitted = perf_counter()
        simulator.write_cells_csv(results, pass_dir / "study_cells.csv")
        simulator.write_aggregate_csv(results, pass_dir / "study_aggregate.csv")
        ended = perf_counter()
    finally:
        hooks.restore()
    outcomes, table = [], []
    for cell, call in zip(results.cells, fits):
        outcome = _study_score(cell, call)
        outcomes.append(outcome)
        errors = [abs(mean - truth) for truth, mean, _, _ in outcome.shares]
        table.append({
            "unknown_share": cell.unknown_share,
            "sample_size": cell.sample_size,
            "replication": cell.replication,
            "iterations": outcome.iterations,
            "fit_s": round(outcome.fit_s, 4),
            "theta_abs_err": float(np.mean(errors)) if errors else float("nan"),
            "hpdi_misses": sum(not lo <= truth <= hi for truth, _, lo, hi in outcome.shares),
            "hpdis": len(outcome.shares),
            "failed": int(outcome.failed),
        })
    if len(fits) != len(results.cells):
        outcomes.append(FitOutcome("study", problems=["a cell made no fit or more than one"]))
    return PassResult((started, ended), outcomes, [(fitted, ended)], table)


def _study_score(cell: simulator.CellResult, call: Call) -> FitOutcome:
    label = f"share{cell.unknown_share}-n{cell.sample_size}-rep{cell.replication}"
    outcome = FitOutcome(label, fit_span=(call.start, call.end))
    if cell.error is not None or call.error is not None:
        outcome.problems.append(f"fit raised: {cell.error or call.error}")
        return outcome
    result = call.result
    outcome.iterations = result.iterations
    outcome.problems += bound_problems(result.elbo_trace, result.converged)
    truth = (1.0 - cell.unknown_share, cell.unknown_share)
    intervals = []
    for row in result.A_converged.values[:1]:
        for m, true_share in enumerate(truth):
            shape = posterior.theta_marginal(row, m)
            mean = numerics.beta_summary(shape).mean
            hpdi = numerics.beta_hpdi(shape, HPDI_MASS)
            intervals.append((f"theta/{m}", mean, hpdi.lo, hpdi.hi))
            outcome.shares.append((true_share, mean, hpdi.lo, hpdi.hi))
    outcome.problems += interval_problems(intervals)
    return outcome


# --------------------------------------------------------------------------
# many-traces: one generated corpus with many trace locations


@dataclass(frozen=True)
class ManySize:
    known_samples: int = 12
    trace_locations: int = 24
    samples_per_trace: int = 2
    particles_per_sample: int = 350


@dataclass(frozen=True)
class ManyInput:
    corpus: object
    shares: tuple[float, ...]


def many_setup(seed: int, workdir: Path, size: ManySize = ManySize()) -> ManyInput:
    """AT known, LQ unknown; the LQ share of trace j is drawn from the j-th of
    equal strata of [0.05, 0.95].  The run seed orders the trace locations and
    the samples within every location."""
    names, profiles = datasets.at_lq_point_profiles()
    design = np.random.default_rng(DESIGN_SEED)
    n = size.trace_locations
    shares = tuple(float(u) for u in 0.05 + 0.9 * (np.arange(n) + design.uniform(size=n)) / n)
    spec = simulator.ScenarioSpec(
        catalog=ParticleCatalog(names),
        true_profiles=profiles,
        trace_mixtures=tuple((1.0 - u, u) for u in shares),
        particles_per_sample=size.particles_per_sample,
        samples_per_trace=size.samples_per_trace,
        known_sample_counts=(size.known_samples,),
    )
    drawn = simulator.generate_corpus(spec, design)
    rng = np.random.default_rng(seed)
    known = [loc for loc in drawn.locations if loc.role.is_known]
    traces = [loc for loc in drawn.locations if not loc.role.is_known]
    ordered = known + [traces[i] for i in rng.permutation(len(traces))]
    locations = []
    for i, loc in enumerate(ordered):
        samples = [loc.samples[j] for j in rng.permutation(len(loc.samples))]
        locations.append(Location(loc.name, loc.role, tuple(
            SampleCounts(s.counts, location_id=i, sample_index=k) for k, s in enumerate(samples))))
    corpus = Corpus(drawn.catalog, tuple(locations), drawn.n_unknown_sources)
    return ManyInput(corpus, shares)


def many_pass(inputs: ManyInput, pass_dir: Path, hooks: Hooks) -> PassResult:
    fits: list[Call] = []
    observe_fits(hooks, fits)
    started = perf_counter()
    try:
        try:
            result = vbi.fit(inputs.corpus, vbi.FitConfig())
            fitted = perf_counter()
            report = posterior.build_report(result, inputs.corpus, mass=HPDI_MASS)
        except Exception as exc:  # a raising fit is a failed operation, not a crash
            failed = FitOutcome("many-traces", problems=[f"raised: {exc!r}"])
            return PassResult((started, perf_counter()), [failed])
        ended = perf_counter()
    finally:
        hooks.restore()
    outcome = FitOutcome("many-traces", iterations=result.iterations,
                         fit_span=(fits[0].start, fits[0].end))
    outcome.problems += bound_problems(result.elbo_trace, result.converged)
    outcome.problems += interval_problems(_report_intervals(report))
    corpus = inputs.corpus
    for loc_idx in result.trace_locations:
        loc = corpus.locations[loc_idx]
        unknown_share = inputs.shares[int(loc.name.rsplit("_", 1)[1])]
        for summary in report.theta[loc.name]:
            truth = unknown_share if summary.label == "unknown" else 1.0 - unknown_share
            outcome.shares.append((truth, summary.mean, summary.interval.lo, summary.interval.hi))
    return PassResult((started, ended), [outcome], [(fitted, ended)])


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    size: object


WORKLOADS = {
    "atlq-cli": Workload(atlq_setup, atlq_pass, AtlqSize()),
    "study-grid": Workload(study_setup, study_pass, StudySize()),
    "many-traces": Workload(many_setup, many_pass, ManySize()),
}

# Sizes at which the self-test runs every workload in well under a minute.
SMOKE_SIZES = {
    "atlq-cli": AtlqSize(scenarios=(("both-known", None),)),
    "study-grid": StudySize(unknown_shares=(0.5,), replications=1),
    "many-traces": ManySize(known_samples=4, trace_locations=3, samples_per_trace=1),
}


def accuracy(outcomes: list[FitOutcome]) -> tuple[float, float]:
    """Mean |posterior-mean share - true share| and the share of HPDIs that
    miss the truth, over every trace location and source."""
    shares = [s for o in outcomes for s in o.shares]
    if not shares:
        return float("nan"), float("nan")
    err = statistics.fmean(abs(mean - truth) for truth, mean, _, _ in shares)
    miss = statistics.fmean(not lo <= truth <= hi for truth, _, lo, hi in shares)
    return err, miss


def write_table(rows: list[dict], path: Path) -> None:
    if not rows:
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
