"""Ground-truth corpus generation and the accuracy study driver.

A scenario fixes true source profiles and trace mixing vectors, then draws
samples particle by particle: a source from the mixing vector, a type from
that source's profile (realized via superposed multinomials, which yields
the identical distribution).  The study driver sweeps a grid of true
unknown-source shares and per-sample particle counts, fits every generated
corpus, and records the posterior mean/mode of the unknown source's share in
each trace plus the unknown source's posterior profile.

Randomness is seeded per (cell, replication), so each cell is reproducible
on its own; the cells run one after another.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .model import Corpus, LocationRole, ParticleCatalog, SampleCounts
from .numerics import beta_summary
from .posterior import theta_marginal, write_table
from .vbi import FitConfig, as_count, as_real, fit

__all__ = [
    "CellResult",
    "ScenarioSpec",
    "StudySpec",
    "StudyResults",
    "generate_corpus",
    "generate_sample",
    "profiles_from_counts",
    "run_study",
    "write_aggregate_csv",
    "write_cells_csv",
]

logger = logging.getLogger(__name__)


def _check_simplex(vec: np.ndarray, what: str) -> None:
    if not (np.all(vec >= 0.0) and abs(float(vec.sum()) - 1.0) <= 1e-12):  # NaN fails too
        raise ValueError(f"{what} must be a probability vector summing to 1, got {vec}")


def _each(name: str, values, item) -> tuple:
    """``item(name, value)`` of each value in the list or tuple ``values``;
    anything else is a ``ValueError`` naming ``name``."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return tuple(item(name, value) for value in values)


@dataclass(frozen=True)
class ScenarioSpec:
    """One generative setting: true profiles, trace mixtures, sample sizes.

    Sources are ordered with the known ones first, as :mod:`~dustmix.model`
    orders a corpus's; ``known_sample_counts`` gives the number of control
    samples per known source.  Control samples are drawn from their
    source's profile alone (degenerate mixing), with
    ``known_particles_per_sample`` particles each (defaults to
    ``particles_per_sample``).  ``known_sample_counts``, ``trace_mixtures``
    and each of its mixtures must be a list or a tuple (stored as a tuple).
    Every count must be an integer, at least 1, and is stored as ``int``;
    every share must be a real number (a bool or a string is not); an
    error names its field.  The spec holds no seed: :func:`generate_corpus`
    draws from the generator it is given.
    """

    catalog: ParticleCatalog
    true_profiles: np.ndarray
    trace_mixtures: tuple[tuple[float, ...], ...]
    particles_per_sample: int
    samples_per_trace: int = 5
    known_sample_counts: tuple[int, ...] = (12,)
    known_particles_per_sample: int | None = None

    def __post_init__(self) -> None:
        profiles = np.asarray(self.true_profiles, dtype=np.float64)
        if profiles.ndim != 2 or profiles.shape[1] != self.catalog.n_types:
            raise ValueError("true_profiles must be (n_sources, n_types)")
        for row in profiles:
            _check_simplex(row, "true_profiles row")
        object.__setattr__(self, "true_profiles", profiles)
        mixtures = _each("trace_mixtures", self.trace_mixtures,
                         lambda name, mix: _each(name, mix, as_real))
        for mix in mixtures:
            if len(mix) != profiles.shape[0]:
                raise ValueError("each trace mixture must have one share per source")
            _check_simplex(np.array(mix), "trace mixture")
        object.__setattr__(self, "trace_mixtures", mixtures)
        object.__setattr__(self, "known_sample_counts", _each(
            "known_sample_counts", self.known_sample_counts, as_count))
        if len(self.known_sample_counts) > profiles.shape[0]:
            raise ValueError("more known sources than profile rows")
        for name in ("particles_per_sample", "samples_per_trace"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.known_particles_per_sample is not None:
            object.__setattr__(self, "known_particles_per_sample", as_count(
                "known_particles_per_sample", self.known_particles_per_sample))

    @property
    def n_sources(self) -> int:
        return self.true_profiles.shape[0]

    @property
    def n_known(self) -> int:
        return len(self.known_sample_counts)


def _draw_counts(theta: Sequence[float], profiles: np.ndarray, n: int,
                 rng: np.random.Generator) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    profiles = np.asarray(profiles, dtype=np.float64)
    if n < 1:
        raise ValueError("a sample needs at least one particle")
    _check_simplex(theta, "theta")
    per_source = rng.multinomial(n, theta)
    counts = np.zeros(profiles.shape[1], dtype=np.int64)
    for m, n_m in enumerate(per_source):
        if n_m > 0:
            counts += rng.multinomial(int(n_m), profiles[m])
    return counts


def generate_sample(
    theta: Sequence[float],
    profiles: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> SampleCounts:
    """Draw one n-particle sample: source ~ theta, type ~ that source's profile.
    Its ids are 0: :meth:`Corpus.from_groups` numbers the samples of a corpus."""
    return SampleCounts(_draw_counts(theta, profiles, n, rng))


def generate_corpus(spec: ScenarioSpec, rng: np.random.Generator) -> Corpus:
    """Materialize one corpus from a scenario, known locations then traces,
    with every draw from ``rng`` in that order, sample by sample."""
    M = spec.n_sources
    known_n = spec.known_particles_per_sample or spec.particles_per_sample
    plan = [(f"known_{k}", LocationRole.known(), np.eye(M)[k], known_n, n_samples)
            for k, n_samples in enumerate(spec.known_sample_counts)]
    plan += [(f"trace_{j}", LocationRole.trace(), mixture, spec.particles_per_sample,
              spec.samples_per_trace) for j, mixture in enumerate(spec.trace_mixtures)]
    return Corpus.from_groups(spec.catalog, (
        (name, role, [_draw_counts(theta, spec.true_profiles, n, rng) for _ in range(n_samples)])
        for name, role, theta, n, n_samples in plan), M - spec.n_known)


def profiles_from_counts(samples: Sequence[SampleCounts]) -> np.ndarray:
    """Pooled empirical type frequencies of a set of samples."""
    if len(samples) == 0:
        raise ValueError("need at least one sample to pool")
    pooled = np.sum([s.counts for s in samples], axis=0).astype(np.float64)
    return pooled / pooled.sum()


@dataclass(frozen=True)
class StudySpec:
    """Grid sweep around a two-source scenario with one unknown source.

    Each key of a study spec file sets the field of its name, and a field
    it leaves out keeps its default; ``seed`` sets ``rng_seed`` and
    ``profiles`` the first two (:func:`~dustmix.cli.load_study_spec`).
    ``unknown_shares`` are the true shares of the unknown source (the second
    profile row) in the first trace, ``sample_sizes`` the particles per
    sample; the known source has ``known_samples`` samples of
    ``known_sample_size`` particles (default: the cell's size), and
    ``second_trace`` adds a trace with that fixed mixture.  Construction
    checks what :func:`run_study` would otherwise fail on in its cells, and
    each error names its field: ``unknown_shares``, ``sample_sizes`` and a
    given ``second_trace`` must be lists or tuples (stored as tuples), each
    count an integer (:func:`~dustmix.vbi.as_count`) of at least 1 (the seed
    at least 0), each share a real number (not a bool or a string), no share
    or particle count given twice, and the second mixture and the profiles
    probability vectors.  The checks shared with a cell's
    :class:`ScenarioSpec` are made by building the first cell's scenario.
    """

    catalog: ParticleCatalog
    true_profiles: np.ndarray
    unknown_shares: tuple[float, ...] = (0.1, 0.5, 0.9)
    sample_sizes: tuple[int, ...] = (100, 700, 1900)
    samples_per_trace: int = 5
    known_samples: int = 12
    known_sample_size: int | None = None
    second_trace: tuple[float, ...] | None = None
    replications: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if np.shape(self.true_profiles)[:1] != (2,):
            raise ValueError("the study design uses exactly two sources, the first known")
        object.__setattr__(self, "unknown_shares",
                           _each("unknown_shares", self.unknown_shares, as_real))
        object.__setattr__(self, "sample_sizes",
                           _each("sample_sizes", self.sample_sizes, as_count))
        if not self.unknown_shares or not self.sample_sizes:
            raise ValueError("the study grid must be non-empty")
        if any(not 0.0 < u < 1.0 for u in self.unknown_shares):
            raise ValueError("unknown-source shares must lie strictly inside (0, 1)")
        for name, values in (("unknown_shares", self.unknown_shares),
                             ("sample_sizes", self.sample_sizes)):
            if len(set(values)) < len(values):  # aggregate() finds a cell's rows by value
                raise ValueError(f"{name} repeats a value: {list(values)}")
        for name, least in (("known_samples", 1), ("replications", 1), ("rng_seed", 0)):
            object.__setattr__(self, name, as_count(name, getattr(self, name), least))
        if self.known_sample_size is not None:
            object.__setattr__(self, "known_sample_size",
                               as_count("known_sample_size", self.known_sample_size))
        if self.second_trace is not None:
            mixture = _each("second_trace", self.second_trace, as_real)
            if len(mixture) != 2:
                raise ValueError("second_trace must have one share per source")
            _check_simplex(np.array(mixture), "second_trace")
            object.__setattr__(self, "second_trace", mixture)
        # every cell's scenario shares these fields; the first one checks them
        scenario = self.scenario(self.unknown_shares[0], self.sample_sizes[0])
        for name in ("true_profiles", "samples_per_trace"):
            object.__setattr__(self, name, getattr(scenario, name))

    def scenario(self, unknown_share: float, sample_size: int) -> ScenarioSpec:
        mixtures: list[tuple[float, ...]] = [(1.0 - unknown_share, unknown_share)]
        if self.second_trace is not None:
            mixtures.append(self.second_trace)
        return ScenarioSpec(
            catalog=self.catalog,
            true_profiles=self.true_profiles,
            trace_mixtures=tuple(mixtures),
            particles_per_sample=sample_size,
            samples_per_trace=self.samples_per_trace,
            known_sample_counts=(self.known_samples,),
            known_particles_per_sample=self.known_sample_size,
        )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one fitted replication of one grid cell."""

    unknown_share: float
    sample_size: int
    replication: int
    theta_unknown_mean: tuple[float, ...] = ()
    theta_unknown_mode: tuple[float, ...] = ()
    beta_unknown_mean: tuple[float, ...] = ()
    converged: bool = False
    iterations: int = 0
    elbo: float = float("nan")
    error: str | None = None


@dataclass(frozen=True)
class StudyResults:
    spec: StudySpec
    cells: tuple[CellResult, ...]

    def aggregate(self) -> list[dict]:
        """Per-cell averages over replications, in grid order."""
        rows: list[dict] = []
        for share in self.spec.unknown_shares:
            for size in self.spec.sample_sizes:
                reps = [
                    c for c in self.cells
                    if c.unknown_share == share and c.sample_size == size and c.error is None
                ]
                row: dict = {
                    "unknown_share": share,
                    "sample_size": size,
                    "replications": len(reps),
                    "failures": self.spec.replications - len(reps),
                }
                if reps:
                    n_traces = len(reps[0].theta_unknown_mean)
                    for j in range(n_traces):
                        means = [c.theta_unknown_mean[j] for c in reps]
                        modes = [c.theta_unknown_mode[j] for c in reps]
                        truth = share if j == 0 else self.spec.second_trace[1]
                        row[f"trace{j}_mean"] = float(np.mean(means))
                        row[f"trace{j}_mode"] = float(np.mean(modes))
                        row[f"trace{j}_abs_err"] = float(np.mean([abs(m - truth) for m in means]))
                    beta = np.mean([c.beta_unknown_mean for c in reps], axis=0)
                    for t, value in enumerate(beta):
                        row[f"beta_unknown_{t}"] = float(value)
                rows.append(row)
        return rows


def _run_cell(study: StudySpec, indices: tuple[int, int, int], config: FitConfig) -> CellResult:
    i_share, i_size, rep = indices
    share = study.unknown_shares[i_share]
    size = study.sample_sizes[i_size]
    seed = np.random.SeedSequence((study.rng_seed, i_share, i_size, rep))
    rng = np.random.default_rng(seed)
    scenario = study.scenario(share, size)
    corpus = generate_corpus(scenario, rng)
    try:
        result = fit(corpus, config)
    except Exception as exc:  # record, keep the study running
        logger.warning("cell (share=%s, n=%s, rep=%s) failed: %s", share, size, rep, exc)
        return CellResult(unknown_share=share, sample_size=size, replication=rep, error=str(exc))
    unknown_idx = corpus.n_sources - 1
    means: list[float] = []
    modes: list[float] = []
    for row in result.A_converged.values:
        summary = beta_summary(theta_marginal(row, unknown_idx))
        means.append(summary.mean)
        modes.append(summary.mean if summary.mode is None else summary.mode)
    h_row = result.H_converged.values[unknown_idx]
    beta_mean = tuple(float(v) for v in h_row / h_row.sum())
    return CellResult(
        unknown_share=share,
        sample_size=size,
        replication=rep,
        theta_unknown_mean=tuple(means),
        theta_unknown_mode=tuple(modes),
        beta_unknown_mean=beta_mean,
        converged=result.converged,
        iterations=result.iterations,
        elbo=float(result.elbo_trace[-1]),
    )


def run_study(study: StudySpec, config: FitConfig | None = None, threads: int = 1) -> StudyResults:
    """Fit every (share, size, replication) cell of the grid, one after
    another, on one thread.

    Cell failures are recorded in their result rows rather than raised, so a
    long sweep survives isolated numerical trouble.  ``threads`` is ignored,
    and no manifest records a thread count: it stays only while the
    benchmark passes ``threads=1``, and goes with ROADMAP item 7.
    """
    config = config or FitConfig()
    cells = tuple(
        _run_cell(study, (i_share, i_size, rep), config)
        for i_share in range(len(study.unknown_shares))
        for i_size in range(len(study.sample_sizes))
        for rep in range(study.replications)
    )
    return StudyResults(spec=study, cells=cells)


def write_cells_csv(results: StudyResults, path: Path | str) -> None:
    n_types = results.spec.true_profiles.shape[1]
    n_traces = 2 if results.spec.second_trace is not None else 1
    header = ["unknown_share", "sample_size", "replication", "converged", "iterations", "elbo"]
    for j in range(n_traces):
        header += [f"trace{j}_mean", f"trace{j}_mode"]
    header += [*(f"beta_unknown_{t}" for t in range(n_types)), "error"]
    rows = []
    for c in results.cells:
        if c.error is None:
            fitted = [v for j in range(n_traces)
                      for v in (c.theta_unknown_mean[j], c.theta_unknown_mode[j])]
            fitted += c.beta_unknown_mean
        else:
            fitted = [None] * (2 * n_traces + n_types)
        rows.append([c.unknown_share, c.sample_size, c.replication, c.converged, c.iterations,
                     None if np.isnan(c.elbo) else c.elbo, *fitted, c.error])
    write_table(path, header, rows)


def write_aggregate_csv(results: StudyResults, path: Path | str) -> None:
    """Write :meth:`StudyResults.aggregate`, one row per grid cell.  The
    header comes from the spec, so a cell whose replications all failed
    leaves its means blank."""
    n_types = results.spec.true_profiles.shape[1]
    n_traces = 2 if results.spec.second_trace is not None else 1
    header = ["unknown_share", "sample_size", "replications", "failures"]
    header += [f"trace{j}_{what}" for j in range(n_traces) for what in ("mean", "mode", "abs_err")]
    header += [f"beta_unknown_{t}" for t in range(n_types)]
    write_table(path, header, ([row.get(k) for k in header] for row in results.aggregate()))
