"""Beta posterior marginals and report assembly for a finished fit.

Every row of the converged mixing and profile matrices is a Dirichlet; the
marginal of one coordinate against the rest is a Beta whose parameters come
straight off the row.  A trace mixing row carries the fitted mean share and
a linear-response concentration (see ``FitResult.A_converged``), so its
intervals reflect the model's uncertainty about the share; a profile row is
the fitted profile hyperparameter matrix row.  The report collects, for each trace location and
source, and for each source and particle type, the Beta shape plus mean,
interior mode and highest-density interval, together with enough provenance
to reproduce the run.  Plot data (density curves on a 512-point grid) are
derived deterministically from the shapes at write time.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betaln

from .model import Corpus, FitResult
from .numerics import BetaShape, CredibleInterval, beta_hpdis, beta_summary

__all__ = [
    "MarginalSummary",
    "PosteriorReport",
    "beta_profile_marginal",
    "build_report",
    "density_grid",
    "report_to_dict",
    "theta_marginal",
    "write_plot_csvs",
    "write_report_json",
    "write_summary_csv",
]

GRID_POINTS = 512


def _midpoints(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


# Every plot CSV shares the x column; its text, and the text of each row
# whose density is 0 (most rows of a spiked profile), are made once.
_GRID_X_TEXT = tuple(map(repr, _midpoints(GRID_POINTS).tolist()))
_ZERO_ROWS = tuple(f"{x},0.0\r\n" for x in _GRID_X_TEXT)


def theta_marginal(a_row: np.ndarray, m: int) -> BetaShape:
    """Beta marginal of source ``m``'s share in a mixing row."""
    row = np.asarray(a_row, dtype=np.float64)
    return BetaShape(a=float(row[m]), b=float(row.sum() - row[m]))


def beta_profile_marginal(h_row: np.ndarray, t: int) -> BetaShape:
    """Beta marginal of type ``t``'s proportion in a profile row."""
    row = np.asarray(h_row, dtype=np.float64)
    return BetaShape(a=float(row[t]), b=float(row.sum() - row[t]))


@dataclass(frozen=True)
class MarginalSummary:
    label: str
    shape: BetaShape
    mean: float
    mode: float | None
    interval: CredibleInterval


@dataclass(frozen=True)
class PosteriorReport:
    """All marginal summaries of a fit plus run provenance."""

    theta: dict[str, tuple[MarginalSummary, ...]]
    beta: dict[str, tuple[MarginalSummary, ...]]
    mass: float
    provenance: dict


def build_report(fit: FitResult, corpus: Corpus, mass: float = 0.95) -> PosteriorReport:
    """Assemble the marginal posterior report for a fit on ``corpus``.

    Every marginal's interval comes from one :func:`beta_hpdis` call.
    """
    source_names = corpus.source_names
    type_names = corpus.catalog.type_names
    theta_shapes = {
        corpus.locations[loc_idx].name: [
            (source_names[m], theta_marginal(fit.A_converged.values[row_idx], m))
            for m in range(len(source_names))
        ]
        for row_idx, loc_idx in enumerate(fit.trace_locations)
    }
    beta_shapes = {
        name: [
            (type_names[t], beta_profile_marginal(fit.H_converged.values[m], t))
            for t in range(len(type_names))
        ]
        for m, name in enumerate(source_names)
    }

    shapes = [
        shape for block in (theta_shapes, beta_shapes) for group in block.values()
        for _, shape in group
    ]
    intervals = iter(beta_hpdis([s.a for s in shapes], [s.b for s in shapes], mass))
    theta, beta = [
        {
            group: tuple(
                MarginalSummary(label, shape, *beta_summary(shape), next(intervals))
                for label, shape in pairs
            )
            for group, pairs in block.items()
        }
        for block in (theta_shapes, beta_shapes)
    ]

    provenance = {
        "converged": fit.converged,
        "iterations": fit.iterations,
        "elbo_trace": [float(v) for v in fit.elbo_trace],
        "n_locations": corpus.n_locations,
        "n_samples": corpus.n_samples,
        "n_sources": corpus.n_sources,
        "n_types": corpus.n_types,
        "hpdi_mass": mass,
    }

    return PosteriorReport(theta=theta, beta=beta, mass=mass, provenance=provenance)


def density_grid(shape: BetaShape, n: int = GRID_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Beta density on an n-point midpoint grid covering [0, 1].

    Midpoints keep the curve finite when a shape parameter sits at or below
    one (density unbounded at an endpoint).
    """
    a, b = shape.a, shape.b
    x = _midpoints(n)
    return x, np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - betaln(a, b))


def _marginal_dict(summary: MarginalSummary) -> dict:
    return {
        "label": summary.label,
        "a": summary.shape.a,
        "b": summary.shape.b,
        "mean": summary.mean,
        "mode": summary.mode,
        "hpdi_lo": summary.interval.lo,
        "hpdi_hi": summary.interval.hi,
        "hpdi_mass": summary.interval.mass,
        "equal_tailed": summary.interval.equal_tailed,
    }


def report_to_dict(report: PosteriorReport) -> dict:
    return {
        "mass": report.mass,
        "theta": {
            name: [_marginal_dict(s) for s in summaries]
            for name, summaries in report.theta.items()
        },
        "beta": {
            name: [_marginal_dict(s) for s in summaries]
            for name, summaries in report.beta.items()
        },
        "provenance": report.provenance,
    }


def write_report_json(report: PosteriorReport, path: Path | str) -> None:
    payload = json.dumps(report_to_dict(report), indent=2)
    Path(path).write_text(payload + "\n")


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", text).strip("_").lower()


def _write_density_csv(path: Path, shape: BetaShape) -> None:
    """The bytes ``csv.writer`` would write (repr of each float, CRLF line
    ends; no field needs quoting), in one write; only nonzero densities are
    formatted."""
    _, dens = density_grid(shape)
    rows = [zero if value == 0.0 else f"{x},{value!r}\r\n"
            for x, zero, value in zip(_GRID_X_TEXT, _ZERO_ROWS, dens.tolist())]
    path.write_bytes(("x,density\r\n" + "".join(rows)).encode())


def write_plot_csvs(report: PosteriorReport, out_dir: Path | str) -> list[Path]:
    """One density CSV per marginal: theta_<location>_<source>.csv and
    beta_<source>_<type>.csv.  Of names that slug alike ("Fe oxide" and
    "fe-oxide"), the first in report order keeps the name and each later one
    takes the first unused suffix _2, _3, ..., so no file is written twice."""
    marginals = [(f"{kind}_{_slug(group)}_{_slug(summary.label)}", summary)
                 for kind, block in (("theta", report.theta), ("beta", report.beta))
                 for group, summaries in block.items() for summary in summaries]
    taken, seen, written = {stem for stem, _ in marginals}, set(), []
    for stem, summary in marginals:
        name, k = stem, 1
        while stem in seen and name in taken:
            k += 1
            name = f"{stem}_{k}"
        seen.add(stem)
        taken.add(name)
        written.append(Path(out_dir) / f"{name}.csv")
        _write_density_csv(written[-1], summary.shape)
    return written


def write_summary_csv(report: PosteriorReport, path: Path | str) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["kind", "group", "label", "a", "b", "mean", "mode",
             "hpdi_lo", "hpdi_hi", "hpdi_mass", "equal_tailed"]
        )
        for kind, block in (("theta", report.theta), ("beta", report.beta)):
            for group, summaries in block.items():
                for s in summaries:
                    writer.writerow(
                        [
                            kind,
                            group,
                            s.label,
                            repr(s.shape.a),
                            repr(s.shape.b),
                            repr(s.mean),
                            "" if s.mode is None else repr(s.mode),
                            repr(s.interval.lo),
                            repr(s.interval.hi),
                            repr(s.interval.mass),
                            int(s.interval.equal_tailed),
                        ]
                    )
