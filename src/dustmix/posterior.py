"""Beta posterior marginals and report assembly for a finished fit.

Every row of the converged mixing and profile matrices is a Dirichlet; the
marginal of one coordinate against the rest is a Beta whose parameters come
straight off the row.  A trace mixing row carries the fitted mean share and
a linear-response concentration (see ``FitResult.A_converged``), so its
intervals reflect the model's uncertainty about the share; a profile row is
the fitted profile hyperparameter matrix row.  The report collects, for each
trace location and source, and for each source and particle type, the Beta
shape plus mean, interior mode and highest-density interval, together with
enough provenance to reproduce the run.  Plot data (density curves on a
512-point grid) are derived deterministically from the shapes at write time.

Every CSV table goes through :func:`write_table` but the 512-row density
CSVs, whose bytes :func:`_write_density_csv` builds by hand twice as fast.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .model import Corpus, FitResult
from .numerics import BetaShape, CredibleInterval, beta_hpdis, beta_summary, special

__all__ = [
    "MarginalSummary",
    "PosteriorReport",
    "build_report",
    "density_grid",
    "report_to_dict",
    "theta_marginal",
    "write_plot_csvs",
    "write_report_json",
    "write_summary_csv",
    "write_table",
]

GRID_POINTS = 512
_GRID_X = (np.arange(GRID_POINTS) + 0.5) / GRID_POINTS

# Every plot CSV shares the x column; its text, and the text of each row
# whose density is 0 (most rows of a spiked profile), are made once.
_GRID_X_TEXT = tuple(map(repr, _GRID_X.tolist()))
_ZERO_ROWS = tuple(f"{x},0.0\r\n" for x in _GRID_X_TEXT)


def theta_marginal(row: np.ndarray, i: int) -> BetaShape:
    """Beta marginal of entry ``i`` of a Dirichlet row: a source's share in a
    mixing row, or a particle type's proportion in a profile row."""
    row = np.asarray(row, dtype=np.float64)
    return BetaShape(a=float(row[i]), b=float(row.sum() - row[i]))


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
    groups = [("theta", corpus.locations[loc_idx].name, source_names, fit.A_converged.values[r])
              for r, loc_idx in enumerate(fit.trace_locations)]
    groups += [("beta", name, corpus.catalog.type_names, fit.H_converged.values[m])
               for m, name in enumerate(source_names)]
    marginals = [(label, theta_marginal(row, i))
                 for _, _, labels, row in groups for i, label in enumerate(labels)]
    intervals = beta_hpdis([s.a for _, s in marginals], [s.b for _, s in marginals], mass)
    summaries = (MarginalSummary(label, shape, *beta_summary(shape), interval)
                 for (label, shape), interval in zip(marginals, intervals))
    blocks: dict[str, dict[str, tuple[MarginalSummary, ...]]] = {"theta": {}, "beta": {}}
    for kind, group, labels, _ in groups:
        blocks[kind][group] = tuple(islice(summaries, len(labels)))

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

    return PosteriorReport(theta=blocks["theta"], beta=blocks["beta"], mass=mass,
                           provenance=provenance)


def density_grid(shape: BetaShape) -> tuple[np.ndarray, np.ndarray]:
    """Beta density on the ``GRID_POINTS``-point midpoint grid covering [0, 1].

    Midpoints keep the curve finite when a shape parameter sits at or below
    one (density unbounded at an endpoint).
    """
    a, b = shape.a, shape.b
    x = _GRID_X.copy()
    return x, np.exp((a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - special.betaln(a, b))


# The fields of a marginal's report.json entry and summary.csv row, in order.
_MARGINAL_FIELDS = ("label", "a", "b", "mean", "mode", "hpdi_lo", "hpdi_hi", "hpdi_mass",
                    "equal_tailed")


def _marginal_dict(s: MarginalSummary) -> dict:
    return dict(zip(_MARGINAL_FIELDS, (
        s.label, s.shape.a, s.shape.b, s.mean, s.mode,
        s.interval.lo, s.interval.hi, s.interval.mass, s.interval.equal_tailed,
    )))


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
    """The bytes :func:`write_table` would write (repr of each float, CRLF
    line ends; no field needs quoting), in one write; only nonzero densities
    are formatted.  On these 512-row tables that is about twice as fast."""
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


def _csv_field(value) -> object:
    """A field as a table holds it: ``None`` empty, a bool as 0/1 and a
    float by the ``repr`` of its Python float (numpy's ``repr`` names its
    type), so that it reads back exactly; anything else as ``csv`` writes it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return int(value)
    return repr(float(value)) if isinstance(value, float) else value


def write_table(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` to ``path`` as CSV, each field
    formatted by :func:`_csv_field`."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_csv_field(value) for value in row] for row in rows)


def write_summary_csv(report: PosteriorReport, path: Path | str) -> None:
    """One row per marginal: its kind and group, then the fields of its
    ``report.json`` entry in the same order."""
    write_table(path, ["kind", "group", *_MARGINAL_FIELDS], (
        [kind, group, *_marginal_dict(s).values()]
        for kind, block in (("theta", report.theta), ("beta", report.beta))
        for group, summaries in block.items() for s in summaries))
