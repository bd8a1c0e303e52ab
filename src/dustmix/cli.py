"""Command-line front-end: ingestion, fitting, simulation, report display.

Input samples arrive as CSV with a header row ``location,role,<type...>``
where ``role`` is ``known:<source_name>`` or ``trace``; one data row per
sample.  Every ``fit`` and ``simulate`` run writes a ``manifest.json`` next
to its outputs: the tool and version, the command, the path and sha256 of
each input file, the configuration sections its command reads (with their
defaults filled in), the seed, the wall-clock time, and the iteration count
and convergence flag.  Every run is on one thread.
Outputs are bit-stable for fixed inputs, configuration and seed; wall-clock
timing lives only in the manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .model import Corpus, LocationRole, ParticleCatalog, validate_corpus
from .posterior import (build_report, write_plot_csvs, write_report_json, write_summary_csv,
                        write_table)
from .simulator import StudySpec, run_study, write_aggregate_csv, write_cells_csv
from .vbi import FitConfig, NumericalFailure, as_integer, as_real, fit

__all__ = ["IngestError", "cmd_fit", "cmd_report", "cmd_simulate", "ingest_csv", "main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class IngestError(ValueError):
    """Malformed input file; the message carries row/column coordinates."""


def ingest_csv(path: Path | str, unknown_sources: int = 0) -> Corpus:
    """Read a sample CSV into a validated corpus.

    Rows are grouped into locations by the ``location`` column (order of
    first appearance); all rows of a location must agree on its role.  The
    file is UTF-8, with or without a byte-order mark.  A count is ASCII
    decimal digits, and a row's counts and their total are at most the
    largest 64-bit integer.  Blank lines are skipped; an error names the
    file line its record ends on (a quoted field may span lines).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text: {exc}") from exc
    reader = csv.reader(io.StringIO(text, newline=""))

    def records():
        # (the file line a record ends on, its fields) for every record that is not blank
        try:
            for row in reader:
                if any(cell.strip() for cell in row):
                    yield reader.line_num, row
        except csv.Error as exc:  # a field over the csv module's size limit
            raise IngestError(f"{path}:{reader.line_num}: {exc}") from exc

    rows = records()
    first = next(rows, None)
    if first is None:
        raise IngestError(f"{path}: file is empty")
    header = [cell.strip() for cell in first[1]]
    if len(header) < 4 or header[0].lower() != "location" or header[1].lower() != "role":
        raise IngestError(
            f"{path}: header must be 'location,role,<type names...>' with at least two types"
        )
    try:
        catalog = ParticleCatalog(tuple(header[2:]))
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc

    groups: dict[str, tuple[str, list[np.ndarray]]] = {}
    for r, row in rows:
        if len(row) != len(header):
            raise IngestError(f"{path}:{r}: expected {len(header)} columns, got {len(row)}")
        loc_name = row[0].strip()
        role = row[1].strip()
        if not loc_name:
            raise IngestError(f"{path}:{r}: empty location name")
        if not (role == "trace" or role.startswith("known:")):
            raise IngestError(
                f"{path}:{r}: role must be 'trace' or 'known:<source_name>', got {role!r}"
            )
        counts, total = np.zeros(catalog.n_types, dtype=np.int64), 0
        for c, cell in enumerate(row[2:], start=3):
            where = f"{path}:{r}: column {c} ({header[c - 1]!r})"
            count = cell.strip()
            digits = count.removeprefix("-")
            # int() would also take "1_0", "+1" and other scripts' digits
            if not (digits.isascii() and digits.isdigit()):
                raise IngestError(f"{where}: not an integer: {cell!r}")
            value = int(count)
            if value < 0:
                raise IngestError(f"{where}: negative count {value}")
            if value > np.iinfo(np.int64).max:
                raise IngestError(f"{where}: count {value} does not fit in a 64-bit integer")
            counts[c - 3] = value
            total += value
        if total < 1:
            raise IngestError(f"{path}:{r}: sample holds no particles")
        if total > np.iinfo(np.int64).max:
            raise IngestError(f"{path}:{r}: total count {total} does not fit in a 64-bit integer")
        first_role, vectors = groups.setdefault(loc_name, (role, []))
        if first_role != role:
            raise IngestError(
                f"{path}:{r}: location {loc_name!r} declared with conflicting roles "
                f"{first_role!r} and {role!r}"
            )
        vectors.append(counts)

    claimed_by: dict[str, str] = {}
    located = []
    for loc_name, (role, vectors) in groups.items():
        loc_role = LocationRole.trace()
        if role.startswith("known:"):
            source_name = role[len("known:"):].strip()
            if not source_name:
                raise IngestError(f"{path}: location {loc_name!r} claims an empty source name")
            if source_name in claimed_by:
                raise IngestError(
                    f"{path}: known source {source_name!r} claimed by both "
                    f"{claimed_by[source_name]!r} and {loc_name!r}"
                )
            loc_role = LocationRole.known(len(claimed_by))
            claimed_by[source_name] = loc_name
        located.append((loc_name, loc_role, vectors))
    corpus = Corpus.from_groups(catalog, located, unknown_sources)
    violations = validate_corpus(corpus)
    if violations:
        raise IngestError(
            f"{path}: corpus failed validation: " + "; ".join(str(v) for v in violations)
        )
    return corpus


def _load_yaml(path: Path | str):
    """The YAML document in ``path``, read as UTF-8 text; a file that is not
    UTF-8, or not valid YAML, is a ``ValueError`` naming it."""
    import yaml  # only a config file or a spec needs PyYAML; ``import dustmix.cli`` does not

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: not valid YAML: {exc}") from exc


def _mapping(block, what: str, keys: tuple[str, ...]) -> dict:
    """``block`` if it is a mapping whose keys are all in ``keys``; else a
    ``ValueError`` naming ``what`` and every key it does not take."""
    if not isinstance(block, dict):
        raise ValueError(f"{what} must be a mapping")
    extra = sorted(str(key) for key in block if key not in keys)
    if extra:
        raise ValueError(f"{what} holds unknown keys: {', '.join(extra)}")
    return block


def load_config(path: Path | str | None,
                sections: tuple[str, ...] = ("unknown_sources", "fit", "report")) -> dict:
    """Parse the run configuration: a YAML mapping of the ``sections`` its
    command reads (all three for ``fit``, only ``fit`` for ``simulate``),
    returned in that order with every default filled in, so an empty or
    missing config reproduces the default setup.  Any other key is refused.
    ``unknown_sources`` must be a non-negative integer and
    ``report.hpdi_mass`` a number strictly between 0 and 1."""
    parsed = None if path is None else _load_yaml(path)
    raw = _mapping({} if parsed is None else parsed, f"{path}: config", sections)
    defaults = {"unknown_sources": 0, "fit": asdict(FitConfig()), "report": {"hpdi_mass": 0.95}}
    config = {}
    for name in sections:
        config[name] = raw.get(name, defaults[name])
        if isinstance(defaults[name], dict):
            block = _mapping(config[name], f"config section {name!r}", tuple(defaults[name]))
            config[name] = {**defaults[name], **block}
    if "unknown_sources" in config:
        sources = config["unknown_sources"]
        if as_integer("unknown_sources", sources) < 0:
            raise ValueError(f"unknown_sources must be a non-negative integer, got {sources!r}")
        config["unknown_sources"] = int(sources)
    if "report" in config:
        mass = as_real("report.hpdi_mass", config["report"]["hpdi_mass"])
        if not 0.0 < mass < 1.0:  # NaN fails the range test too
            raise ValueError(f"report.hpdi_mass must be a number in (0, 1), got {mass!r}")
    return config


def _prepare_out_dir(out: Path, force: bool) -> None:
    if out.exists():
        if not out.is_dir():
            raise ValueError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise ValueError(
                f"output directory {out} is not empty; pass --force to overwrite"
            )
    out.mkdir(parents=True, exist_ok=True)


def _write_manifest(out: Path, command: str, started: float, paths: list, config: dict,
                    seed: int | None, iterations: int | None, converged: bool) -> None:
    """Write ``out/manifest.json``, with the sha256 of each input path (a
    ``None``, no config file, is skipped) and ``wall_clock_s`` since
    ``started``, the one value that changes from run to run.  Every run is
    on one thread, so no thread count is recorded."""
    inputs = [Path(path) for path in paths if path is not None]
    manifest = {
        "tool": "dustmix",
        "version": __version__,
        "command": command,
        "inputs": [{"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                   for path in inputs],
        "config": config,
        "seed": seed,
        "wall_clock_s": time.perf_counter() - started,
        "iterations": iterations,
        "converged": converged,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def cmd_fit(
    corpus_path: Path | str,
    config_path: Path | str | None,
    out_dir: Path | str,
    threads: int = 1,
    force: bool = False,
) -> int:
    """Fit a corpus and write report, plot data, bound trace and manifest.
    A corpus with a trace location and fewer than two sources is refused
    before the output directory is made.  The fit draws no random numbers,
    so it takes no seed, and runs on one thread.  ``threads`` is ignored and
    the manifest records none: it stays only while the benchmark passes
    ``threads=1`` (ROADMAP item 7)."""
    started = time.perf_counter()
    out = Path(out_dir)
    try:
        config = load_config(config_path)
        fit_config = FitConfig(**config["fit"])
        corpus = ingest_csv(corpus_path, unknown_sources=config["unknown_sources"])
        if corpus.trace_location_ids and corpus.n_sources < 2:
            raise ValueError(f"{corpus_path}: a trace share needs at least two sources")
        _prepare_out_dir(out, force)
        result = fit(corpus, fit_config)
        report = build_report(result, corpus, mass=float(config["report"]["hpdi_mass"]))
        write_report_json(report, out / "report.json")
        write_summary_csv(report, out / "summary.csv")
        write_plot_csvs(report, out)
        write_table(out / "elbo_trace.csv", ["iteration", "elbo"],
                    enumerate(result.elbo_trace, start=1))
        _write_manifest(out, "fit", started, [corpus_path, config_path], config, None,
                        result.iterations, result.converged)
    except (NumericalFailure, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not result.converged:
        print(
            f"warning: fit did not converge within {fit_config.outer_max_iters} iterations",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _study_profiles(block) -> tuple[ParticleCatalog, np.ndarray]:
    """The catalog and profiles of a study spec's ``profiles`` block:
    ``at_lq``, the bundled point-estimate profiles (first source known,
    second unknown), or a mapping of exactly ``types``, a list of type names
    (strings or numbers), and ``rows``, one list of non-negative numbers per
    source, one per type, with a positive sum that is scaled to 1."""
    if block == "at_lq":
        from .datasets import at_lq_point_profiles

        names, profiles = at_lq_point_profiles()
        return ParticleCatalog(names), profiles
    if not isinstance(block, dict) or set(block) != {"types", "rows"}:
        raise ValueError("profiles must be 'at_lq' or a mapping with 'types' and 'rows' "
                         f"and no other key, got {block!r}")
    types, rows = block["types"], block["rows"]
    if not isinstance(types, list) or not all(
            isinstance(name, (str, int, float)) and not isinstance(name, bool) for name in types):
        raise ValueError(f"profiles.types must be a list of names (strings or numbers), "
                         f"got {types!r}")
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"profiles.rows must be a list of lists of numbers, got {rows!r}")
    for row in rows:
        values = [as_real("profiles.rows", value) for value in row]
        if (len(values) != len(types) or not all(0.0 <= v < np.inf for v in values)
                or not 0.0 < sum(values) < np.inf):
            raise ValueError("each of profiles.rows must hold one non-negative number per type "
                             f"and have a positive sum, got {row!r}")
    profiles = np.asarray(rows, dtype=np.float64)
    return ParticleCatalog(tuple(types)), profiles / profiles.sum(axis=1, keepdims=True)


def load_study_spec(path: Path | str, seed: int | None = None) -> StudySpec:
    """Parse a study specification into a :class:`StudySpec`, which checks
    every field, so an error names the field, not the key.  ``profiles``
    (default ``at_lq``) is read by :func:`_study_profiles`; of the other
    keys, ``known_samples: n`` is ``known_sample_counts=(n,)``,
    ``known_sample_size`` is ``known_particles_per_sample``,
    ``second_trace`` is ``second_trace_mixture`` and ``seed`` is
    ``rng_seed``, which a ``seed`` argument overrides; every other key is
    its field."""
    raw = _mapping(_load_yaml(path), f"{path}: study spec", (
        "profiles", "unknown_shares", "sample_sizes", "samples_per_trace",
        "known_samples", "known_sample_size", "second_trace", "replications", "seed"))
    catalog, profiles = _study_profiles(raw.get("profiles", "at_lq"))
    return StudySpec(
        catalog=catalog,
        true_profiles=profiles,
        unknown_shares=raw.get("unknown_shares", (0.1, 0.5, 0.9)),
        sample_sizes=raw.get("sample_sizes", (100, 700, 1900)),
        samples_per_trace=raw.get("samples_per_trace", 5),
        known_sample_counts=(raw.get("known_samples", 12),),
        known_particles_per_sample=raw.get("known_sample_size"),
        second_trace_mixture=raw.get("second_trace"),
        replications=raw.get("replications", 10),
        rng_seed=seed if seed is not None else raw.get("seed", 0),
    )


def cmd_simulate(
    spec_path: Path | str,
    config_path: Path | str | None,
    out_dir: Path | str,
    seed: int | None = None,
    force: bool = False,
) -> int:
    """Run the accuracy study described by a spec file and write its CSVs.
    The study fits one unknown source and builds no report, so its config
    holds only the ``fit`` section, and the manifest records only that."""
    started = time.perf_counter()
    out = Path(out_dir)
    try:
        config = load_config(config_path, ("fit",))
        fit_config = FitConfig(**config["fit"])
        study = load_study_spec(spec_path, seed)
        _prepare_out_dir(out, force)
        results = run_study(study, fit_config)
        write_cells_csv(results, out / "study_cells.csv")
        write_aggregate_csv(results, out / "study_aggregate.csv")
        clean = all(c.error is None and c.converged for c in results.cells)
        _write_manifest(out, "simulate", started, [spec_path, config_path], config,
                        study.rng_seed, None, clean)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not clean:
        bad = sum(1 for c in results.cells if c.error is not None or not c.converged)
        print(f"warning: {bad} of {len(results.cells)} cells failed or did not converge",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _report_lines(payload: dict) -> list[str]:
    """The summary lines of a ``report.json`` payload; a missing key is a ``KeyError``."""
    prov = payload["provenance"]
    lines = [f"converged: {prov['converged']}   iterations: {prov['iterations']}",
             f"\nsource contributions per trace location ({payload['mass']:.0%} HPDI):"]
    for loc, rows in payload["theta"].items():
        lines += [f"  {loc:>10s}  {row['label']:>12s}  mean {row['mean']:.4f}"
                  f"   [{row['hpdi_lo']:.4f}, {row['hpdi_hi']:.4f}]" for row in rows]
    lines.append("\nprofile means per source (top five types):")
    for source, rows in payload["beta"].items():
        top = sorted(rows, key=lambda r: r["mean"], reverse=True)[:5]
        parts = ", ".join(f"{r['label']} {r['mean']:.3f}" for r in top)
        lines.append(f"  {source:>10s}: {parts}")
    return lines


def cmd_report(run_dir: Path | str) -> int:
    """Print a readable summary of a previous fit run; a ``report.json``
    that cannot be read, or is not shaped as :func:`cmd_fit` writes it, is
    an error naming the file."""
    path = Path(run_dir) / "report.json"
    try:
        lines = _report_lines(json.loads(path.read_text()))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dustmix",
        description="Deconvolve particle-count mixtures into source contributions and profiles.",
    )
    parser.add_argument("--version", action="version", version=f"dustmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit a corpus CSV and write the posterior report")
    fit_p.add_argument("corpus", type=Path, help="input sample CSV")
    fit_p.add_argument("--config", type=Path, default=None, help="YAML run configuration")
    fit_p.add_argument("--out", type=Path, required=True, help="output directory")
    fit_p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    fit_p.add_argument("--verbose", action="store_true")

    sim_p = sub.add_parser("simulate", help="run an accuracy study on generated corpora")
    sim_p.add_argument("spec", type=Path, help="YAML study specification")
    sim_p.add_argument("--config", type=Path, default=None, help="YAML run configuration")
    sim_p.add_argument("--out", type=Path, required=True, help="output directory")
    sim_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sim_p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    sim_p.add_argument("--verbose", action="store_true")

    rep_p = sub.add_parser("report", help="print the summary of a previous fit run")
    rep_p.add_argument("run_dir", type=Path, help="directory written by 'dustmix fit'")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command == "fit":
        return cmd_fit(args.corpus, args.config, args.out, force=args.force)
    if args.command == "simulate":
        return cmd_simulate(args.spec, args.config, args.out, seed=args.seed, force=args.force)
    return cmd_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
