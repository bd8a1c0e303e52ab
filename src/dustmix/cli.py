"""Command-line front-end: ingestion, fitting, simulation, report display.

Input samples arrive as CSV with a header row ``location,role,<type...>``
where ``role`` is ``known:<source_name>`` or ``trace``; one data row per
sample.  Every run writes a manifest recording input hashes and the full
configuration next to its outputs.  Outputs are bit-stable for fixed inputs,
configuration and seed; wall-clock timing lives only in the manifest.
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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    Corpus,
    CorpusValidationError,
    LocationRole,
    ParticleCatalog,
    validate_corpus,
)
from .posterior import (build_report, write_plot_csvs, write_report_json, write_summary_csv,
                        write_table)
from .simulator import StudySpec, run_study, write_aggregate_csv, write_cells_csv
from .vbi import FitConfig, NumericalFailure, as_integer, as_real, fit

__all__ = ["IngestError", "RunManifest", "cmd_fit", "cmd_report", "cmd_simulate", "ingest_csv", "main"]

logger = logging.getLogger(__name__)

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
    # (the file line a record ends on, its fields) for every record that is not blank
    rows = ((reader.line_num, row) for row in reader if any(cell.strip() for cell in row))
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


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every run's outputs; ``seed`` is
    the study seed of a ``simulate`` run and ``None`` for a fit."""

    tool: str
    version: str
    command: str
    inputs: tuple[dict, ...]
    config: dict
    seed: int | None
    threads: int
    wall_clock_s: float
    iterations: int | None = None
    converged: bool | None = None

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _input_record(path: Path) -> dict:
    return {"path": str(path), "sha256": _sha256(path)}


_CONFIG_SECTIONS = {"unknown_sources", "fit", "report"}
_REPORT_DEFAULTS = {"hpdi_mass": 0.95}


def _load_yaml(path: Path | str):
    """The YAML document in ``path``, read as UTF-8 text; a file that is not
    UTF-8 is a ``ValueError`` naming it."""
    import yaml  # only a config file or a spec needs PyYAML; ``import dustmix.cli`` does not

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    return yaml.safe_load(text)


def load_config(path: Path | str | None) -> dict:
    """Parse the run configuration; an empty or missing config reproduces
    the default setup.  ``unknown_sources`` must be a non-negative integer
    and ``report.hpdi_mass`` a number strictly between 0 and 1."""
    raw: dict = {}
    if path is not None:
        parsed = _load_yaml(path)
        if parsed is None:
            parsed = {}
        if not isinstance(parsed, dict):
            raise ValueError(f"{path}: config must be a mapping")
        raw = parsed
    unknown = set(raw) - _CONFIG_SECTIONS
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def section(name: str, defaults: dict) -> dict:
        block = raw.get(name, {})
        if not isinstance(block, dict):
            raise ValueError(f"config section {name!r} must be a mapping")
        extra = set(block) - set(defaults)
        if extra:
            raise ValueError(f"unknown keys in config section {name!r}: {', '.join(sorted(extra))}")
        merged = dict(defaults)
        merged.update(block)
        return merged

    sources = raw.get("unknown_sources", 0)
    if as_integer("unknown_sources", sources) < 0:
        raise ValueError(f"unknown_sources must be a non-negative integer, got {sources!r}")
    report = section("report", dict(_REPORT_DEFAULTS))
    mass = as_real("report.hpdi_mass", report["hpdi_mass"])
    if not 0.0 < mass < 1.0:  # NaN fails the range test too
        raise ValueError(f"report.hpdi_mass must be a number in (0, 1), got {mass!r}")
    return {
        "unknown_sources": int(sources),
        "fit": section("fit", asdict(FitConfig())),
        "report": report,
    }


def build_fit_config(config: dict) -> FitConfig:
    return FitConfig(**config["fit"])


def _prepare_out_dir(out: Path, force: bool) -> None:
    if out.exists():
        if not out.is_dir():
            raise ValueError(f"output path {out} exists and is not a directory")
        if any(out.iterdir()) and not force:
            raise ValueError(
                f"output directory {out} is not empty; pass --force to overwrite"
            )
    out.mkdir(parents=True, exist_ok=True)


def cmd_fit(
    corpus_path: Path | str,
    config_path: Path | str | None,
    out_dir: Path | str,
    threads: int = 1,
    force: bool = False,
) -> int:
    """Fit a corpus and write report, plot data, bound trace and manifest.
    The fit draws no random numbers, so it takes no seed."""
    started = time.perf_counter()
    out = Path(out_dir)
    try:
        config = load_config(config_path)
        fit_config = build_fit_config(config)
        corpus = ingest_csv(corpus_path, unknown_sources=config["unknown_sources"])
        _prepare_out_dir(out, force)
        result = fit(corpus, fit_config)
        report = build_report(result, corpus, mass=float(config["report"]["hpdi_mass"]))
        write_report_json(report, out / "report.json")
        write_summary_csv(report, out / "summary.csv")
        write_plot_csvs(report, out)
        write_table(out / "elbo_trace.csv", ["iteration", "elbo"],
                    enumerate(result.elbo_trace, start=1))
        inputs = [_input_record(Path(corpus_path))]
        if config_path is not None:
            inputs.append(_input_record(Path(config_path)))
        RunManifest(
            tool="dustmix",
            version=__version__,
            command="fit",
            inputs=tuple(inputs),
            config=config,
            seed=None,
            threads=threads,
            wall_clock_s=time.perf_counter() - started,
            iterations=result.iterations,
            converged=result.converged,
        ).write(out / "manifest.json")
    except (IngestError, CorpusValidationError, NumericalFailure, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not result.converged:
        print(
            f"warning: fit did not converge within {fit_config.outer_max_iters} iterations",
            file=sys.stderr,
        )
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def load_study_spec(path: Path | str, seed: int | None = None) -> StudySpec:
    """Parse a study specification; ``profiles: at_lq`` pulls the bundled
    point-estimate profiles (first source known, second unknown).  Each
    count (``sample_sizes``, ``samples_per_trace``, ``known_samples``,
    ``known_sample_size``, ``replications``, ``seed``) must be an integer
    and each share (``unknown_shares``, ``second_trace``) a number: a bool,
    a string or a non-integral count raises a ``ValueError`` naming its key,
    as does a ``sample_sizes``, ``unknown_shares`` or ``second_trace`` that
    is not a list."""
    raw = _load_yaml(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: study spec must be a mapping")
    known_keys = {
        "profiles", "unknown_shares", "sample_sizes", "samples_per_trace",
        "known_samples", "known_sample_size", "second_trace", "replications", "seed",
    }
    extra = set(raw) - known_keys
    if extra:
        raise ValueError(f"unknown study-spec keys: {', '.join(sorted(extra))}")

    profiles_spec = raw.get("profiles", "at_lq")
    if profiles_spec == "at_lq":
        from .datasets import at_lq_point_profiles

        names, profiles = at_lq_point_profiles()
        catalog = ParticleCatalog(names)
    else:
        if not isinstance(profiles_spec, dict) or "types" not in profiles_spec or "rows" not in profiles_spec:
            raise ValueError("profiles must be 'at_lq' or a mapping with 'types' and 'rows'")
        catalog = ParticleCatalog(tuple(profiles_spec["types"]))
        profiles = np.asarray(profiles_spec["rows"], dtype=np.float64)
        profiles = profiles / profiles.sum(axis=1, keepdims=True)

    def listed(key: str, default, item) -> tuple:
        values = raw.get(key, default)
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"{key} must be a list, got {values!r}")
        return tuple(item(key, value) for value in values)

    second, known_size = raw.get("second_trace"), raw.get("known_sample_size")
    return StudySpec(
        catalog=catalog,
        true_profiles=profiles,
        unknown_shares=listed("unknown_shares", (0.1, 0.5, 0.9), as_real),
        sample_sizes=listed("sample_sizes", (100, 700, 1900), as_integer),
        samples_per_trace=as_integer("samples_per_trace", raw.get("samples_per_trace", 5)),
        known_sample_counts=(as_integer("known_samples", raw.get("known_samples", 12)),),
        known_particles_per_sample=(
            None if known_size is None else as_integer("known_sample_size", known_size)
        ),
        second_trace_mixture=None if second is None else listed("second_trace", None, as_real),
        replications=as_integer("replications", raw.get("replications", 10)),
        rng_seed=as_integer("seed", seed if seed is not None else raw.get("seed", 0)),
    )


def cmd_simulate(
    spec_path: Path | str,
    config_path: Path | str | None,
    out_dir: Path | str,
    seed: int | None = None,
    threads: int = 1,
    force: bool = False,
) -> int:
    """Run the accuracy study described by a spec file and write its CSVs."""
    started = time.perf_counter()
    out = Path(out_dir)
    try:
        config = load_config(config_path)
        fit_config = build_fit_config(config)
        study = load_study_spec(spec_path, seed)
        _prepare_out_dir(out, force)
        results = run_study(study, fit_config, threads=threads)
        write_cells_csv(results, out / "study_cells.csv")
        write_aggregate_csv(results, out / "study_aggregate.csv")
        inputs = [_input_record(Path(spec_path))]
        if config_path is not None:
            inputs.append(_input_record(Path(config_path)))
        clean = all(c.error is None and c.converged for c in results.cells)
        RunManifest(
            tool="dustmix",
            version=__version__,
            command="simulate",
            inputs=tuple(inputs),
            config={**config, "study_seed": study.rng_seed},
            seed=study.rng_seed,
            threads=threads,
            wall_clock_s=time.perf_counter() - started,
            iterations=None,
            converged=clean,
        ).write(out / "manifest.json")
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not clean:
        bad = sum(1 for c in results.cells if c.error is not None or not c.converged)
        print(f"warning: {bad} of {len(results.cells)} cells failed or did not converge",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _report_lines(payload: dict) -> list[str]:
    """The summary lines of a ``report.json`` payload."""
    prov = payload.get("provenance", {})
    lines = [f"converged: {prov.get('converged')}   iterations: {prov.get('iterations')}"]
    mass = payload.get("mass", 0.95)
    lines.append(f"\nsource contributions per trace location ({mass:.0%} HPDI):")
    for loc, rows in payload.get("theta", {}).items():
        lines += [f"  {loc:>10s}  {row['label']:>12s}  mean {row['mean']:.4f}"
                  f"   [{row['hpdi_lo']:.4f}, {row['hpdi_hi']:.4f}]" for row in rows]
    lines.append("\nprofile means per source (top five types):")
    for source, rows in payload.get("beta", {}).items():
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
    fit_p.add_argument("--threads", type=int, default=1,
                       help="recorded in the manifest; the fit runs on one thread")
    fit_p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    fit_p.add_argument("--verbose", action="store_true")

    sim_p = sub.add_parser("simulate", help="run an accuracy study on generated corpora")
    sim_p.add_argument("spec", type=Path, help="YAML study specification")
    sim_p.add_argument("--config", type=Path, default=None, help="YAML run configuration")
    sim_p.add_argument("--out", type=Path, required=True, help="output directory")
    sim_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    sim_p.add_argument("--threads", type=int, default=1, help="parallel cells")
    sim_p.add_argument("--force", action="store_true", help="overwrite a non-empty output directory")
    sim_p.add_argument("--verbose", action="store_true")

    rep_p = sub.add_parser("report", help="print the summary of a previous fit run")
    rep_p.add_argument("run_dir", type=Path, help="directory written by 'dustmix fit'")
    rep_p.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command == "fit":
        return cmd_fit(args.corpus, args.config, args.out, threads=args.threads, force=args.force)
    if args.command == "simulate":
        return cmd_simulate(args.spec, args.config, args.out, seed=args.seed,
                            threads=args.threads, force=args.force)
    return cmd_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
