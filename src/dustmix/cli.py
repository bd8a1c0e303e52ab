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
import json
import logging
import sys
import time
from dataclasses import asdict, dataclass
from numbers import Real
from pathlib import Path

import numpy as np

from . import __version__
from .model import (
    Corpus,
    CorpusValidationError,
    Location,
    LocationRole,
    ParticleCatalog,
    SampleCounts,
    validate_corpus,
)
from .posterior import build_report, write_plot_csvs, write_report_json, write_summary_csv
from .simulator import StudySpec, run_study, write_aggregate_csv, write_cells_csv
from .vbi import FitConfig, NumericalFailure, fit

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
    first appearance); all rows of a location must agree on its role.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 4 or header[0].lower() != "location" or header[1].lower() != "role":
        raise IngestError(
            f"{path}: header must be 'location,role,<type names...>' with at least two types"
        )
    try:
        catalog = ParticleCatalog(tuple(header[2:]))
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc

    order: list[str] = []
    roles: dict[str, str] = {}
    samples: dict[str, list[np.ndarray]] = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise IngestError(
                f"{path}:{r}: expected {len(header)} columns, got {len(row)}"
            )
        loc_name = row[0].strip()
        role = row[1].strip()
        if not loc_name:
            raise IngestError(f"{path}:{r}: empty location name")
        if not (role == "trace" or role.startswith("known:")):
            raise IngestError(
                f"{path}:{r}: role must be 'trace' or 'known:<source_name>', got {role!r}"
            )
        counts = np.zeros(catalog.n_types, dtype=np.int64)
        for c, cell in enumerate(row[2:], start=3):
            try:
                value = int(cell)
            except ValueError:
                raise IngestError(
                    f"{path}:{r}: column {c} ({header[c - 1]!r}): not an integer: {cell!r}"
                ) from None
            if value < 0:
                raise IngestError(
                    f"{path}:{r}: column {c} ({header[c - 1]!r}): negative count {value}"
                )
            counts[c - 3] = value
        if counts.sum() < 1:
            raise IngestError(f"{path}:{r}: sample holds no particles")
        if loc_name not in roles:
            order.append(loc_name)
            roles[loc_name] = role
            samples[loc_name] = []
        elif roles[loc_name] != role:
            raise IngestError(
                f"{path}:{r}: location {loc_name!r} declared with conflicting roles "
                f"{roles[loc_name]!r} and {role!r}"
            )
        samples[loc_name].append(counts)

    source_order: list[str] = []
    claimed_by: dict[str, str] = {}
    for loc_name in order:
        role = roles[loc_name]
        if role.startswith("known:"):
            source_name = role[len("known:"):].strip()
            if not source_name:
                raise IngestError(f"{path}: location {loc_name!r} claims an empty source name")
            if source_name in claimed_by:
                raise IngestError(
                    f"{path}: known source {source_name!r} claimed by both "
                    f"{claimed_by[source_name]!r} and {loc_name!r}"
                )
            claimed_by[source_name] = loc_name
            source_order.append(source_name)

    locations: list[Location] = []
    for i, loc_name in enumerate(order):
        role = roles[loc_name]
        if role.startswith("known:"):
            loc_role = LocationRole.known(source_order.index(role[len("known:"):].strip()))
        else:
            loc_role = LocationRole.trace()
        loc_samples = tuple(
            SampleCounts(counts=arr, location_id=i, sample_index=s)
            for s, arr in enumerate(samples[loc_name])
        )
        locations.append(Location(name=loc_name, role=loc_role, samples=loc_samples))

    corpus = Corpus(
        catalog=catalog,
        locations=tuple(locations),
        n_unknown_sources=unknown_sources,
    )
    violations = validate_corpus(corpus)
    if violations:
        raise IngestError(
            f"{path}: corpus failed validation: " + "; ".join(str(v) for v in violations)
        )
    return corpus


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to every run's outputs."""

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


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a string or a non-integral number raises
    a ``ValueError`` naming ``name`` (the rule of :class:`FitConfig`)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def load_config(path: Path | str | None) -> dict:
    """Parse the run configuration; an empty or missing config reproduces
    the default setup.  ``unknown_sources`` must be a non-negative integer."""
    raw: dict = {}
    if path is not None:
        import yaml  # only a config file needs PyYAML; ``import dustmix.cli`` does not

        text = Path(path).read_text()
        parsed = yaml.safe_load(text)
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
    if _integer("unknown_sources", sources) < 0:
        raise ValueError(f"unknown_sources must be a non-negative integer, got {sources!r}")
    return {
        "unknown_sources": int(sources),
        "fit": section("fit", asdict(FitConfig())),
        "report": section("report", dict(_REPORT_DEFAULTS)),
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


def _write_elbo_trace(trace, path: Path) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elbo"])
        for i, value in enumerate(trace, start=1):
            writer.writerow([i, repr(float(value))])


def cmd_fit(
    corpus_path: Path | str,
    config_path: Path | str | None,
    out_dir: Path | str,
    seed: int | None = None,
    threads: int = 1,
    force: bool = False,
) -> int:
    """Fit a corpus and write report, plot data, bound trace and manifest."""
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
        _write_elbo_trace(result.elbo_trace, out / "elbo_trace.csv")
        inputs = [_input_record(Path(corpus_path))]
        if config_path is not None:
            inputs.append(_input_record(Path(config_path)))
        RunManifest(
            tool="dustmix",
            version=__version__,
            command="fit",
            inputs=tuple(inputs),
            config=config,
            seed=seed,
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
    ``known_sample_size``, ``replications``, ``seed``) must be an integer:
    a bool, a string or a non-integral value raises a ``ValueError`` naming
    its key."""
    import yaml

    raw = yaml.safe_load(Path(path).read_text())
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

    second = raw.get("second_trace")
    sizes, known_size = raw.get("sample_sizes", (100, 700, 1900)), raw.get("known_sample_size")
    if not isinstance(sizes, (list, tuple)):
        raise ValueError(f"sample_sizes must be a list of integers, got {sizes!r}")
    return StudySpec(
        catalog=catalog,
        true_profiles=profiles,
        unknown_shares=tuple(float(u) for u in raw.get("unknown_shares", (0.1, 0.5, 0.9))),
        sample_sizes=tuple(_integer("sample_sizes", n) for n in sizes),
        samples_per_trace=_integer("samples_per_trace", raw.get("samples_per_trace", 5)),
        known_sample_counts=(_integer("known_samples", raw.get("known_samples", 12)),),
        known_particles_per_sample=(
            None if known_size is None else _integer("known_sample_size", known_size) or None
        ),
        second_trace_mixture=tuple(float(v) for v in second) if second else None,
        replications=_integer("replications", raw.get("replications", 10)),
        rng_seed=_integer("seed", seed if seed is not None else raw.get("seed", 0)),
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


def cmd_report(run_dir: Path | str) -> int:
    """Print a readable summary of a previous fit run."""
    path = Path(run_dir) / "report.json"
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load {path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    prov = payload.get("provenance", {})
    print(f"converged: {prov.get('converged')}   iterations: {prov.get('iterations')}")
    mass = payload.get("mass", 0.95)
    print(f"\nsource contributions per trace location ({mass:.0%} HPDI):")
    for loc, rows in payload.get("theta", {}).items():
        for row in rows:
            print(
                f"  {loc:>10s}  {row['label']:>12s}  mean {row['mean']:.4f}"
                f"   [{row['hpdi_lo']:.4f}, {row['hpdi_hi']:.4f}]"
            )
    print("\nprofile means per source (top five types):")
    for source, rows in payload.get("beta", {}).items():
        top = sorted(rows, key=lambda r: r["mean"], reverse=True)[:5]
        parts = ", ".join(f"{r['label']} {r['mean']:.3f}" for r in top)
        print(f"  {source:>10s}: {parts}")
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
    fit_p.add_argument("--seed", type=int, default=None,
                       help="seed recorded in the manifest; the fit draws no random numbers")
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
        return cmd_fit(args.corpus, args.config, args.out, seed=args.seed,
                       threads=args.threads, force=args.force)
    if args.command == "simulate":
        return cmd_simulate(args.spec, args.config, args.out, seed=args.seed,
                            threads=args.threads, force=args.force)
    return cmd_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
