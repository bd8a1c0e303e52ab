"""Domain types for particle-count corpora and the result of a fit.

A corpus is a fixed catalog of particle types plus an ordered list of
sampling locations, each holding count samples; :meth:`Corpus.from_groups`
builds every corpus in ``dustmix`` and numbers each sample by its location's
position and its own.  Locations are either known surfaces tied to exactly
one source (their mixing prior stays pinned during fitting) or trace
surfaces whose source mixture is the estimand.  Per-sample data are stored
as per-type counts: responsibilities depend on a particle only through its
type, so all particles of a type share one responsibility row and the
collapsed representation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Corpus",
    "CorpusValidationError",
    "DirichletMatrix",
    "FitResult",
    "Location",
    "LocationRole",
    "ParticleCatalog",
    "SampleCounts",
    "Violation",
    "validate_corpus",
]


@dataclass(frozen=True)
class ParticleCatalog:
    """Ordered, immutable list of particle-type names."""

    type_names: tuple[str, ...]

    def __post_init__(self) -> None:
        if isinstance(self.type_names, str):
            raise ValueError("type_names must be a sequence of names, not a string, "
                             f"got {self.type_names!r}")
        names = tuple(str(n) for n in self.type_names)
        object.__setattr__(self, "type_names", names)
        if len(names) < 2:
            raise ValueError(f"catalog needs at least two particle types, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("catalog type names must be unique")

    @property
    def n_types(self) -> int:
        return len(self.type_names)


@dataclass(frozen=True)
class SampleCounts:
    """One sample: a vector of non-negative per-type counts totalling >= 1."""

    counts: np.ndarray
    location_id: int = 0
    sample_index: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts)
        if arr.ndim != 1:
            raise ValueError("counts must be a one-dimensional vector")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if (arr.dtype == np.bool_ or not np.all(np.isfinite(arr))
                    or np.any(np.abs(arr - rounded) > 0)):
                raise ValueError("counts must be integers")
            if np.any(rounded >= 2.0**63):  # the int64 cast would wrap it
                raise ValueError(f"count {int(rounded.max())} does not fit in a 64-bit integer")
            arr = rounded
        elif arr.dtype == np.uint64 and np.any(arr >= np.uint64(2**63)):
            raise ValueError(f"count {int(arr.max())} does not fit in a 64-bit integer")
        if np.any(arr < 0):
            raise ValueError("counts must be non-negative")
        arr = arr.astype(np.int64)
        total = sum(arr.tolist())  # Python ints: an int64 sum would wrap
        if total < 1:
            raise ValueError("a sample must contain at least one particle")
        if total > np.iinfo(np.int64).max:
            raise ValueError(f"the sample's total count {total} does not fit in a 64-bit integer")
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class LocationRole:
    """Role of a sampling location: pinned to one known source, or a trace.

    ``source_index`` is the 0-based column of the mixing matrix claimed by a
    known location; ``None`` marks a trace surface.
    """

    source_index: int | None = None

    @classmethod
    def known(cls, source_index: int) -> "LocationRole":
        if source_index < 0:
            raise ValueError("source_index must be non-negative")
        return cls(source_index=source_index)

    @classmethod
    def trace(cls) -> "LocationRole":
        return cls(source_index=None)

    @property
    def is_known(self) -> bool:
        return self.source_index is not None


@dataclass(frozen=True)
class Location:
    name: str
    role: LocationRole
    samples: tuple[SampleCounts, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))


@dataclass(frozen=True)
class Corpus:
    """All samples grouped by location, plus the source bookkeeping.

    ``n_unknown_sources`` declares how many sources have no known location
    (at most one is supported by the inference engine; the validator flags
    larger declarations rather than the constructor so that violations can
    be reported as data).
    """

    catalog: ParticleCatalog
    locations: tuple[Location, ...]
    n_unknown_sources: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "locations", tuple(self.locations))

    @classmethod
    def from_groups(
        cls,
        catalog: ParticleCatalog,
        groups: Iterable[tuple[str, LocationRole, Iterable[np.ndarray]]],
        n_unknown_sources: int = 0,
    ) -> "Corpus":
        """The corpus of ``groups``: one (name, role, count vectors) triple per
        location, in location order.  Each sample's ``location_id`` and
        ``sample_index`` are its location's position and its own."""
        return cls(catalog, tuple(
            Location(name, role, tuple(SampleCounts(c, i, s) for s, c in enumerate(vectors)))
            for i, (name, role, vectors) in enumerate(groups)), n_unknown_sources)

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    @property
    def n_known_sources(self) -> int:
        claimed = {
            loc.role.source_index for loc in self.locations if loc.role.is_known
        }
        return len(claimed)

    @property
    def n_sources(self) -> int:
        return self.n_known_sources + self.n_unknown_sources

    @property
    def n_types(self) -> int:
        return self.catalog.n_types

    @property
    def n_samples(self) -> int:
        return sum(len(loc.samples) for loc in self.locations)

    @property
    def source_names(self) -> tuple[str, ...]:
        """The source names of a corpus that :func:`validate_corpus` accepts:
        its known locations' names by source index, then the unknown sources'."""
        known = sorted((loc for loc in self.locations if loc.role.is_known),
                       key=lambda loc: loc.role.source_index)
        return tuple([loc.name for loc in known] + [
            f"unknown_{q}" if self.n_unknown_sources > 1 else "unknown"
            for q in range(self.n_unknown_sources)])

    @property
    def trace_location_ids(self) -> tuple[int, ...]:
        return tuple(i for i, loc in enumerate(self.locations) if not loc.role.is_known)

    def iter_samples(self) -> Iterator[tuple[int, SampleCounts]]:
        for i, loc in enumerate(self.locations):
            for sample in loc.samples:
                yield i, sample


@dataclass(frozen=True)
class DirichletMatrix:
    """Read-only positive matrix whose rows are Dirichlet parameter vectors:
    a fit's sources-by-types profile hyperparameters or its trace
    locations-by-sources share posteriors (see :class:`FitResult`)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("DirichletMatrix must be two-dimensional")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError("DirichletMatrix entries must be positive and finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class FitResult:
    """Converged hyperparameters, the variational arrays and the bound trace.

    ``A_converged`` holds one Dirichlet share posterior per trace location
    (known rows are pinned by construction and never move); each row has
    the mean of the fitted mixing row and a concentration set from the
    linear-response variance of the location's share, or the number of
    sources where that variance is unusable.  ``trace_locations`` maps its
    rows back to corpus location indices.  ``H_converged`` holds the fitted
    profile hyperparameters.  ``gamma`` (samples x sources) and ``phi``
    (samples x types x sources) hold the mixing posteriors and
    responsibilities, one row per sample in corpus order, and ``lam``
    (sources x types) the one shared profile posterior.  The sweeps keep
    the responsibilities in factored form; ``phi`` is those of the fit's
    last sweep, built once, from its factors.  ``elbo_trace`` has one entry
    per outer iteration: the collapsed bound (log normalisers plus the
    responsibility entropy, which equals the seven-term bound right after a
    sweep) of the state its inference phase returns.
    """

    H_converged: DirichletMatrix
    A_converged: DirichletMatrix
    trace_locations: tuple[int, ...]
    gamma: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    elbo_trace: tuple[float, ...]
    converged: bool
    iterations: int


@dataclass(frozen=True)
class Violation:
    """One failed corpus invariant; validation reports these as data."""

    code: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.code}] {self.message}"


class CorpusValidationError(ValueError):
    """Raised when an operation requires a corpus free of violations."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"corpus failed validation: {lines}")


def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Check every corpus invariant; empty result means the corpus is fit-ready."""
    violations: list[Violation] = []
    T = corpus.n_types

    if corpus.n_unknown_sources < 0:
        violations.append(Violation("unknown-source-count", "unknown-source count cannot be negative"))
    elif corpus.n_unknown_sources > 1:
        violations.append(
            Violation(
                "unknown-source-limit",
                f"at most one unknown source is supported, got {corpus.n_unknown_sources}",
            )
        )

    claims: dict[int, list[str]] = {}
    for i, loc in enumerate(corpus.locations):
        if loc.role.is_known:
            claims.setdefault(loc.role.source_index, []).append(loc.name)
        if not loc.samples:
            violations.append(Violation("empty-location", f"location {loc.name!r} holds no sample"))
        for sample in loc.samples:
            where = f"sample {sample.sample_index} at location {loc.name!r}"
            if sample.counts.shape[0] != T:
                message = f"{where} has {sample.counts.shape[0]} type counts, catalog has {T}"
                violations.append(Violation("sample-length", message))
            if sample.location_id != i:
                message = f"{where} carries location_id {sample.location_id}, expected {i}"
                violations.append(Violation("sample-location", message))

    n_known = len(claims)
    for idx, names in sorted(claims.items()):
        if len(names) > 1:
            violations.append(
                Violation(
                    "duplicate-source-claim",
                    f"source index {idx} is claimed by multiple locations: {', '.join(names)}",
                )
            )
        if not 0 <= idx < n_known:
            violations.append(
                Violation(
                    "source-index-range",
                    f"known source indices must cover 0..{n_known - 1} exactly; got {idx}",
                )
            )

    if n_known + max(corpus.n_unknown_sources, 0) < 1:
        violations.append(Violation("no-sources", "corpus must declare at least one source"))
    if corpus.n_unknown_sources > 0 and not any(
        loc.samples for loc in corpus.locations if not loc.role.is_known
    ):
        message = "an unknown source is declared but no trace location holds a sample"
        violations.append(Violation("unknown-without-trace", message))

    return violations
