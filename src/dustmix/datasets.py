"""Access to the bundled AT/LQ reference data set.

Twenty-six samples over fourteen mineral particle types: twelve control
samples from each of the two quarry locations AT and LQ, plus two trace
mixtures with known mixing proportions (e1: 90% AT / 10% LQ, e2: 20% AT /
80% LQ).  This file is the canonical acceptance input for the fitting
pipeline.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

import numpy as np

from .model import Corpus
from .simulator import profiles_from_counts

__all__ = ["at_lq_corpus", "at_lq_point_profiles", "fixture_path"]

# Known mixing proportions (theta_AT, theta_LQ) of the bundled traces.
TRACE_TRUTH = {"e1": (0.90, 0.10), "e2": (0.20, 0.80)}


def fixture_path() -> Path:
    """Filesystem path of the bundled AT/LQ samples CSV."""
    resource = importlib.resources.files("dustmix").joinpath("data/at_lq.csv")
    return Path(str(resource))


def at_lq_corpus(unknown_sources: int = 0, drop_known: str | None = None) -> Corpus:
    """The bundled corpus, optionally with one known location demoted.

    ``drop_known`` removes that location's control samples entirely, which
    turns the two-known-source setup into the single-known-source ones.
    The dropped source then needs ``unknown_sources=1``, or the corpus has
    one source for its traces and :func:`~dustmix.vbi.fit` refuses it.
    """
    from .cli import ingest_csv

    corpus = ingest_csv(fixture_path(), unknown_sources=unknown_sources)
    if drop_known is None:
        return corpus
    kept = [loc for loc in corpus.locations if loc.name != drop_known]
    if len(kept) == len(corpus.locations):
        raise KeyError(f"no location named {drop_known!r} in the bundled corpus")
    return Corpus.from_groups(corpus.catalog, (
        (loc.name, loc.role, [s.counts for s in loc.samples]) for loc in kept), unknown_sources)


def at_lq_point_profiles() -> tuple[tuple[str, ...], np.ndarray]:
    """Pooled empirical type frequencies of the AT and LQ control samples.

    Returns the catalog names and a 2 x 14 row-stochastic matrix (row 0: AT,
    row 1: LQ) used as ground-truth profiles by the simulation study.
    """
    corpus = at_lq_corpus()
    profiles = [profiles_from_counts(loc.samples) for loc in corpus.locations if loc.role.is_known]
    return corpus.catalog.type_names, np.vstack(profiles)
