"""Aim 3's bad inputs, built from the bundled corpus: each must either raise a
named error or fit to finite outputs with a non-decreasing bound and report
intervals that contain their means.  Inputs no fit can answer must raise,
naming their violation."""

import numpy as np
import pytest

from dustmix.datasets import at_lq_corpus
from dustmix.model import Corpus, CorpusValidationError, Location, LocationRole, SampleCounts
from dustmix.posterior import build_report
from dustmix.vbi import FitConfig, NumericalFailure, fit


def _rebuilt(corpus, keep_location=lambda loc: True, samples=lambda loc: loc.samples,
             counts=lambda loc, c: c):
    """``corpus`` with locations filtered, samples chosen and counts mapped."""
    locations = []
    for loc in filter(keep_location, corpus.locations):
        i = len(locations)
        chosen = tuple(
            SampleCounts(counts(loc, np.array(s.counts)), location_id=i, sample_index=k)
            for k, s in enumerate(samples(loc))
        )
        locations.append(Location(loc.name, loc.role, chosen))
    return Corpus(corpus.catalog, tuple(locations), corpus.n_unknown_sources)


def _zeroed_type(corpus):
    # type 1 has particles in some samples and none after; type 0 stays, so
    # every sample keeps at least one particle
    def drop(loc, c):
        c[0] += c[1]
        c[1] = 0
        return c
    return _rebuilt(corpus, counts=drop)


def _single_type_known(corpus):
    def pile(loc, c):
        return np.eye(c.size, dtype=np.int64)[3] * c.sum() if loc.role.is_known else c
    return _rebuilt(corpus, counts=pile)


BAD_INPUTS = {
    "type-zero-everywhere": lambda: _zeroed_type(at_lq_corpus()),
    "one-sample-per-location": lambda: _rebuilt(
        at_lq_corpus(unknown_sources=1, drop_known="LQ"), samples=lambda loc: loc.samples[:1]),
    "counts-times-1e6": lambda: _rebuilt(at_lq_corpus(), counts=lambda loc, c: c * 10**6),
    "no-trace-location": lambda: _rebuilt(
        at_lq_corpus(), keep_location=lambda loc: loc.role.is_known),
    "single-type-known-source": lambda: _single_type_known(
        at_lq_corpus(unknown_sources=1, drop_known="LQ")),
}


def _with_empty_trace(corpus):
    return Corpus(corpus.catalog, corpus.locations + (Location("e3", LocationRole.trace(), ()),),
                  corpus.n_unknown_sources)


# Inputs that no fit can answer, each with the violation that must name it.
REFUSED_INPUTS = {
    "empty-trace-location": (
        lambda: _with_empty_trace(at_lq_corpus(unknown_sources=1, drop_known="LQ")),
        "empty-location"),
    "known-location-without-samples": (
        lambda: _rebuilt(at_lq_corpus(), samples=lambda loc: () if loc.name == "LQ" else loc.samples),
        "empty-location"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_INPUTS))
def test_unanswerable_input_is_refused_by_name(name):
    build, code = REFUSED_INPUTS[name]
    with pytest.raises(CorpusValidationError) as err:
        fit(build(), FitConfig())
    assert code in [v.code for v in err.value.violations]


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_is_refused_or_fitted_soundly(name):
    corpus = BAD_INPUTS[name]()
    try:
        result = fit(corpus, FitConfig())
    except (CorpusValidationError, NumericalFailure):
        return
    trace = np.array(result.elbo_trace)
    assert trace.size and np.all(np.isfinite(trace))
    # acceptance criterion 4's slack
    assert np.all(np.diff(trace) >= -1e-8 * np.maximum(np.abs(trace[:-1]), 1.0))
    for values in (result.H_converged.values, result.A_converged.values, result.gamma,
                   result.phi, result.lam):
        assert np.all(np.isfinite(values))
    report = build_report(result, corpus)
    summaries = [s for block in (report.theta, report.beta) for group in block.values()
                 for s in group]
    assert summaries
    for summary in summaries:
        assert summary.interval.lo <= summary.mean <= summary.interval.hi, summary
