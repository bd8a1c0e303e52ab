import time

import numpy as np
import pytest

from dustmix.datasets import at_lq_point_profiles
from dustmix.vbi import FitConfig, fit

from _pins import bundled_corpus


@pytest.fixture(scope="session")
def corpus_both_known():
    return bundled_corpus("both_known")


@pytest.fixture(scope="session")
def corpus_at_known():
    return bundled_corpus("at_known")


@pytest.fixture(scope="session")
def corpus_lq_known():
    return bundled_corpus("lq_known")


@pytest.fixture(scope="session")
def pooled_profiles():
    names, profiles = at_lq_point_profiles()
    return names, profiles


@pytest.fixture(scope="session")
def fit_both_known(corpus_both_known):
    """Default-config fit of the bundled corpus, with its wall-clock time."""
    started = time.perf_counter()
    result = fit(corpus_both_known, FitConfig())
    return result, time.perf_counter() - started


@pytest.fixture(scope="session")
def fit_at_known(corpus_at_known):
    return fit(corpus_at_known, FitConfig())


@pytest.fixture(scope="session")
def fit_lq_known(corpus_lq_known):
    return fit(corpus_lq_known, FitConfig())


def theta_interval(result, corpus, location_name, source, mass=0.95):
    """Posterior mean and HPDI of one source share at one trace location."""
    from dustmix.numerics import beta_hpdi, beta_summary
    from dustmix.posterior import theta_marginal

    for row, loc_idx in zip(result.A_converged.values, result.trace_locations):
        if corpus.locations[loc_idx].name == location_name:
            shape = theta_marginal(row, source)
            return beta_summary(shape).mean, beta_hpdi(shape, mass)
    raise KeyError(location_name)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
