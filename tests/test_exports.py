import importlib
from dataclasses import fields

import numpy as np
import pytest

import dustmix
from dustmix.datasets import at_lq_corpus
from dustmix.posterior import density_grid

MODULES = ["dustmix", "dustmix.cli", "dustmix.datasets", "dustmix.model", "dustmix.mstep",
           "dustmix.numerics", "dustmix.posterior", "dustmix.simulator", "dustmix.vbi"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_solver_settings_are_not_package_exports():
    # the M-step's box and Newton settings are module constants, not objects
    for module in (dustmix, importlib.import_module("dustmix.mstep")):
        for name in ("BoxBounds", "OptimizerConfig"):
            assert name not in module.__all__ and not hasattr(module, name)


def test_single_sample_state_is_not_defined():
    # the single-sample API runs on the corpus path's arrays: no per-sample
    # state type and no per-sample bound function
    for module in map(importlib.import_module, MODULES):
        for name in ("VariationalState", "elbo_sample"):
            assert name not in module.__all__ and not hasattr(module, name)


def test_unused_helpers_are_not_defined():
    # scalar Beta density and CDF, and building a sample from particle labels:
    # nothing in the package or its benchmark called them; a profile row's
    # marginal, which theta_marginal reads like any Dirichlet row's
    for module in map(importlib.import_module, MODULES):
        for name in ("beta_log_pdf", "beta_pdf", "beta_cdf", "collapse_to_counts",
                     "beta_profile_marginal"):
            assert name not in module.__all__ and not hasattr(module, name)
    assert not hasattr(dustmix.ParticleCatalog, "index_of")


def test_generate_sample_takes_no_ids():
    # a lone draw belongs to no corpus; Corpus.from_groups numbers a corpus's
    # samples by their positions
    rng = np.random.default_rng(0)
    for ids in ({"location_id": 0}, {"sample_index": 0}):
        with pytest.raises(TypeError):
            dustmix.generate_sample([0.5, 0.5], np.full((2, 2), 0.5), 10, rng, **ids)


def test_options_that_changed_nothing_are_refused():
    # a scenario's seed (the corpus is drawn from the generator passed in),
    # a matrix's role and the density grid's size (every caller used the
    # default); the fit's seed is checked in test_cli
    assert "rng_seed" not in {f.name for f in fields(dustmix.ScenarioSpec)}
    with pytest.raises(TypeError):
        dustmix.DirichletMatrix(np.ones((1, 2)), role="H")
    assert not hasattr(dustmix.DirichletMatrix, "shape")
    with pytest.raises(TypeError):
        density_grid(dustmix.BetaShape(2.0, 2.0), n=8)
    # a known location is its source, numbered by its rank in location
    # order: its role carries no source index, so no corpus, not LQ alone
    # nor AT twice, can claim an index twice or leave one out
    with pytest.raises(TypeError):
        dustmix.LocationRole.known(0)
    assert not hasattr(dustmix.LocationRole.known(), "source_index")
    assert "source_index" not in {f.name for f in fields(dustmix.LocationRole)}
    bundled = at_lq_corpus()
    at, lq, *traces = bundled.locations
    for locations in ((at, lq, *traces), (lq, *traces), (at, at, *traces)):
        codes = {v.code for v in dustmix.validate_corpus(
            dustmix.Corpus(bundled.catalog, locations, 1))}
        assert not codes & {"duplicate-source-claim", "source-index-range"}
